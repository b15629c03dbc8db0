//! `estimate_wcet` counts misses with the analysis's own LRU kernel. These
//! tests pin its per-path misses and cycles to the co-simulation's
//! executable cache (`CacheSim`, LRU) fed the same ISS stream.

use proptest::prelude::*;
use rtcache::{CacheGeometry, CacheSim};
use rtprogram::sim::{Simulator, DEFAULT_STEP_LIMIT};
use rtprogram::Program;
use rtwcet::{estimate_wcet, TimingModel};

/// `(instructions, misses, cycles)` per variant from one `CacheSim` pass
/// over each variant's ISS stream.
fn executable_cache_timing(
    program: &Program,
    geometry: CacheGeometry,
    model: TimingModel,
) -> Vec<(u64, u64, u64)> {
    program
        .variants()
        .iter()
        .map(|variant| {
            let mut sim = Simulator::with_variant(program, variant).expect("variant applies");
            let mut cache = CacheSim::new(geometry);
            sim.run_with_limit(DEFAULT_STEP_LIMIT, |access| {
                cache.access(access.addr);
            })
            .expect("path runs");
            let misses = cache.stats().misses;
            (sim.steps(), misses, sim.steps() * model.cpi + misses * model.miss_penalty)
        })
        .collect()
}

fn assert_matches_executable_cache(program: &Program, geometry: CacheGeometry, model: TimingModel) {
    let estimate = estimate_wcet(program, geometry, model).expect("paths run");
    let analysed: Vec<(u64, u64, u64)> =
        estimate.per_variant.iter().map(|v| (v.instructions, v.misses, v.cycles)).collect();
    assert_eq!(
        analysed,
        executable_cache_timing(program, geometry, model),
        "{} under {geometry:?}",
        program.name()
    );
}

#[test]
fn paper_programs_time_like_the_executable_cache() {
    let programs = rtworkloads::experiment1().into_iter().chain(rtworkloads::experiment2());
    let geometries = [CacheGeometry::paper_l1(), CacheGeometry::new(64, 2, 16).expect("valid")];
    for program in programs {
        for geometry in geometries {
            assert_matches_executable_cache(&program, geometry, TimingModel::default());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random geometries of 1–8 ways, 1–64 sets and 4–64-byte lines, over
    /// small programs with data-dependent paths.
    #[test]
    fn random_geometries_time_like_the_executable_cache(
        set_log in 0u32..=6,
        ways in 1u32..=8,
        line_log in 2u32..=6,
        miss_penalty in 0u64..50,
        pick in 0usize..5,
    ) {
        let geometry = CacheGeometry::new(1 << set_log, ways, 1 << line_log).expect("valid");
        let program = match pick {
            0 => rtworkloads::edge_detection_with_dim(8),
            1 => rtworkloads::idct_with_blocks(1),
            2 => rtworkloads::ofdm_transmitter_with_points(8),
            3 => rtworkloads::context_switch(),
            _ => rtworkloads::synthetic::synthetic_task_set(1, u64::from(set_log * 8 + ways))
                .remove(0),
        };
        assert_matches_executable_cache(&program, geometry, TimingModel::with_miss_penalty(miss_penalty));
    }
}
