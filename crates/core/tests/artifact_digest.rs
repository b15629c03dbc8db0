//! Byte-identity pin for the whole analysis artifact.
//!
//! The golden `repro all` tables only see final numbers; this test hashes
//! the full `Debug` rendering of [`AnalyzedProgram::analyze`] — every
//! classified access, footprint, packed vector and skyline point — for
//! the six paper programs at the paper's 32 KB 4-way cache and at
//! 64×2×16, both with `Cmiss = 20`. Any change to what the analysis
//! stores, or to the order it stores it in, moves the digest.
//!
//! If an intended output change moves it, regenerate the constant from
//! the failure message and say why in the changelog.

use crpd::{content_hash128, AnalyzedProgram};
use rtcache::CacheGeometry;
use rtwcet::TimingModel;

/// Digest of the twelve artifacts' `Debug` renderings, in the order
/// `analyze` visits them below.
const PAPER_ARTIFACT_DIGEST: u128 = 0x9920_9f98_5c5f_22b1_75c2_8e9e_23fc_7bd7;

#[test]
fn paper_artifacts_debug_rendering_is_pinned() {
    let geometries =
        [CacheGeometry::paper_l1(), CacheGeometry::new(64, 2, 16).expect("valid geometry")];
    let programs: Vec<_> =
        rtworkloads::experiment1().into_iter().chain(rtworkloads::experiment2()).collect();
    let mut renderings = Vec::new();
    for geometry in geometries {
        for program in &programs {
            let artifact =
                AnalyzedProgram::analyze(program, geometry, TimingModel::with_miss_penalty(20))
                    .expect("paper programs analyze");
            renderings.push(format!("{artifact:?}").into_bytes());
        }
    }
    let digest = content_hash128(renderings.iter().map(Vec::as_slice));
    assert_eq!(
        digest,
        PAPER_ARTIFACT_DIGEST,
        "artifact digest moved: got {digest:#034x} over {} bytes",
        renderings.iter().map(Vec::len).sum::<usize>()
    );
}
