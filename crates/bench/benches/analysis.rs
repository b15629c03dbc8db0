//! Criterion benches for the analysis pipeline: CIIP construction and
//! bounds, useful-block sweeps (exact and dataflow), whole-task analysis
//! and the WCRT recurrence.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use crpd::{dataflow_useful, reload_lines, CrpdApproach, CrpdMatrix, UsefulTrace};
use crpd::{AnalyzedTask, TaskParams, WcrtParams};
use rtcache::{CacheGeometry, Ciip, MemoryBlock, PackedFootprint};
use rtwcet::TimingModel;

fn geometry() -> CacheGeometry {
    CacheGeometry::paper_l1()
}

fn analyzed(program: &rtprogram::Program, priority: u32) -> AnalyzedTask {
    AnalyzedTask::analyze(
        program,
        TaskParams { period: 10_000_000, priority },
        geometry(),
        TimingModel::default(),
    )
    .expect("workload analyzes")
}

fn bench_ciip(c: &mut Criterion) {
    let g = geometry();
    let blocks: Vec<MemoryBlock> = (0..2048u64).map(|i| MemoryBlock::new(i * 7 % 4096)).collect();
    c.bench_function("ciip/from_blocks_2048", |b| {
        b.iter(|| Ciip::from_blocks(g, black_box(&blocks).iter().copied()))
    });
    let a = Ciip::from_blocks(g, blocks.iter().copied());
    let b2 = Ciip::from_blocks(g, (0..1024u64).map(|i| MemoryBlock::new(i * 13 % 4096)));
    c.bench_function("ciip/overlap_bound", |b| {
        b.iter(|| black_box(&a).overlap_bound(black_box(&b2)))
    });
    let pa = PackedFootprint::from_ciip(&a).expect("paper geometry packs");
    let pb = PackedFootprint::from_ciip(&b2).expect("paper geometry packs");
    c.bench_function("ciip/overlap_bound_packed", |b| {
        b.iter(|| black_box(&pa).overlap_bound(black_box(&pb)))
    });
    c.bench_function("ciip/pack", |b| b.iter(|| PackedFootprint::from_ciip(black_box(&a))));
    c.bench_function("ciip/line_bound", |b| b.iter(|| black_box(&a).line_bound()));
}

fn bench_useful(c: &mut Criterion) {
    let g = geometry();
    let program = rtworkloads::edge_detection_with_dim(16);
    let trace = rtprogram::sim::trace_variant(&program, &program.variants()[1]).expect("runs");
    c.bench_function("useful/from_trace_ed16", |b| {
        b.iter(|| UsefulTrace::from_trace(black_box(&trace), g))
    });
    let ut = UsefulTrace::from_trace(&trace, g);
    c.bench_function("useful/max_line_bound", |b| b.iter(|| black_box(&ut).max_line_bound()));
    let mb = Ciip::from_blocks(g, (0..512u64).map(MemoryBlock::new));
    c.bench_function("useful/max_overlap_bound", |b| {
        b.iter(|| black_box(&ut).max_overlap_bound(black_box(&mb)))
    });
    let packed_mb = PackedFootprint::from_ciip(&mb).expect("paper geometry packs");
    c.bench_function("useful/max_packed_overlap", |b| {
        b.iter(|| black_box(&ut).max_packed_overlap(black_box(&packed_mb)))
    });
    c.bench_function("useful/dataflow_ed16", |b| {
        b.iter(|| dataflow_useful(black_box(&program), g).expect("analyzes"))
    });
}

fn bench_task_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("task_analysis");
    for dim in [8usize, 12, 16] {
        let program = rtworkloads::edge_detection_with_dim(dim);
        group.bench_with_input(BenchmarkId::new("ed", dim), &program, |b, p| {
            b.iter(|| analyzed(black_box(p), 3))
        });
    }
    group.finish();
}

fn bench_approaches_and_wcrt(c: &mut Criterion) {
    let mr = analyzed(&rtworkloads::mobile_robot(), 2);
    let ed = analyzed(&rtworkloads::edge_detection_with_dim(12), 3);
    let mut group = c.benchmark_group("reload_lines");
    for approach in CrpdApproach::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(approach.label()), &approach, |b, a| {
            b.iter(|| reload_lines(*a, black_box(&ed), black_box(&mr)))
        });
    }
    group.finish();

    let tasks = vec![mr, ed];
    let matrix = CrpdMatrix::compute(CrpdApproach::Combined, &tasks);
    let params = WcrtParams { miss_penalty: 20, ctx_switch: 400, max_iterations: 10_000 };
    c.bench_function("wcrt/analyze_all", |b| {
        b.iter(|| crpd::analyze_all(black_box(&tasks), black_box(&matrix), &params))
    });
}

fn bench_kernels(c: &mut Criterion) {
    use rtworkloads::kernels;
    let mut group = c.benchmark_group("kernel_analysis");
    for (name, program) in [
        ("fir", kernels::fir_filter(0x0005_0000, 0x0030_0000, 8, 32)),
        ("matmul", kernels::matrix_multiply(0x0005_4000, 0x0030_0000, 8)),
        ("crc32", kernels::crc32(0x0005_8000, 0x0030_0000, 64)),
        ("histogram", kernels::histogram(0x0005_c000, 0x0030_0000, 128, 16)),
        ("isort", kernels::insertion_sort(0x0006_0000, 0x0030_0000, 32)),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &program, |b, p| {
            b.iter(|| analyzed(black_box(p), 2))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ciip,
    bench_useful,
    bench_task_analysis,
    bench_approaches_and_wcrt,
    bench_kernels
);
criterion_main!(benches);
