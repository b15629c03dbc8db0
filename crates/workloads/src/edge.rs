//! ED — the Edge Detection task (paper Example 5 / Fig. 4, Experiment I).
//!
//! The program selects one of two convolution operators from an input
//! word — the Sobel pair or a Cauchy-style kernel — giving exactly the
//! two-feasible-path CFG of the paper's Fig. 4: only one of the two
//! operator SFP-Prs executes per run, and the two arms touch different
//! memory (the Cauchy arm reads kernel and offset tables the Sobel arm
//! never references).

use rtprogram::builder::ProgramBuilder;
use rtprogram::isa::regs::*;
use rtprogram::isa::Cond;
use rtprogram::{InputVariant, Program};

use crate::layout;

/// Default image dimension (DIM × DIM pixels).
pub const DIM: usize = 24;
/// Sobel magnitude threshold.
pub const SOBEL_THRESHOLD: i32 = 300;
/// Cauchy response threshold (on the normalized 0–255 scale).
pub const CAUCHY_THRESHOLD: i32 = 60;
/// The Cauchy-style 3×3 kernel.
pub const CAUCHY_KERNEL: [i32; 9] = [1, 2, 1, 2, -12, 2, 1, 2, 1];

/// The Cauchy response-normalization lookup table (compresses the raw
/// convolution response to 0–255). The table lives in data memory, so the
/// Cauchy path's footprint differs from the Sobel path's by a full KiB —
/// the property the paper's path analysis (Fig. 4 / Example 5) exploits.
pub fn cauchy_norm_table() -> Vec<i32> {
    (0..256i32).map(|i| (255.0 * (f64::from(i) / 255.0).sqrt()).round() as i32).collect()
}

/// Deterministic test image: a dark/bright vertical step plus texture.
pub fn image_pattern(dim: usize) -> Vec<i32> {
    (0..dim * dim)
        .map(|i| {
            let (y, x) = (i / dim, i % dim);
            let base = if x < dim / 2 { 20 } else { 200 };
            base + ((x * 7 + y * 13) % 17) as i32
        })
        .collect()
}

/// Reference Sobel pass (used by tests and documented in EXPERIMENTS.md).
#[cfg(test)]
pub fn reference_sobel(img: &[i32], dim: usize) -> Vec<i32> {
    let mut out = vec![0; dim * dim];
    let p = |y: usize, x: usize| img[y * dim + x];
    for y in 1..dim - 1 {
        for x in 1..dim - 1 {
            let gx = (p(y - 1, x + 1) + 2 * p(y, x + 1) + p(y + 1, x + 1))
                - (p(y - 1, x - 1) + 2 * p(y, x - 1) + p(y + 1, x - 1));
            let gy = (p(y + 1, x - 1) + 2 * p(y + 1, x) + p(y + 1, x + 1))
                - (p(y - 1, x - 1) + 2 * p(y - 1, x) + p(y - 1, x + 1));
            out[y * dim + x] = if gx.abs() + gy.abs() >= SOBEL_THRESHOLD { 255 } else { 0 };
        }
    }
    out
}

/// Reference Cauchy pass.
#[cfg(test)]
pub fn reference_cauchy(img: &[i32], dim: usize) -> Vec<i32> {
    let norm = cauchy_norm_table();
    let mut out = vec![0; dim * dim];
    for y in 1..dim - 1 {
        for x in 1..dim - 1 {
            let mut acc = 0i32;
            for (t, k) in CAUCHY_KERNEL.iter().enumerate() {
                let (dy, dx) = ((t / 3) as isize - 1, (t % 3) as isize - 1);
                let pix = img[(y as isize + dy) as usize * dim + (x as isize + dx) as usize];
                acc += k * pix;
            }
            let scaled = acc.abs() >> 2;
            let idx = (scaled >> 3).min(255);
            out[y * dim + x] = if norm[idx as usize] >= CAUCHY_THRESHOLD { 255 } else { 0 };
        }
    }
    out
}

/// Builds the ED task with the default [`DIM`].
pub fn edge_detection() -> Program {
    edge_detection_with_dim(DIM)
}

/// Builds the ED task over a `dim × dim` image.
///
/// Variants: `"sobel"` (operator word 0) and `"cauchy"` (operator word 1),
/// the two feasible paths of Fig. 4.
///
/// # Panics
///
/// Panics if `dim < 3`.
pub fn edge_detection_with_dim(dim: usize) -> Program {
    assert!(dim >= 3, "edge detection needs at least a 3x3 image");
    let d = dim as i32;
    let mut b = ProgramBuilder::new("ed", layout::ED_CODE, layout::ED_DATA);

    let operator = b.data_words("operator", &[0]);
    let img = b.data_words("img", &image_pattern(dim));
    let out = b.data_space("out", dim * dim);
    // Byte offsets of the 3x3 neighborhood around a center pointer.
    let neighborhood: Vec<i32> = (0..9)
        .map(|t| {
            let (dy, dx) = ((t / 3) - 1, (t % 3) - 1);
            4 * (dy * d + dx)
        })
        .collect();
    let coff = b.data_words("coff", &neighborhood);
    let ck = b.data_words("ck", &CAUCHY_KERNEL);
    let cnorm = b.data_words("cnorm", &cauchy_norm_table());

    b.variant(InputVariant::named("sobel").with_write(operator, 0));
    b.variant(InputVariant::named("cauchy").with_write(operator, 1));

    // Shared constants.
    b.li_addr(R12, img);
    b.li_addr(R13, out);
    b.li(R14, d);
    b.li(R15, 2);

    let off = |dy: i32, dx: i32| 4 * (dy * d + dx);
    let interior = (dim - 2) as u32;

    b.li_addr(R4, operator);
    b.ld(R4, R4, 0);
    b.if_else(
        Cond::Eq,
        R4,
        R0,
        // ---- Sobel arm (v3 of Fig. 4) -----------------------------------
        |b| {
            b.counted_loop(interior, R2, |b| {
                b.counted_loop(interior, R3, |b| {
                    // center = img + 4 * (y*dim + x); y = R2, x = R3 (both
                    // run dim-2 ..= 1, exactly the interior).
                    b.mul(R5, R2, R14);
                    b.add(R5, R5, R3);
                    b.shl(R5, R5, R15);
                    b.add(R4, R12, R5);
                    // gx
                    b.ld(R7, R4, off(-1, 1));
                    b.ld(R9, R4, off(0, 1));
                    b.add(R9, R9, R9);
                    b.add(R7, R7, R9);
                    b.ld(R9, R4, off(1, 1));
                    b.add(R7, R7, R9);
                    b.ld(R9, R4, off(-1, -1));
                    b.sub(R7, R7, R9);
                    b.ld(R9, R4, off(0, -1));
                    b.add(R9, R9, R9);
                    b.sub(R7, R7, R9);
                    b.ld(R9, R4, off(1, -1));
                    b.sub(R7, R7, R9);
                    // gy
                    b.ld(R8, R4, off(1, -1));
                    b.ld(R9, R4, off(1, 0));
                    b.add(R9, R9, R9);
                    b.add(R8, R8, R9);
                    b.ld(R9, R4, off(1, 1));
                    b.add(R8, R8, R9);
                    b.ld(R9, R4, off(-1, -1));
                    b.sub(R8, R8, R9);
                    b.ld(R9, R4, off(-1, 0));
                    b.add(R9, R9, R9);
                    b.sub(R8, R8, R9);
                    b.ld(R9, R4, off(-1, 1));
                    b.sub(R8, R8, R9);
                    // |gx| + |gy| vs threshold
                    b.if_then(Cond::Lt, R7, R0, |b| b.sub(R7, R0, R7));
                    b.if_then(Cond::Lt, R8, R0, |b| b.sub(R8, R0, R8));
                    b.add(R7, R7, R8);
                    b.li(R9, SOBEL_THRESHOLD);
                    b.add(R6, R13, R5);
                    b.if_else(
                        Cond::Ge,
                        R7,
                        R9,
                        |b| {
                            b.li(R9, 255);
                            b.st(R9, R6, 0);
                        },
                        |b| b.st(R0, R6, 0),
                    );
                });
            });
        },
        // ---- Cauchy arm (v4 of Fig. 4) ----------------------------------
        |b| {
            b.li_addr(R10, coff);
            b.li_addr(R11, ck);
            b.counted_loop(interior, R2, |b| {
                b.counted_loop(interior, R3, |b| {
                    b.mul(R5, R2, R14);
                    b.add(R5, R5, R3);
                    b.shl(R5, R5, R15);
                    b.add(R4, R12, R5);
                    b.li(R7, 0); // acc
                    b.counted_loop(9, R1, |b| {
                        b.addi(R9, R1, -1); // tap index 8..0
                        b.shl(R9, R9, R15);
                        b.add(R8, R10, R9);
                        b.ld(R8, R8, 0); // neighborhood byte offset
                        b.add(R8, R4, R8);
                        b.ld(R6, R8, 0); // pixel
                        b.add(R8, R11, R9);
                        b.ld(R8, R8, 0); // kernel coefficient
                        b.mul(R6, R6, R8);
                        b.add(R7, R7, R6);
                    });
                    b.if_then(Cond::Lt, R7, R0, |b| b.sub(R7, R0, R7));
                    b.sra(R7, R7, R15); // scale by >>2
                                        // normalize through the LUT: cnorm[min(acc >> 3, 255)]
                    b.li(R9, 3);
                    b.sra(R8, R7, R9);
                    b.li(R9, 255);
                    b.if_then(Cond::Lt, R9, R8, |b| b.add(R8, R9, R0));
                    b.shl(R8, R8, R15);
                    b.li_addr(R9, cnorm);
                    b.add(R8, R8, R9);
                    b.ld(R7, R8, 0);
                    b.li(R9, CAUCHY_THRESHOLD);
                    b.add(R6, R13, R5);
                    b.if_else(
                        Cond::Ge,
                        R7,
                        R9,
                        |b| {
                            b.li(R9, 255);
                            b.st(R9, R6, 0);
                        },
                        |b| b.st(R0, R6, 0),
                    );
                });
            });
        },
    );

    b.build().expect("ED program is well formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtprogram::Simulator;

    fn run_variant(idx: usize, dim: usize) -> Vec<i32> {
        let p = edge_detection_with_dim(dim);
        let variant = p.variants()[idx].clone();
        let mut sim = Simulator::with_variant(&p, &variant).unwrap();
        sim.run_to_halt().unwrap();
        let out = p.symbol("out").unwrap();
        (0..(dim * dim) as u64).map(|i| sim.memory().read(out + 4 * i).unwrap()).collect()
    }

    #[test]
    fn sobel_matches_reference() {
        let dim = 12; // smaller image keeps the test quick
        let got = run_variant(0, dim);
        let expect = reference_sobel(&image_pattern(dim), dim);
        assert_eq!(got, expect);
    }

    #[test]
    fn cauchy_matches_reference() {
        let dim = 12;
        let got = run_variant(1, dim);
        let expect = reference_cauchy(&image_pattern(dim), dim);
        assert_eq!(got, expect);
    }

    #[test]
    fn detects_the_vertical_step_edge() {
        let dim = 12;
        let out = run_variant(0, dim);
        // The bright/dark step at x = dim/2 must light up.
        let hits = (1..dim - 1).filter(|y| out[y * dim + dim / 2] == 255).count();
        assert_eq!(hits, dim - 2, "every interior row crosses the step");
        // Borders are untouched.
        assert!(out.iter().take(dim).all(|v| *v == 0));
    }

    #[test]
    fn arms_differ_in_memory_footprint() {
        // The cauchy arm must touch the kernel tables; the sobel arm must
        // not.
        let p = edge_detection_with_dim(8);
        let ck = p.symbol("ck").unwrap();
        for (idx, expect_touch) in [(0usize, false), (1usize, true)] {
            let variant = p.variants()[idx].clone();
            let mut sim = Simulator::with_variant(&p, &variant).unwrap();
            let trace = sim.run_to_halt().unwrap();
            let touched = trace.accesses.iter().any(|a| a.addr >= ck && a.addr < ck + 36);
            assert_eq!(touched, expect_touch, "variant {idx}");
        }
    }

    #[test]
    fn cauchy_is_the_longer_path() {
        let p = edge_detection_with_dim(8);
        let mut sobel = Simulator::with_variant(&p, &p.variants()[0].clone()).unwrap();
        let ts = sobel.run_to_halt().unwrap();
        let mut cauchy = Simulator::with_variant(&p, &p.variants()[1].clone()).unwrap();
        let tc = cauchy.run_to_halt().unwrap();
        assert!(tc.instructions > ts.instructions);
    }

    #[test]
    #[should_panic(expected = "at least a 3x3")]
    fn tiny_image_rejected() {
        let _ = edge_detection_with_dim(2);
    }

    #[test]
    fn default_dim_runs() {
        let p = edge_detection();
        let mut sim = Simulator::new(&p);
        let trace = sim.run_to_halt().unwrap();
        assert!(trace.instructions > 10_000);
    }
}
