//! Additional benchmark kernels beyond the paper's six tasks.
//!
//! These give downstream users (and the property tests) a richer library
//! of realistic task bodies: streaming DSP (FIR), dense linear algebra
//! (matrix multiply), table-driven bit manipulation (CRC-32),
//! data-dependent addressing (histogram) and data-dependent control flow
//! with a declared worst-case bound (insertion sort). Every kernel has a
//! bit-exact Rust reference checked by the tests.

use rtprogram::builder::ProgramBuilder;
use rtprogram::isa::regs::*;
use rtprogram::isa::Cond;
use rtprogram::{InputVariant, Program};

/// Deterministic pseudo-random word stream used to fill kernel inputs.
pub fn input_stream(len: usize, seed: u32) -> Vec<i32> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            // xorshift32
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            (x & 0x7fff) as i32 - 0x4000
        })
        .collect()
}

// ---------------------------------------------------------------------------
// FIR filter
// ---------------------------------------------------------------------------

/// Reference FIR: `out[i] = Σ_t x[i+t] · h[t]`.
#[cfg(test)]
pub fn reference_fir(x: &[i32], h: &[i32]) -> Vec<i32> {
    (0..=x.len() - h.len())
        .map(|i| h.iter().enumerate().map(|(t, c)| c.wrapping_mul(x[i + t])).sum())
        .collect()
}

/// Builds a FIR filter task: `outputs` output samples through `taps`
/// coefficients.
///
/// # Panics
///
/// Panics if `taps == 0` or `outputs == 0`.
pub fn fir_filter(code_base: u64, data_base: u64, taps: usize, outputs: usize) -> Program {
    assert!(taps > 0 && outputs > 0, "fir needs taps and outputs");
    let mut b = ProgramBuilder::new("fir", code_base, data_base);
    let x = b.data_words("x", &input_stream(outputs + taps - 1, 0xF1));
    let h = b.data_words("h", &input_stream(taps, 0x11).iter().map(|v| v % 16).collect::<Vec<_>>());
    let out = b.data_space("out", outputs);

    b.li_addr(R10, x);
    b.li_addr(R12, out);
    b.counted_loop(outputs as u32, R2, |b| {
        b.li(R4, 0); // acc
        b.add(R6, R10, R0);
        b.li_addr(R7, h);
        b.counted_loop(taps as u32, R3, |b| {
            b.ld(R8, R6, 0);
            b.ld(R9, R7, 0);
            b.mul(R8, R8, R9);
            b.add(R4, R4, R8);
            b.addi(R6, R6, 4);
            b.addi(R7, R7, 4);
        });
        b.st(R4, R12, 0);
        b.addi(R10, R10, 4);
        b.addi(R12, R12, 4);
    });
    b.build().expect("fir is well formed")
}

// ---------------------------------------------------------------------------
// Matrix multiply
// ---------------------------------------------------------------------------

/// Reference `n×n` matrix product (row-major, wrapping).
#[cfg(test)]
pub fn reference_matmul(a: &[i32], bm: &[i32], n: usize) -> Vec<i32> {
    let mut c = vec![0i32; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0i32;
            for k in 0..n {
                acc = acc.wrapping_add(a[i * n + k].wrapping_mul(bm[k * n + j]));
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Builds an `n×n` integer matrix-multiply task.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn matrix_multiply(code_base: u64, data_base: u64, n: usize) -> Program {
    assert!(n > 0, "matrix must be non-empty");
    let mut b = ProgramBuilder::new("matmul", code_base, data_base);
    let a =
        b.data_words("a", &input_stream(n * n, 0xA1).iter().map(|v| v % 100).collect::<Vec<_>>());
    let bm =
        b.data_words("b", &input_stream(n * n, 0xB2).iter().map(|v| v % 100).collect::<Vec<_>>());
    let c = b.data_space("c", n * n);
    let row_bytes = 4 * n as i32;

    b.li(R15, 2);
    b.li_addr(R12, c);
    b.li_addr(R13, a); // row pointer of A
    b.counted_loop(n as u32, R2, |b| {
        b.li_addr(R14, bm); // column start of B for j sweep
        b.counted_loop(n as u32, R3, |b| {
            b.li(R10, 0); // acc
            b.add(R6, R13, R0); // a[i][0], stride 4
            b.add(R7, R14, R0); // b[0][j], stride 4n
            b.counted_loop(n as u32, R5, |b| {
                b.ld(R8, R6, 0);
                b.ld(R9, R7, 0);
                b.mul(R8, R8, R9);
                b.add(R10, R10, R8);
                b.addi(R6, R6, 4);
                b.addi(R7, R7, row_bytes);
            });
            b.st(R10, R12, 0);
            b.addi(R12, R12, 4);
            b.addi(R14, R14, 4);
        });
        b.addi(R13, R13, row_bytes);
    });
    b.build().expect("matmul is well formed")
}

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

/// The CRC-32 (IEEE, reflected) lookup table.
pub fn crc32_table() -> Vec<i32> {
    (0..256u32)
        .map(|i| {
            let mut c = i;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            c as i32
        })
        .collect()
}

/// Reference CRC-32 over the little-endian bytes of `words`.
#[cfg(test)]
pub fn reference_crc32(words: &[i32]) -> u32 {
    let table = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for w in words {
        for byte in (*w as u32).to_le_bytes() {
            crc = (crc >> 8) ^ table[((crc ^ u32::from(byte)) & 0xFF) as usize] as u32;
        }
    }
    !crc
}

/// Builds a table-driven CRC-32 task over `words` input words.
///
/// # Panics
///
/// Panics if `words == 0`.
pub fn crc32(code_base: u64, data_base: u64, words: usize) -> Program {
    assert!(words > 0, "crc needs input");
    let mut b = ProgramBuilder::new("crc32", code_base, data_base);
    let input = b.data_words("input", &input_stream(words, 0xC3));
    let table = b.data_words("table", &crc32_table());
    let result = b.data_space("result", 1);

    b.li(R15, 2);
    b.li_addr(R10, input);
    b.li_addr(R11, table);
    b.li(R12, -1); // crc = 0xFFFF_FFFF
    b.li(R13, 0xFF);
    b.counted_loop(words as u32, R2, |b| {
        b.ld(R4, R10, 0); // word
        b.addi(R10, R10, 4);
        // Four bytes, little endian.
        b.counted_loop(4, R3, |b| {
            b.xor(R5, R12, R4); // crc ^ byte (low 8 bits matter)
            b.and(R5, R5, R13);
            b.shl(R5, R5, R15);
            b.add(R5, R11, R5);
            b.ld(R5, R5, 0); // table[(crc ^ b) & 0xff]
                             // crc = (crc >> 8) logical: arithmetic shift then mask.
            b.li(R6, 8);
            b.sra(R7, R12, R6);
            b.li(R6, 0x00FF_FFFF);
            b.and(R7, R7, R6);
            b.xor(R12, R7, R5);
            // next byte of the word
            b.li(R6, 8);
            b.sra(R4, R4, R6);
        });
    });
    b.li(R5, -1);
    b.xor(R12, R12, R5); // !crc
    b.li_addr(R6, result);
    b.st(R12, R6, 0);
    b.build().expect("crc32 is well formed")
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Reference histogram: `bins` power-of-two buckets over bits `[shift,
/// shift + log2(bins))` of each sample.
#[cfg(test)]
pub fn reference_histogram(samples: &[i32], bins: usize, shift: u32) -> Vec<i32> {
    let mut hist = vec![0i32; bins];
    for s in samples {
        let bin = ((*s as u32) >> shift) as usize & (bins - 1);
        hist[bin] += 1;
    }
    hist
}

/// Builds a histogram task: `samples` inputs into `bins` (power of two)
/// buckets. The store addresses are data-dependent — the stress case for
/// useful-block analysis.
///
/// # Panics
///
/// Panics if `bins` is not a power of two or `samples == 0`.
pub fn histogram(code_base: u64, data_base: u64, samples: usize, bins: usize) -> Program {
    assert!(bins.is_power_of_two() && bins > 0, "bins must be a power of two");
    assert!(samples > 0, "histogram needs samples");
    const SHIFT: i32 = 3;
    let mut b = ProgramBuilder::new("histogram", code_base, data_base);
    let input = b.data_words("input", &input_stream(samples, 0x87));
    let hist = b.data_space("hist", bins);

    b.li(R15, 2);
    b.li_addr(R10, input);
    b.li_addr(R11, hist);
    b.li(R13, bins as i32 - 1);
    b.li(R14, SHIFT);
    b.counted_loop(samples as u32, R2, |b| {
        b.ld(R4, R10, 0);
        b.addi(R10, R10, 4);
        b.sra(R4, R4, R14);
        b.and(R4, R4, R13); // bin
        b.shl(R4, R4, R15);
        b.add(R4, R11, R4);
        b.ld(R5, R4, 0);
        b.addi(R5, R5, 1);
        b.st(R5, R4, 0);
    });
    b.build().expect("histogram is well formed")
}

/// The shift the histogram kernel applies before binning (exposed so the
/// reference can match).
pub const HISTOGRAM_SHIFT: u32 = 3;

// ---------------------------------------------------------------------------
// Insertion sort
// ---------------------------------------------------------------------------

/// Builds an insertion-sort task over `n` words, with hand-rolled
/// data-dependent loops carrying worst-case `.bound` annotations.
///
/// Variants: `"scrambled"` (pseudo-random input) and `"sorted"` (already
/// ascending — the best-case path).
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn insertion_sort(code_base: u64, data_base: u64, n: usize) -> Program {
    assert!(n >= 2, "sorting needs at least two elements");
    let mut b = ProgramBuilder::new("isort", code_base, data_base);
    let scrambled = input_stream(n, 0x51);
    let arr = b.data_words("arr", &scrambled);
    let mut sorted = scrambled.clone();
    sorted.sort_unstable();
    let mut v = InputVariant::named("sorted");
    for (i, value) in sorted.iter().enumerate() {
        v = v.with_write(arr + 4 * i as u64, *value);
    }
    b.variant(InputVariant::named("scrambled"));
    b.variant(v);

    // for i in 1..n: j = i; while j > 0 && arr[j-1] > arr[j]: swap; j -= 1
    b.li_addr(R10, arr);
    b.li(R2, 1); // i
    b.li(R11, n as i32);
    let outer = b.new_label();
    b.place(outer);
    b.declare_loop_bound(outer, (n - 1) as u32);
    {
        // j-pointer = arr + 4*i
        b.li(R15, 2);
        b.shl(R4, R2, R15);
        b.add(R4, R10, R4); // &arr[j]
        let inner = b.new_label();
        let done = b.new_label();
        b.place(inner);
        b.declare_loop_bound(inner, (n - 1) as u32);
        // stop when j == 0 (pointer back at arr)
        b.branch(Cond::Eq, R4, R10, done);
        b.ld(R5, R4, -4); // arr[j-1]
        b.ld(R6, R4, 0); // arr[j]
                         // if arr[j-1] <= arr[j]: done
        b.branch(Cond::Ge, R6, R5, done);
        b.st(R5, R4, 0); // swap
        b.st(R6, R4, -4);
        b.addi(R4, R4, -4);
        b.jump(inner);
        b.place(done);
    }
    b.addi(R2, R2, 1);
    let out_label = b.new_label();
    b.place(out_label);
    b.branch(Cond::Lt, R2, R11, outer);

    b.build().expect("insertion sort is well formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtprogram::Simulator;

    const CODE: u64 = 0x0005_0000;
    const DATA: u64 = 0x0030_0000;

    fn read_words(sim: &Simulator<'_>, base: u64, n: usize) -> Vec<i32> {
        (0..n as u64).map(|i| sim.memory().read(base + 4 * i).unwrap()).collect()
    }

    #[test]
    fn fir_matches_reference() {
        let p = fir_filter(CODE, DATA, 8, 24);
        let mut sim = Simulator::new(&p);
        sim.run_to_halt().unwrap();
        let x = input_stream(24 + 7, 0xF1);
        let h: Vec<i32> = input_stream(8, 0x11).iter().map(|v| v % 16).collect();
        assert_eq!(read_words(&sim, p.symbol("out").unwrap(), 24), reference_fir(&x, &h));
    }

    #[test]
    fn matmul_matches_reference() {
        let n = 6;
        let p = matrix_multiply(CODE, DATA, n);
        let mut sim = Simulator::new(&p);
        sim.run_to_halt().unwrap();
        let a: Vec<i32> = input_stream(n * n, 0xA1).iter().map(|v| v % 100).collect();
        let bm: Vec<i32> = input_stream(n * n, 0xB2).iter().map(|v| v % 100).collect();
        assert_eq!(read_words(&sim, p.symbol("c").unwrap(), n * n), reference_matmul(&a, &bm, n));
    }

    #[test]
    fn crc32_matches_reference() {
        let p = crc32(CODE, DATA, 40);
        let mut sim = Simulator::new(&p);
        sim.run_to_halt().unwrap();
        let got = sim.memory().read(p.symbol("result").unwrap()).unwrap() as u32;
        assert_eq!(got, reference_crc32(&input_stream(40, 0xC3)));
    }

    #[test]
    fn crc32_of_known_vector() {
        // "1234" little-endian in one word: CRC-32("...") cross-checked
        // against the reference implementation only (the kernel hashes
        // word streams, not strings).
        let w = [i32::from_le_bytes(*b"1234")];
        assert_eq!(reference_crc32(&w), {
            // classic check value for ASCII "1234"
            0x9BE3_E0A3
        });
    }

    #[test]
    fn histogram_matches_reference() {
        let p = histogram(CODE, DATA, 100, 16);
        let mut sim = Simulator::new(&p);
        sim.run_to_halt().unwrap();
        let got = read_words(&sim, p.symbol("hist").unwrap(), 16);
        assert_eq!(got, reference_histogram(&input_stream(100, 0x87), 16, HISTOGRAM_SHIFT));
        assert_eq!(got.iter().sum::<i32>(), 100, "every sample lands in a bin");
    }

    #[test]
    fn insertion_sort_sorts_both_variants() {
        let n = 24;
        let p = insertion_sort(CODE, DATA, n);
        let mut expect = input_stream(n, 0x51);
        expect.sort_unstable();
        for variant in p.variants().to_vec() {
            let mut sim = Simulator::with_variant(&p, &variant).unwrap();
            sim.run_to_halt().unwrap();
            assert_eq!(
                read_words(&sim, p.symbol("arr").unwrap(), n),
                expect,
                "variant {}",
                variant.name
            );
        }
    }

    #[test]
    fn sorted_input_is_the_short_path() {
        let p = insertion_sort(CODE, DATA, 24);
        let mut scrambled = Simulator::with_variant(&p, &p.variants()[0].clone()).unwrap();
        let ts = scrambled.run_to_halt().unwrap();
        let mut sorted = Simulator::with_variant(&p, &p.variants()[1].clone()).unwrap();
        let tb = sorted.run_to_halt().unwrap();
        assert!(tb.instructions < ts.instructions, "best case must be cheaper");
    }

    #[test]
    fn kernels_declare_loop_bounds() {
        assert_eq!(fir_filter(CODE, DATA, 4, 8).loop_bounds().len(), 2);
        assert_eq!(matrix_multiply(CODE, DATA, 4).loop_bounds().len(), 3);
        assert_eq!(crc32(CODE, DATA, 8).loop_bounds().len(), 2);
        assert_eq!(histogram(CODE, DATA, 8, 8).loop_bounds().len(), 1);
        assert_eq!(insertion_sort(CODE, DATA, 8).loop_bounds().len(), 2);
    }

    #[test]
    fn input_stream_is_deterministic_and_bounded() {
        assert_eq!(input_stream(50, 7), input_stream(50, 7));
        assert_ne!(input_stream(50, 7), input_stream(50, 8));
        assert!(input_stream(1000, 3).iter().all(|v| (-0x4000..0x4000).contains(v)));
    }
}
