//! Benchmark task programs for the Tan & Mooney (DATE 2004) WCRT
//! reproduction.
//!
//! The paper evaluates two task sets on an ARM9TDMI:
//!
//! * **Experiment I** (robotics): a Mobile Robot controller (MR), an Edge
//!   Detection application with a Sobel/Cauchy operator choice (ED, the
//!   CFG of Fig. 4) and an OFDM transmitter.
//! * **Experiment II** (media): the MediaBench ADPCM coder and decoder and
//!   an MPEG-2 IDCT kernel.
//!
//! Those C binaries are not reproducible here, so this crate re-implements
//! each algorithm in the TRISC-16 ISA via
//! [`ProgramBuilder`](rtprogram::builder::ProgramBuilder), preserving what
//! the analysis actually consumes: loop structure with declared bounds,
//! input-dependent feasible paths (exposed as
//! [`InputVariant`](rtprogram::InputVariant)s), and multi-KB code+data
//! cache footprints that partially overlap between tasks in index space.
//!
//! [`synthetic`] additionally provides parameterized random task programs
//! for property tests and ablation sweeps.
//!
//! # Example
//!
//! ```
//! use rtprogram::sim::Simulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ed = rtworkloads::edge_detection();
//! assert_eq!(ed.variants().len(), 2); // Sobel and Cauchy paths
//! let mut sim = Simulator::with_variant(&ed, &ed.variants()[0])?;
//! let trace = sim.run_to_halt()?;
//! assert!(trace.instructions > 1_000);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adpcm;
mod ctxswitch;
mod edge;
mod idct;
pub mod kernels;
pub mod layout;
mod ofdm;
mod robot;
pub mod synthetic;

pub use adpcm::{
    adpcm_decoder, adpcm_encoder, reference as adpcm_reference, waveform_a, waveform_b,
    DECODER_CODES, ENCODER_SAMPLES, INDEX_TABLE, STEP_TABLE,
};
pub use ctxswitch::context_switch;
pub use edge::{
    edge_detection, edge_detection_with_dim, image_pattern, CAUCHY_KERNEL, CAUCHY_THRESHOLD, DIM,
    SOBEL_THRESHOLD,
};
pub use idct::reference as idct_reference;
pub use idct::{
    coeff_pattern, coeff_sparse, cos_table, idct, idct_with_blocks, BLOCKS, FRAME_WORDS,
};
pub use ofdm::reference as ofdm_reference;
pub use ofdm::{
    frame_a, frame_b, ofdm_transmitter, ofdm_transmitter_with_points, twiddles, POINTS, PREFIX,
    QAM_LEVELS, RING_WORDS, TWIDDLE_SCALE,
};
pub use robot::{mobile_robot, HISTORY, OBSTACLE_THRESHOLD, SENSORS, WAYPOINTS};

use rtprogram::Program;

/// The Experiment I task set in priority order `[MR, ED, OFDM]` (highest
/// priority first, matching the paper's Table I where MR has the highest
/// priority and OFDM the lowest).
pub fn experiment1() -> Vec<Program> {
    vec![mobile_robot(), edge_detection(), ofdm_transmitter()]
}

/// The Experiment II task set in priority order `[IDCT, ADPCMD, ADPCMC]`.
pub fn experiment2() -> Vec<Program> {
    vec![idct(), adpcm_decoder(), adpcm_encoder()]
}
