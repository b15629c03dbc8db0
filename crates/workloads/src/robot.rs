//! MR — the Mobile Robot control task (paper Example 1, Experiment I).
//!
//! Every activation fuses a 128-entry sensor ring into a position
//! estimate, runs a PID controller toward a target, scans for obstacles
//! (the input-dependent branch exposed as two variants), maintains and
//! smooths a long position history and picks the nearest waypoint from a
//! large table. Its footprint is several KiB — like the paper's MR, a
//! sizeable slice of the 32 KiB L1.

use rtprogram::builder::ProgramBuilder;
use rtprogram::isa::regs::*;
use rtprogram::isa::Cond;
use rtprogram::{InputVariant, Program};

use crate::layout;

/// Number of sensors fused per activation.
pub const SENSORS: u32 = 128;
/// Length of the rolling position history.
pub const HISTORY: u32 = 384;
/// Number of candidate waypoints scanned.
pub const WAYPOINTS: u32 = 256;
/// Obstacle threshold: a sensor reading below this triggers avoidance.
pub const OBSTACLE_THRESHOLD: i32 = 10;

/// Deterministic sensor initialization (all readings comfortably above the
/// obstacle threshold).
fn sensor_pattern() -> Vec<i32> {
    (0..SENSORS as i64).map(|i| (100 + (i * 37) % 64) as i32).collect()
}

/// Reference fused position for the default sensor pattern (used by
/// tests).
#[cfg(test)]
pub fn reference_position(sensors: &[i32]) -> i32 {
    let acc: i64 = sensors
        .iter()
        .enumerate()
        .map(|(i, s)| i64::from(*s) * i64::from(1 + (i as i32 % 4)))
        .sum();
    (acc >> 6) as i32
}

/// Builds the MR task program.
///
/// Variants: `"clear"` (no obstacle, avoidance arm skipped) and
/// `"obstacle"` (sensor 13 reads below [`OBSTACLE_THRESHOLD`], avoidance
/// arm taken).
pub fn mobile_robot() -> Program {
    let mut b = ProgramBuilder::new("mr", layout::MR_CODE, layout::MR_DATA);

    let sensors = b.data_words("sensors", &sensor_pattern());
    let weights =
        b.data_words("weights", &(0..SENSORS as i32).map(|i| 1 + (i % 4)).collect::<Vec<_>>());
    let history = b.data_space("history", HISTORY as usize);
    let smooth = b.data_space("smooth", HISTORY as usize);
    let waypoints = b.data_words(
        "waypoints",
        &(0..WAYPOINTS as i64).map(|i| ((i * 53) % 256) as i32).collect::<Vec<_>>(),
    );
    // gains: Kp, Ki, Kd, output shift
    let gains = b.data_words("gains", &[6, 2, 3, 4]);
    // state: prev_err, integral, pos, target
    let state = b.data_words("state", &[0, 0, 0, 500]);
    let actuators = b.data_space("actuators", 4);

    b.variant(InputVariant::named("clear"));
    b.variant(InputVariant::named("obstacle").with_write(sensors + 13 * 4, 3));

    // ---- 1. weighted sensor fusion: pos = (Σ sensors[i] * weights[i]) >> 6
    b.li_addr(R1, sensors);
    b.li_addr(R2, weights);
    b.li(R4, 0); // acc
    b.counted_loop(SENSORS, R3, |b| {
        b.ld(R5, R1, 0);
        b.ld(R6, R2, 0);
        b.mul(R5, R5, R6);
        b.add(R4, R4, R5);
        b.addi(R1, R1, 4);
        b.addi(R2, R2, 4);
    });
    b.li(R5, 6);
    b.sra(R8, R4, R5); // R8 = pos

    // ---- 2. PID toward state.target
    b.li_addr(R12, state);
    b.ld(R9, R12, 12); // target
    b.sub(R9, R9, R8); // R9 = error
    b.li_addr(R11, gains);
    b.ld(R5, R11, 0); // Kp
    b.mul(R5, R5, R9); // p-term
    b.ld(R6, R12, 4); // integral
    b.add(R6, R6, R9);
    b.st(R6, R12, 4); // integral += error
    b.ld(R7, R11, 4); // Ki
    b.mul(R6, R6, R7); // i-term
    b.ld(R7, R12, 0); // prev_err
    b.sub(R7, R9, R7); // error delta
    b.ld(R10, R11, 8); // Kd
    b.mul(R7, R7, R10); // d-term
    b.st(R9, R12, 0); // prev_err = error
    b.add(R5, R5, R6);
    b.add(R5, R5, R7);
    b.ld(R6, R11, 12); // output shift
    b.sra(R5, R5, R6); // control output
    b.li_addr(R10, actuators);
    b.st(R5, R10, 0);
    b.st(R8, R12, 8); // state.pos = pos

    // ---- 3. obstacle scan: min sensor reading, avoidance branch
    b.li_addr(R1, sensors);
    b.li(R10, i32::MAX);
    b.counted_loop(SENSORS, R3, |b| {
        b.ld(R5, R1, 0);
        b.if_then(Cond::Lt, R5, R10, |b| {
            b.add(R10, R5, R0);
        });
        b.addi(R1, R1, 4);
    });
    b.li(R5, OBSTACLE_THRESHOLD);
    b.li_addr(R6, actuators);
    b.if_else(
        Cond::Lt,
        R10,
        R5,
        |b| {
            // Avoidance: flag actuator 3 and bias actuator 1 away.
            b.li(R7, 1);
            b.st(R7, R6, 12);
            b.sub(R7, R0, R8);
            b.st(R7, R6, 4);
        },
        |b| {
            b.st(R0, R6, 12);
            b.st(R8, R6, 4);
        },
    );

    // ---- 4. rolling history: shift one slot, insert pos at the front
    b.li_addr(R1, history + 4 * (HISTORY as u64 - 1));
    b.counted_loop(HISTORY - 1, R3, |b| {
        b.ld(R5, R1, -4);
        b.st(R5, R1, 0);
        b.addi(R1, R1, -4);
    });
    b.li_addr(R1, history);
    b.st(R8, R1, 0);

    // ---- 4b. smoothing filter over the history into `smooth`
    b.li_addr(R1, history);
    b.li_addr(R2, smooth);
    b.li(R7, 1);
    b.counted_loop(HISTORY - 1, R3, |b| {
        b.ld(R5, R1, 0);
        b.ld(R6, R1, 4);
        b.add(R5, R5, R6);
        b.sra(R5, R5, R7); // (h[i] + h[i+1]) / 2
        b.st(R5, R2, 0);
        b.addi(R1, R1, 4);
        b.addi(R2, R2, 4);
    });

    // ---- 5. nearest waypoint scan
    b.li_addr(R1, waypoints);
    b.li(R11, i32::MAX); // best distance
    b.li(R12, 0); // best value
    b.counted_loop(WAYPOINTS, R3, |b| {
        b.ld(R5, R1, 0);
        b.sub(R6, R5, R8);
        b.if_then(Cond::Lt, R6, R0, |b| {
            b.sub(R6, R0, R6); // |wp - pos|
        });
        b.if_then(Cond::Lt, R6, R11, |b| {
            b.add(R11, R6, R0);
            b.add(R12, R5, R0);
        });
        b.addi(R1, R1, 4);
    });
    b.li_addr(R6, actuators);
    b.st(R12, R6, 8); // steer toward nearest waypoint

    b.build().expect("MR program is well formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtprogram::Simulator;

    fn run(variant: usize) -> (Program, Vec<i32>) {
        let p = mobile_robot();
        let mut sim = Simulator::with_variant(&p, &p.variants()[variant].clone()).unwrap();
        sim.run_to_halt().unwrap();
        let act = p.symbol("actuators").unwrap();
        let values = (0..4).map(|i| sim.memory().read(act + 4 * i).unwrap()).collect();
        (p, values)
    }

    #[test]
    fn fused_position_matches_reference() {
        let p = mobile_robot();
        let mut sim = Simulator::new(&p);
        sim.run_to_halt().unwrap();
        let state = p.symbol("state").unwrap();
        let pos = sim.memory().read(state + 8).unwrap();
        assert_eq!(pos, reference_position(&sensor_pattern()));
        assert!(pos > 0);
    }

    #[test]
    fn clear_variant_skips_avoidance() {
        let (_, act) = run(0);
        assert_eq!(act[3], 0, "no avoidance flag without an obstacle");
    }

    #[test]
    fn obstacle_variant_triggers_avoidance() {
        let (_, act) = run(1);
        assert_eq!(act[3], 1, "avoidance flag set when a sensor reads below threshold");
        assert!(act[1] < 0, "avoidance biases actuator 1 negative");
    }

    #[test]
    fn history_front_holds_position() {
        let p = mobile_robot();
        let mut sim = Simulator::new(&p);
        sim.run_to_halt().unwrap();
        let history = p.symbol("history").unwrap();
        let state = p.symbol("state").unwrap();
        assert_eq!(sim.memory().read(history).unwrap(), sim.memory().read(state + 8).unwrap());
    }

    #[test]
    fn nearest_waypoint_is_closest() {
        let p = mobile_robot();
        let mut sim = Simulator::new(&p);
        sim.run_to_halt().unwrap();
        let pos = reference_position(&sensor_pattern());
        let best = sim.memory().read(p.symbol("actuators").unwrap() + 8).unwrap();
        let expect = (0..WAYPOINTS as i64)
            .map(|i| ((i * 53) % 256) as i32)
            .min_by_key(|wp| (wp - pos).abs())
            .unwrap();
        assert_eq!(best, expect);
    }

    #[test]
    fn loop_bounds_declared() {
        let p = mobile_robot();
        let bounds: Vec<u32> = p.loop_bounds().values().copied().collect();
        assert!(bounds.contains(&SENSORS));
        assert!(bounds.contains(&(HISTORY - 1)));
        assert!(bounds.contains(&WAYPOINTS));
    }

    #[test]
    fn deterministic_instruction_count() {
        let p = mobile_robot();
        let mut a = Simulator::new(&p);
        let ta = a.run_to_halt().unwrap();
        let mut b = Simulator::new(&p);
        let tb = b.run_to_halt().unwrap();
        assert_eq!(ta.instructions, tb.instructions);
        assert!(ta.instructions > 1_000, "MR should be a non-trivial task");
    }
}
