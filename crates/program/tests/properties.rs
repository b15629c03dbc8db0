//! Property-based tests for the program substrate: random structured
//! programs must simulate deterministically, disassemble/reassemble to
//! equivalent programs, and attribute their traces completely.

use proptest::prelude::*;
use rtprogram::asm::{assemble, disassemble};
use rtprogram::builder::ProgramBuilder;
use rtprogram::cfg::Cfg;
use rtprogram::isa::regs::*;
use rtprogram::isa::Cond;
use rtprogram::paths::{enumerate_paths, immediate_dominators, natural_loops};
use rtprogram::sim::Simulator;
use rtprogram::Program;

/// A tiny structured-program AST the strategy generates; rendered through
/// the builder so all control flow is well formed.
#[derive(Debug, Clone)]
enum Stmt {
    Arith(u8),
    LoadStore(u8),
    Loop(u8, Vec<Stmt>),
    If(Vec<Stmt>),
    IfElse(Vec<Stmt>, Vec<Stmt>),
}

fn arb_stmts(depth: u32) -> impl Strategy<Value = Vec<Stmt>> {
    let leaf = prop_oneof![(0u8..8).prop_map(Stmt::Arith), (0u8..16).prop_map(Stmt::LoadStore),];
    let stmt = leaf.prop_recursive(depth, 24, 4, |inner| {
        prop_oneof![
            ((1u8..5), prop::collection::vec(inner.clone(), 1..4))
                .prop_map(|(n, b)| Stmt::Loop(n, b)),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Stmt::If),
            (prop::collection::vec(inner.clone(), 1..3), prop::collection::vec(inner, 1..3))
                .prop_map(|(t, e)| Stmt::IfElse(t, e)),
        ]
    });
    prop::collection::vec(stmt, 1..6)
}

/// Renders statements through the builder. Registers: r1 buffer pointer
/// base, r4/r5 scratch, r6 accumulator; loops use r8..r11 by depth.
fn emit(b: &mut ProgramBuilder, stmts: &[Stmt], buf: u64, depth: u8) {
    for stmt in stmts {
        match stmt {
            Stmt::Arith(k) => {
                b.addi(R6, R6, i32::from(*k) - 3);
                b.xor(R6, R6, R4);
            }
            Stmt::LoadStore(slot) => {
                b.li_addr(R1, buf + 4 * u64::from(*slot));
                b.ld(R4, R1, 0);
                b.add(R6, R6, R4);
                b.st(R6, R1, 0);
            }
            Stmt::Loop(n, body) => {
                if depth < 4 {
                    let counter = [R8, R9, R10, R11][usize::from(depth)];
                    b.counted_loop(u32::from(*n), counter, |b| {
                        emit(b, body, buf, depth + 1);
                    });
                }
            }
            Stmt::If(body) => {
                b.if_then(Cond::Ge, R6, R0, |b| emit(b, body, buf, depth));
            }
            Stmt::IfElse(t, e) => {
                b.if_else(Cond::Lt, R6, R0, |b| emit(b, t, buf, depth), |b| emit(b, e, buf, depth));
            }
        }
    }
}

fn build(stmts: &[Stmt]) -> Program {
    let mut b = ProgramBuilder::new("prop", 0x1000, 0x0010_0000);
    let buf = b.data_words("buf", &(0..16).map(|i| i * 3 - 7).collect::<Vec<_>>());
    b.li(R6, 1);
    emit(&mut b, stmts, buf, 0);
    b.build().expect("structured programs are well formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The simulator is deterministic and always halts on structured
    /// programs.
    #[test]
    fn simulation_is_deterministic(stmts in arb_stmts(3)) {
        let p = build(&stmts);
        let mut a = Simulator::new(&p);
        let ta = a.run_to_halt_with_limit(2_000_000).expect("halts");
        let mut b = Simulator::new(&p);
        let tb = b.run_to_halt_with_limit(2_000_000).expect("halts");
        prop_assert_eq!(ta, tb);
    }

    /// Disassembling and reassembling preserves code, entry, data image
    /// and loop bounds.
    #[test]
    fn disassembly_round_trips(stmts in arb_stmts(3)) {
        let p = build(&stmts);
        let text = disassemble(&p);
        let q = assemble("prop", &text).expect("listing reassembles");
        prop_assert_eq!(p.code(), q.code());
        prop_assert_eq!(p.entry(), q.entry());
        prop_assert_eq!(p.loop_bounds(), q.loop_bounds());
        let p_data: Vec<(u64, &[i32])> =
            p.data_segments().iter().map(|s| (s.base, s.words.as_slice())).collect();
        let q_data: Vec<(u64, &[i32])> =
            q.data_segments().iter().map(|s| (s.base, s.words.as_slice())).collect();
        prop_assert_eq!(p_data, q_data);
        // And the reassembled program behaves identically.
        let mut sp = Simulator::new(&p);
        let tp = sp.run_to_halt_with_limit(2_000_000).expect("halts");
        let mut sq = Simulator::new(&q);
        let tq = sq.run_to_halt_with_limit(2_000_000).expect("halts");
        prop_assert_eq!(tp.accesses.len(), tq.accesses.len());
        prop_assert_eq!(tp.instructions, tq.instructions);
    }

    /// Every access of a trace is attributed to exactly one node
    /// execution, in order.
    #[test]
    fn attribution_is_a_partition(stmts in arb_stmts(3)) {
        let p = build(&stmts);
        let cfg = Cfg::from_program(&p);
        let mut sim = Simulator::new(&p);
        let trace = sim.run_to_halt_with_limit(2_000_000).expect("halts");
        let execs = cfg.attribute(&trace);
        let flattened: Vec<_> = execs.iter().flat_map(|e| e.accesses.iter().copied()).collect();
        prop_assert_eq!(flattened, trace.accesses.clone());
        for e in &execs {
            // Each execution's accesses belong to its block's pc range.
            let block = cfg.block(e.block);
            for a in &e.accesses {
                prop_assert!(block.contains(a.pc));
            }
        }
    }

    /// Structural invariants: the entry dominates every reachable block,
    /// loops have their declared bounds, and the executed block sequence
    /// is consistent with one enumerated path (per variant there is only
    /// one feasible path since branches depend on fixed data).
    #[test]
    fn structure_is_consistent(stmts in arb_stmts(2)) {
        let p = build(&stmts);
        let cfg = Cfg::from_program(&p);
        let idom = immediate_dominators(&cfg);
        let mut sim = Simulator::new(&p);
        let trace = sim.run_to_halt_with_limit(2_000_000).expect("halts");
        for e in cfg.attribute(&trace) {
            prop_assert!(
                rtprogram::paths::dominates(&idom, cfg.entry(), e.block),
                "executed block must be dominated by entry"
            );
        }
        let loops = natural_loops(&cfg, &p).expect("reducible");
        for l in &loops {
            prop_assert!(l.bound.is_some(), "builder loops carry bounds");
        }
        if let Ok(paths) = enumerate_paths(&cfg, &p, 4096) {
            prop_assert!(!paths.is_empty());
        }
    }
}
