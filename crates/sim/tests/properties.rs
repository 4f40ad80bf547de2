//! Property tests for the simulation kernel: logic algebra, waveform
//! bookkeeping, event ordering, determinism.

use mtf_sim::{ClockGen, Logic, LogicVec, Simulator, Time};
use proptest::prelude::*;

fn logic() -> impl Strategy<Value = Logic> {
    prop_oneof![
        Just(Logic::L),
        Just(Logic::H),
        Just(Logic::X),
        Just(Logic::Z)
    ]
}

proptest! {
    /// `resolve` is a commutative monoid with identity `Z` — the property
    /// multi-driver nets rely on (any fold order gives the same bus value).
    #[test]
    fn resolve_monoid(a in logic(), b in logic(), c in logic()) {
        prop_assert_eq!(a.resolve(b), b.resolve(a));
        prop_assert_eq!(a.resolve(Logic::Z), a);
        prop_assert_eq!(a.resolve(b).resolve(c), a.resolve(b.resolve(c)));
    }

    /// Kleene AND/OR are monotone w.r.t. information: refining an X input
    /// to a definite value never flips a definite output.
    #[test]
    fn kleene_monotonicity(a in logic(), b in logic()) {
        for (x, refined) in [(Logic::X, Logic::L), (Logic::X, Logic::H)] {
            if a == x {
                let before = a.and(b);
                let after = refined.and(b);
                if before.is_definite() {
                    prop_assert_eq!(before, after);
                }
                let before = a.or(b);
                let after = refined.or(b);
                if before.is_definite() {
                    prop_assert_eq!(before, after);
                }
            }
        }
    }

    /// LogicVec round-trips values below its width.
    #[test]
    fn logicvec_round_trip(v in 0u64..=u64::MAX, w in 1usize..=63) {
        let masked = v & ((1u64 << w) - 1);
        let lv = LogicVec::from_u64(masked, w);
        prop_assert_eq!(lv.to_u64(), Some(masked));
        prop_assert_eq!(lv.width(), w);
        prop_assert!(lv.is_definite());
    }

    /// Waveform value_at agrees with a reference fold of the change list.
    #[test]
    fn waveform_matches_reference(changes in prop::collection::vec((1u64..10_000, any::<bool>()), 1..40)) {
        let mut sim = Simulator::new(0);
        let n = sim.net("n");
        let d = sim.driver(n);
        sim.trace(n);
        let mut sorted: Vec<(u64, bool)> = changes.clone();
        sorted.sort();
        sorted.dedup_by_key(|(t, _)| *t);
        for &(t, v) in &sorted {
            sim.drive_at(d, n, Logic::from_bool(v), Time::from_ps(t));
        }
        sim.run_until(Time::from_ps(20_000)).unwrap();
        let wf = sim.waveform(n).unwrap();
        // Reference: last change at or before the query instant.
        for probe in [0u64, 1, 500, 5_000, 9_999, 15_000] {
            let expect = sorted
                .iter()
                .rfind(|&&(t, _)| t <= probe)
                .map(|&(_, v)| Logic::from_bool(v))
                .unwrap_or(Logic::Z);
            prop_assert_eq!(wf.value_at(Time::from_ps(probe)), expect, "at {}", probe);
        }
    }

    /// Identical seeds and stimuli give identical event counts and final
    /// values — the determinism the whole test suite rests on.
    #[test]
    fn determinism(seed in any::<u64>(), period in 500u64..5_000) {
        let run = || {
            let mut sim = Simulator::new(seed);
            let clk = sim.net("clk");
            ClockGen::spawn_simple(&mut sim, clk, Time::from_ps(period));
            sim.trace(clk);
            sim.run_until(Time::from_ps(period * 40)).unwrap();
            (
                sim.events_processed(),
                sim.waveform(clk).unwrap().transition_count(),
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// A clock generator produces exactly the edges arithmetic predicts.
    #[test]
    fn clock_edge_count(period in 100u64..5_000, phase in 0u64..5_000, cycles in 2u64..50) {
        let mut sim = Simulator::new(0);
        let clk = sim.net("clk");
        ClockGen::builder(Time::from_ps(period))
            .phase(Time::from_ps(phase))
            .spawn(&mut sim, clk);
        sim.trace(clk);
        let horizon = Time::from_ps(phase + period * cycles + 1);
        sim.run_until(horizon).unwrap();
        let wf = sim.waveform(clk).unwrap();
        let rises = wf.edges(mtf_sim::Edge::Rising).count() as u64;
        prop_assert_eq!(rises, cycles, "rising edges at phase + k*period");
    }
}

/// Multi-driver buses resolve independent of driver creation order.
#[test]
fn bus_resolution_order_independent() {
    let value_with_order = |flip: bool| {
        let mut sim = Simulator::new(0);
        let bus = sim.net("bus");
        let (a, b) = if flip {
            let b = sim.driver(bus);
            let a = sim.driver(bus);
            (a, b)
        } else {
            let a = sim.driver(bus);
            let b = sim.driver(bus);
            (a, b)
        };
        sim.drive_at(a, bus, Logic::Z, Time::from_ps(100));
        sim.drive_at(b, bus, Logic::H, Time::from_ps(100));
        sim.run_until(Time::from_ps(200)).unwrap();
        sim.value(bus)
    };
    assert_eq!(value_with_order(false), value_with_order(true));
    assert_eq!(value_with_order(false), Logic::H);
}

/// Inertial cancellation: a short pulse through a slow driver schedule is
/// absorbed (the later schedule supersedes the earlier pending one).
#[test]
fn later_component_schedule_supersedes_earlier() {
    use mtf_sim::{Component, Ctx};
    struct Pulser {
        out: mtf_sim::DriverId,
        fired: bool,
    }
    impl Component for Pulser {
        fn eval(&mut self, ctx: &mut Ctx<'_>) {
            if !self.fired {
                self.fired = true;
                // Schedule H at +1000, then immediately re-schedule L at
                // +500: the H must never appear.
                ctx.drive(self.out, Logic::H, Time::from_ps(1_000));
                ctx.drive(self.out, Logic::L, Time::from_ps(500));
            }
        }
    }
    let mut sim = Simulator::new(0);
    let n = sim.net("n");
    let d = sim.driver(n);
    sim.trace(n);
    sim.add_component(
        Box::new(Pulser {
            out: d,
            fired: false,
        }),
        &[],
    );
    sim.run_until(Time::from_ps(3_000)).unwrap();
    let wf = sim.waveform(n).unwrap();
    assert_eq!(sim.value(n), Logic::L);
    assert!(
        wf.edges(mtf_sim::Edge::Rising).count() == 0,
        "the superseded H drive must never fire"
    );
}

/// A horizon earlier than `now()` runs nothing and leaves the clock where
/// it is, so a later schedule still lands at or after the last event.
#[test]
fn earlier_horizon_does_not_rewind_the_clock() {
    let mut sim = Simulator::new(0);
    let n = sim.net("n");
    let d = sim.driver(n);
    sim.trace(n);
    sim.drive_at(d, n, Logic::H, Time::from_ns(8));
    sim.run_until(Time::from_ns(10)).unwrap();
    sim.run_until(Time::from_ns(5)).unwrap();
    assert_eq!(sim.now(), Time::from_ns(10));
    // Clamped to now(): without the fix this lands behind the queue's
    // cursor, at 6 ns.
    sim.drive_at(d, n, Logic::L, Time::from_ns(6));
    sim.run_until(Time::from_ns(20)).unwrap();
    assert_eq!(sim.now(), Time::from_ns(20));
    assert_eq!(sim.value(n), Logic::L);
    let falls: Vec<Time> = sim
        .waveform(n)
        .unwrap()
        .edges(mtf_sim::Edge::Falling)
        .collect();
    assert_eq!(falls, vec![Time::from_ns(10)]);
}
