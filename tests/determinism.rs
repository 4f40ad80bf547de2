//! End-to-end determinism: two identically seeded runs of the same
//! mixed-clock transfer must agree on *everything observable* — delivered
//! data, per-net toggle counts, the violation log, and the kernel's
//! counters. The counters of one seeded run are also pinned to literal
//! values, so a queue change that alters the schedule fails here.
//!
//! This pins the event-kernel contract (see `crates/sim/src/event.rs`):
//! the timing wheel pops in exactly `(time, seq)` order, all randomness
//! flows from the simulator's single seeded RNG, and neither wake
//! coalescing nor the delta ring may change the order components observe.
//!
//! It also pins split invariance: a run advanced through many `run_until`
//! horizons is the run a single call makes, which is what lets the Table 1
//! measurements step a simulation and stop once their answer is fixed.

use mtf_async::OpJournal;
use mtf_core::env::{SyncConsumer, SyncProducer};
use mtf_core::{FifoParams, MixedClockFifo};
use mtf_gates::{Builder, CellDelays};
use mtf_sim::{
    ClockGen, Logic, MetaModel, NetId, RaceHazard, RaceHazardKind, SimStats, Simulator, Time,
};

/// Everything observable about one run, for whole-value comparison.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    delivered: Vec<u64>,
    toggles: Vec<(String, u64)>,
    violations: Vec<String>,
    stats: SimStats,
}

/// One plesiochronous transfer under a deliberately harsh metastability
/// model (so the RNG actually gets consulted), summarised as a comparable
/// fingerprint.
fn fingerprint(seed: u64) -> Fingerprint {
    fingerprint_opts(seed, false).0
}

/// As [`fingerprint`], optionally with the delta-race sanitizer enabled;
/// also returns the hazards the sanitizer recorded.
fn fingerprint_opts(seed: u64, sanitize: bool) -> (Fingerprint, Vec<RaceHazard>) {
    let harsh = MetaModel {
        window: Time::from_ps(400),
        tau: Time::from_ps(2_500),
        max_settle: Time::from_ps(25_000),
    };
    let mut sim = Simulator::new(seed);
    if sanitize {
        sim.enable_race_sanitizer();
    }
    let clk_put = sim.net("clk_put");
    let clk_get = sim.net("clk_get");
    ClockGen::spawn_simple(&mut sim, clk_put, Time::from_ps(9_973));
    ClockGen::builder(Time::from_ps(10_007))
        .phase(Time::from_ps(seed % 9_000))
        .spawn(&mut sim, clk_get);
    let mut b = Builder::with_delays(&mut sim, CellDelays::hp06(), harsh);
    let f = MixedClockFifo::build(
        &mut b,
        FifoParams::with_sync_stages(8, 8, 2),
        clk_put,
        clk_get,
    );
    drop(b.finish());
    let items: Vec<u64> = (0..40).collect();
    let _pj = SyncProducer::spawn(
        &mut sim,
        "prod",
        clk_put,
        f.req_put,
        &f.data_put,
        f.full,
        items.clone(),
    );
    let cj = SyncConsumer::spawn(
        &mut sim,
        "cons",
        clk_get,
        f.req_get,
        &f.data_get,
        f.valid_get,
        items.len() as u64,
    );
    sim.run_until(Time::from_us(5)).expect("simulation runs");

    let toggles: Vec<(String, u64)> = (0..sim.net_count())
        .map(|i| {
            let n = mtf_sim::NetId::from_index(i);
            (sim.net_name(n).to_string(), sim.toggles(n))
        })
        .collect();
    let violations: Vec<String> = sim.violations().iter().map(|v| v.to_string()).collect();
    let fp = Fingerprint {
        delivered: cj.values(),
        toggles,
        violations,
        stats: sim.stats(),
    };
    (fp, sim.race_hazards())
}

#[test]
fn identical_seeds_reproduce_bit_for_bit() {
    let a = fingerprint(11);
    let b = fingerprint(11);
    assert_eq!(
        a.delivered, b.delivered,
        "delivered data differs between identical runs"
    );
    assert_eq!(
        a.toggles, b.toggles,
        "toggle counts differ between identical runs"
    );
    assert_eq!(
        a.violations, b.violations,
        "violation logs differ between identical runs"
    );
    assert_eq!(
        a.stats, b.stats,
        "kernel counters differ between identical runs"
    );
}

#[test]
fn kernel_counters_are_pinned() {
    // Captured from the seed-11 fixture. Every value follows from the
    // sequence of pushes and pops, so any drift means the kernel now
    // schedules differently (the golden/table1.json `kernel` block would
    // move too).
    let want = SimStats {
        events_processed: 91_234,
        delta_pushes: 87_410,
        peak_delta_depth: 216,
        peak_queue_depth: 412,
        coalesced_wakes: 621,
        wheel_cascades: 1_217,
        overflow_events: 0,
        compiled_edge_evals: 0,
        compiled_gate_evals: 0,
    };
    assert_eq!(fingerprint(11).stats, want);
}

#[test]
fn sanitized_run_is_passive_and_race_free() {
    // The delta-race sanitizer must be purely observational: a sanitized
    // run fingerprints identically to a plain run, and the gate-level
    // mixed-clock transfer — where every cell has a nonzero propagation
    // delay — must show no stale same-instant reads. (Write/write records
    // are tolerated: a tri-state handoff on the shared get-data bus may
    // legitimately land two contribution changes in one instant.)
    let plain = fingerprint(11);
    let (sanitized, hazards) = fingerprint_opts(11, true);
    assert_eq!(
        plain, sanitized,
        "enabling the sanitizer changed observable behaviour"
    );
    let stale: Vec<&RaceHazard> = hazards
        .iter()
        .filter(|h| h.kind == RaceHazardKind::ReadThenWrite)
        .collect();
    assert!(
        stale.is_empty(),
        "stale same-instant reads in the mixed-clock transfer: {stale:#?}"
    );
}

#[test]
fn different_seeds_actually_diverge() {
    // Sanity check that the fingerprint is sensitive at all: under the
    // harsh metastability model, different seeds shift the get-clock
    // phase (by `seed % 9000` ps — pick seeds far apart) and the
    // settling draws, so *something* observable moves.
    let a = fingerprint(11);
    let b = fingerprint(7_477);
    assert_ne!(
        a, b,
        "fingerprint is insensitive to the seed — the test proves nothing"
    );
}

const SPLIT_T_PUT: Time = Time::from_ps(9_973);
const SPLIT_T_GET: Time = Time::from_ps(10_007);
const SPLIT_GET_PHASE: Time = Time::from_ps(4_321);

/// Everything a split run could perturb: every net's waveform, both
/// journals, the violation log and the kernel's counters.
#[derive(Debug, PartialEq)]
struct SplitRun {
    waveforms: Vec<Vec<(Time, Logic)>>,
    produced: Vec<(Time, u64)>,
    delivered: Vec<(Time, u64)>,
    violations: Vec<String>,
    stats: SimStats,
}

fn entries(j: &OpJournal) -> Vec<(Time, u64)> {
    j.times().into_iter().zip(j.values()).collect()
}

/// One gate-level mixed-clock transfer under the `hp06` metastability
/// model, advanced by one `run_until` call per entry of `horizons`.
fn split_run(horizons: &[Time]) -> SplitRun {
    let mut sim = Simulator::new(23);
    let clk_put = sim.net("clk_put");
    let clk_get = sim.net("clk_get");
    ClockGen::spawn_simple(&mut sim, clk_put, SPLIT_T_PUT);
    ClockGen::builder(SPLIT_T_GET)
        .phase(SPLIT_GET_PHASE)
        .spawn(&mut sim, clk_get);
    let mut b = Builder::with_delays(&mut sim, CellDelays::hp06(), MetaModel::hp06());
    let f = MixedClockFifo::build(
        &mut b,
        FifoParams::with_sync_stages(4, 8, 2),
        clk_put,
        clk_get,
    );
    drop(b.finish());
    let items: Vec<u64> = (0..200).collect();
    let pj = SyncProducer::spawn(
        &mut sim,
        "prod",
        clk_put,
        f.req_put,
        &f.data_put,
        f.full,
        items.clone(),
    );
    let cj = SyncConsumer::spawn(
        &mut sim,
        "cons",
        clk_get,
        f.req_get,
        &f.data_get,
        f.valid_get,
        items.len() as u64,
    );
    for i in 0..sim.net_count() {
        sim.trace(NetId::from_index(i));
    }
    for &h in horizons {
        sim.run_until(h).expect("simulation runs");
    }
    SplitRun {
        waveforms: (0..sim.net_count())
            .map(|i| {
                let wf = sim.waveform(NetId::from_index(i)).expect("traced");
                wf.points().to_vec()
            })
            .collect(),
        produced: entries(&pj),
        delivered: entries(&cj),
        violations: sim.violations().iter().map(|v| v.to_string()).collect(),
        stats: sim.stats(),
    }
}

#[test]
fn stepping_clock_edge_by_edge_matches_one_run() {
    // Stop at every put and get edge: each horizon lands on an instant
    // that holds events (the clock edge and its same-instant cascade), the
    // split the Table 1 measurements rely on.
    let horizon = Time::from_us(4);
    let mut edges: Vec<Time> = (1..)
        .map(|k| SPLIT_T_PUT * k)
        .take_while(|&t| t < horizon)
        .chain(
            (0..)
                .map(|k| SPLIT_GET_PHASE + SPLIT_T_GET * k)
                .take_while(|&t| t < horizon),
        )
        .collect();
    edges.sort();
    edges.push(horizon);
    let whole = split_run(&[horizon]);
    let stepped = split_run(&edges);
    assert!(
        !whole.delivered.is_empty(),
        "the transfer must move data, or the comparison proves little"
    );
    assert_eq!(whole.produced, stepped.produced, "producer journals differ");
    assert_eq!(
        whole.delivered, stepped.delivered,
        "consumer journals differ"
    );
    assert_eq!(
        whole.violations, stepped.violations,
        "violation logs differ"
    );
    assert_eq!(whole.stats, stepped.stats, "kernel counters differ");
    // Not `assert_eq!`: its message would dump every net's trace.
    assert!(whole.waveforms == stepped.waveforms, "waveforms differ");
}
