//! `ladder` and `ladder_serial`: the `sharded` bench's relay ladder.
//!
//! Each of the 32 segments is its own plesiochronous ~100 MHz domain with
//! one relay station, and the 31 boundaries are gate-level
//! `mixed_clock_rs` relay stations. `ladder` runs it through
//! [`run_chain_sharded`] on `min(2, nproc)` shards; `ladder_serial` runs
//! the identical spec, seed and items on one shard, the baseline every
//! sharding claim is measured against.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mtf_lis::{run_chain_sharded, ChainBuilder, ChainDrive, ChainSpec, ShardedChainRun};
use mtf_sim::{SimStats, Simulator};

use crate::check::{item_failures, Digest};
use crate::trace::Tracer;
use crate::{Check, Rep, Setup, Workload};

/// Domains (= segments) of the ladder. The full 64-domain ladder takes
/// ~16 s per 1-shard run on a 2-core host, too long to repeat.
pub const DOMAINS: usize = 32;
/// Items carried per run.
pub const ITEMS: usize = 40;

/// The relay ladder: every segment its own domain, every boundary a
/// gate-level mixed-clock relay station (`crates/bench/src/bin/sharded.rs`).
fn spec() -> ChainSpec {
    let mut spec = ChainSpec::new(8, 4);
    for i in 0..DOMAINS as u64 {
        if i > 0 {
            spec = spec.boundary("mixed_clock_rs");
        }
        spec = spec.segment(9_973 + 37 * i, (257 * i) % 4_000, 1);
    }
    spec
}

/// One of the two ladder workloads.
pub struct Ladder {
    spec: ChainSpec,
    drive: ChainDrive,
    shards: usize,
    last: Option<ShardedChainRun>,
}

impl Ladder {
    /// The ladder at `shards` shards, driven from `seed`.
    pub fn new(seed: u64, shards: usize) -> Self {
        let spec = spec();
        let drive = ChainDrive::clean(seed, ITEMS, spec.width);
        Ladder {
            spec,
            drive,
            shards,
            last: None,
        }
    }

    fn run(&self, t: &mut Tracer, shards: usize) -> ShardedChainRun {
        t.span("lis.run_chain_sharded", |_| {
            run_chain_sharded(&self.spec, &self.drive, shards).expect("the ladder is a valid chain")
        })
    }
}

fn digest(run: &ShardedChainRun) -> u64 {
    let mut d = Digest::default();
    d.word(run.fingerprint.digest());
    for s in &run.shard_stats {
        d.stats(&s.sim);
        for w in [
            s.events_sent,
            s.events_received,
            s.messages_sent,
            s.null_messages,
            s.rounds,
        ] {
            d.word(w);
        }
    }
    d.value()
}

fn metastable(run: &ShardedChainRun) -> u64 {
    run.fingerprint
        .violations
        .iter()
        .filter(|v| v.starts_with("[metastability]"))
        .count() as u64
}

fn busy(run: &ShardedChainRun) -> (Duration, Duration) {
    let total = run.shard_stats.iter().map(|s| s.busy).sum();
    let max = run
        .shard_stats
        .iter()
        .map(|s| s.busy)
        .max()
        .unwrap_or_default();
    (total, max)
}

impl Workload for Ladder {
    fn threads(&self) -> usize {
        self.shards
    }

    fn setup(&mut self, t: &mut Tracer) -> Setup {
        // The sharded runner elaborates inside its worker threads, out of
        // reach of a caller's timer; `ChainBuilder::build` of the same
        // spec is the elaboration this measures instead.
        let mut sim = Simulator::new(self.drive.seed);
        let start = Instant::now();
        t.span("elab.ChainBuilder::build", |_| {
            ChainBuilder::build(&mut sim, &self.spec).expect("the ladder is a valid chain")
        });
        Setup {
            elab: start.elapsed(),
            calls: 1,
            nets: sim.net_count() as u64,
        }
    }

    fn rep(&mut self, t: &mut Tracer) -> Rep {
        let start = Instant::now();
        let run = self.run(t, self.shards);
        let wall = start.elapsed();
        let failed = item_failures(&self.drive.items, &run.run.delivered);

        let stats = &run.shard_stats;
        let sum = |f: fn(&SimStats) -> u64| stats.iter().map(|s| f(&s.sim)).sum::<u64>() as f64;
        let (busy_total, busy_max) = busy(&run);
        let events = sum(|s| s.events_processed);
        let messages: u64 = stats.iter().map(|s| s.messages_sent).sum();
        let nulls: u64 = stats.iter().map(|s| s.null_messages).sum();
        let horizon_ns = mtf_lis::chain_horizon(&self.spec, &self.drive).as_ps() as f64 / 1e3;
        let mut layer = BTreeMap::new();
        // The shards' busy time is the closest outside view of kernel
        // time: it also covers each shard's in-thread elaboration (under
        // 1% of it) and, past one shard, applying boundary messages.
        layer.insert("kernel.run_s", busy_total.as_secs_f64());
        layer.insert("kernel.events", events);
        layer.insert(
            "kernel.ns_per_event",
            busy_total.as_secs_f64() * 1e9 / events,
        );
        layer.insert(
            "kernel.sim_ns_per_s",
            horizon_ns * stats.len() as f64 / busy_total.as_secs_f64(),
        );
        layer.insert("kernel.delta_pushes", sum(|s| s.delta_pushes));
        layer.insert("kernel.coalesced_wakes", sum(|s| s.coalesced_wakes));
        layer.insert("kernel.wheel_cascades", sum(|s| s.wheel_cascades));
        layer.insert("kernel.overflow_events", sum(|s| s.overflow_events));
        layer.insert(
            "kernel.peak_queue_depth",
            stats
                .iter()
                .map(|s| s.sim.peak_queue_depth)
                .max()
                .unwrap_or(0) as f64,
        );
        layer.insert("kernel.metastable_samples", metastable(&run) as f64);
        layer.insert("shard.busy_max_s", busy_max.as_secs_f64());
        layer.insert("shard.busy_total_s", busy_total.as_secs_f64());
        layer.insert(
            "shard.blocked_total_s",
            stats
                .iter()
                .map(|s| s.blocked)
                .sum::<Duration>()
                .as_secs_f64(),
        );
        layer.insert(
            "shard.rounds",
            stats.iter().map(|s| s.rounds).max().unwrap_or(0) as f64,
        );
        layer.insert("shard.messages_sent", messages as f64);
        layer.insert("shard.null_messages", nulls as f64);
        layer.insert(
            "shard.events_sent",
            stats.iter().map(|s| s.events_sent).sum::<u64>() as f64,
        );
        layer.insert(
            "shard.useful_msg_frac",
            if messages > 0 {
                (messages - nulls) as f64 / messages as f64
            } else {
                0.0
            },
        );
        layer.insert("shard.kernel_events_total", events);
        layer.insert(
            "shard.outside_busy_s",
            wall.saturating_sub(busy_max).as_secs_f64(),
        );

        let rep = Rep {
            attempted: ITEMS as u64,
            failed,
            digest: digest(&run),
            layer,
        };
        self.last = Some(run);
        rep
    }

    fn check(&mut self, t: &mut Tracer, median_wall: f64) -> Check {
        let mut check = Check::default();
        let last = self.last.as_ref().expect("checks follow the timed runs");

        // A dropped and a corrupted item must each raise the failed count.
        let mut tampered = last.run.delivered.clone();
        tampered.remove(0);
        tampered[ITEMS / 2] ^= 1;
        check.expect(
            "a dropped and a corrupted item count as two failures",
            item_failures(&self.drive.items, &tampered) == 2,
        );

        if self.shards == 1 {
            check.layer.insert("shard.wall_speedup", 1.0);
            check.layer.insert("shard.critical_path_speedup", 1.0);
            return check;
        }
        // The sharded run must reproduce the serial baseline exactly.
        let start = Instant::now();
        let serial = self.run(t, 1);
        let serial_wall = start.elapsed().as_secs_f64();
        check.attempted += ITEMS as u64;
        check.failed += item_failures(&self.drive.items, &serial.run.delivered);
        check.expect(
            "ladder and ladder_serial fingerprints are equal",
            serial.fingerprint == last.fingerprint
                && serial.fingerprint.digest() == last.fingerprint.digest(),
        );
        let (serial_busy, _) = busy(&serial);
        let (_, busy_max) = busy(last);
        check
            .layer
            .insert("shard.wall_speedup", serial_wall / median_wall);
        check.layer.insert(
            "shard.critical_path_speedup",
            serial_busy.as_secs_f64() / busy_max.as_secs_f64(),
        );
        check
    }
}
