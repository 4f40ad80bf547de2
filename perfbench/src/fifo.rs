//! `fifo`: a saturated transfer through each of the six paper designs.
//!
//! Gate level, capacity 16, width 16, plesiochronous ~100 MHz clocks and
//! the default stochastic `MetaModel::hp06`, so synchronizer metastability
//! draws run. This is the same sequence of harness calls as
//! [`fifo_transfer_run`], split so that elaboration (`Harness::build`) and
//! the kernel (`Simulator::run_until`) are timed apart; [`Workload::check`]
//! holds the split sequence to `fifo_transfer_run`'s output and counters.

use std::time::{Duration, Instant};

use mtf_async::OpJournal;
use mtf_bench::harness::{fifo_transfer_run, Drain, Feed, Harness, TransferConfig};
use mtf_core::design::DesignRegistry;
use mtf_core::{FifoParams, InterfaceSpec, MixedTimingDesign};
use mtf_sim::{SimStats, Time, ViolationKind};

use crate::check::{item_failures, Digest};
use crate::trace::Tracer;
use crate::{Check, Rep, Setup, Workload};

/// Items pushed through every design per run.
pub const ITEMS: usize = 2_000;
const PARAMS: FifoParams = FifoParams {
    capacity: 16,
    width: 16,
    sync_stages: 2,
};

/// What one design's transfer produced.
struct Transfer {
    delivered: Vec<(u64, u64)>,
    stats: SimStats,
    metastable: u64,
}

/// The `fifo` workload.
pub struct Fifo {
    designs: Vec<&'static dyn MixedTimingDesign>,
    items: Vec<u64>,
    cfg: TransferConfig,
    last: Vec<Transfer>,
}

impl Fifo {
    /// Items and clock periods derived from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut x = seed;
        let items = (0..ITEMS)
            .map(|_| crate::splitmix64(&mut x) & 0xffff)
            .collect();
        // Plesiochronous: both sides nominally 100 MHz, a few ps apart.
        let t_put = 9_968 + seed % 64;
        let t_get = 10_005 + (seed >> 6) % 64;
        let horizon = Time::from_ps(t_put.max(t_get) * (2 * ITEMS as u64 + 400));
        Fifo {
            designs: DesignRegistry::paper().iter().collect(),
            items,
            cfg: TransferConfig::plain(seed, t_put, t_get, horizon),
            last: Vec::new(),
        }
    }

    /// `fifo_transfer_run` up to elaboration: clocks and generators.
    fn harness(&self, design: &dyn MixedTimingDesign) -> Harness {
        let mut h = Harness::new(self.cfg.seed);
        h.clock_nets(design.clocking());
        if h.clk_put.is_some() {
            h.gen_put(Time::from_ps(self.cfg.t_put));
        }
        if h.clk_get.is_some() {
            h.gen_get_phased(
                Time::from_ps(self.cfg.t_get),
                Time::from_ps(self.cfg.seed % self.cfg.t_get),
            );
        }
        h
    }

    fn build(t: &mut Tracer, h: &mut Harness, design: &dyn MixedTimingDesign) -> Duration {
        let start = Instant::now();
        t.span("elab.Harness::build", |_| {
            h.build(design, PARAMS);
        });
        start.elapsed()
    }

    /// `fifo_transfer_run` after elaboration: environments, then the run.
    fn transfer(&self, t: &mut Tracer, mut h: Harness) -> Transfer {
        let stream_put = matches!(h.ports().put_spec(), InterfaceSpec::SyncStream { .. });
        let feed = if stream_put {
            let mut packets = Vec::new();
            for (i, &v) in self.items.iter().enumerate() {
                if i % 3 == 0 {
                    packets.push(None);
                }
                packets.push(Some(v));
            }
            Feed::Packets { packets }
        } else {
            Feed::Saturate {
                items: self.items.clone(),
                bundling: Time::from_ps(400),
                phase: Time::ZERO,
            }
        };
        let _pj = h.feed(if stream_put { "s" } else { "p" }, feed);
        let n = self.items.len() as u64;
        let (name, drain) = match h.ports().get_spec() {
            InterfaceSpec::SyncStream { .. } => ("k", Drain::Sink { stalls: Vec::new() }),
            InterfaceSpec::Async4Phase { .. } => (
                "g",
                Drain::Consume {
                    n,
                    phase: Time::ZERO,
                },
            ),
            InterfaceSpec::SyncFifo { .. } => (
                "c",
                Drain::Consume {
                    n,
                    phase: Time::ZERO,
                },
            ),
        };
        let out = h.drain(name, drain);
        t.span("kernel.Simulator::run_until", |_| {
            h.sim.run_until(self.cfg.horizon).expect("simulation runs")
        });
        outcome(&h, &out)
    }
}

fn outcome(h: &Harness, out: &OpJournal) -> Transfer {
    let delivered = out
        .times()
        .into_iter()
        .zip(out.values())
        .map(|(t, v)| (v, t.as_ps()))
        .collect();
    Transfer {
        delivered,
        stats: h.sim.stats(),
        metastable: h.sim.violations_of(ViolationKind::Metastability).count() as u64,
    }
}

fn values(t: &Transfer) -> Vec<u64> {
    t.delivered.iter().map(|&(v, _)| v).collect()
}

impl Workload for Fifo {
    fn threads(&self) -> usize {
        1
    }

    fn setup(&mut self, t: &mut Tracer) -> Setup {
        let mut setup = Setup::default();
        for &d in &self.designs {
            let mut h = self.harness(d);
            setup.elab += Self::build(t, &mut h, d);
            setup.calls += 1;
            setup.nets += h.sim.net_count() as u64;
        }
        setup
    }

    fn rep(&mut self, t: &mut Tracer) -> Rep {
        let mark = t.mark();
        let mut transfers = Vec::with_capacity(self.designs.len());
        for &d in &self.designs {
            let mut h = self.harness(d);
            Self::build(t, &mut h, d);
            transfers.push(self.transfer(t, h));
        }

        let mut rep = Rep::default();
        let mut digest = Digest::default();
        for tr in &transfers {
            rep.attempted += self.items.len() as u64;
            rep.failed += item_failures(&self.items, &values(tr));
            for &(v, ps) in &tr.delivered {
                digest.word(v);
                digest.word(ps);
            }
            digest.stats(&tr.stats);
            digest.word(tr.metastable);
        }
        rep.digest = digest.value();

        let sum =
            |f: fn(&SimStats) -> u64| transfers.iter().map(|x| f(&x.stats)).sum::<u64>() as f64;
        let events = sum(|s| s.events_processed);
        let run_s = t
            .self_times(mark)
            .get("kernel")
            .copied()
            .unwrap_or_default()
            .as_secs_f64();
        let sim_ns = self.cfg.horizon.as_ps() as f64 / 1e3 * transfers.len() as f64;
        let layer = &mut rep.layer;
        layer.insert("kernel.run_s", run_s);
        layer.insert("kernel.events", events);
        layer.insert("kernel.ns_per_event", run_s * 1e9 / events);
        layer.insert("kernel.sim_ns_per_s", sim_ns / run_s);
        layer.insert("kernel.delta_pushes", sum(|s| s.delta_pushes));
        layer.insert("kernel.coalesced_wakes", sum(|s| s.coalesced_wakes));
        layer.insert("kernel.wheel_cascades", sum(|s| s.wheel_cascades));
        layer.insert("kernel.overflow_events", sum(|s| s.overflow_events));
        layer.insert(
            "kernel.peak_queue_depth",
            transfers
                .iter()
                .map(|x| x.stats.peak_queue_depth)
                .max()
                .unwrap_or(0) as f64,
        );
        layer.insert(
            "kernel.metastable_samples",
            transfers.iter().map(|x| x.metastable).sum::<u64>() as f64,
        );
        self.last = transfers;
        rep
    }

    fn check(&mut self, t: &mut Tracer, _median_wall: f64) -> Check {
        let mut check = Check::default();
        let mut tampered = values(&self.last[0]);
        tampered.remove(ITEMS / 3);
        tampered[ITEMS / 2] ^= 1 << 15;
        check.expect(
            "a dropped and a corrupted item count as two failures",
            item_failures(&self.items, &tampered) == 2,
        );
        // The split harness sequence must be `fifo_transfer_run` exactly.
        for (d, last) in self.designs.iter().zip(&self.last) {
            let (h, out) = t.span("bench.fifo_transfer_run", |_| {
                fifo_transfer_run(*d, PARAMS, &self.items, &self.cfg)
            });
            let reference = outcome(&h, &out);
            check.attempted += self.items.len() as u64;
            check.failed += item_failures(&self.items, &values(&reference));
            check.expect(
                "the timed transfer matches fifo_transfer_run",
                reference.delivered == last.delivered
                    && reference.stats == last.stats
                    && reference.metastable == last.metastable,
            );
        }
        check
    }
}
