//! `table1`: the exact Table 1 grid, run serially and held to
//! `golden/table1.json`.
//!
//! 4 designs × widths {8, 16} × capacities {4, 8, 16} of throughput (STA
//! over annotated netlists, plus a short simulation for asynchronous
//! puts) and the 12 width-8 latency cells at 10 alignment steps each.
//! The inputs are fixed; the seed is ignored.

use std::time::Instant;

use mtf_bench::harness::Harness;
use mtf_bench::json::Json;
use mtf_bench::measure::{latency_with, periods, throughput};
use mtf_bench::sweep::SweepRunner;
use mtf_core::design::DesignRegistry;
use mtf_core::{FifoParams, MixedTimingDesign};
use mtf_timing::Tech;

use crate::check::{golden_close, Digest};
use crate::trace::Tracer;
use crate::{Check, Rep, Setup, Workload};

const WIDTHS: [usize; 2] = [8, 16];
const CAPACITIES: [usize; 3] = [4, 8, 16];
/// Latency alignment steps, as the `table1` binary's full run uses.
pub const STEPS: usize = 10;
/// Where the reference grid lives, relative to the repository root.
pub const GOLDEN: &str = "golden/table1.json";

/// The `table1` workload.
pub struct Table1 {
    designs: Vec<&'static dyn MixedTimingDesign>,
    /// Throughput cells in the binary's order: design, width, capacity.
    tcells: Vec<(usize, FifoParams)>,
    /// Latency cells: design, capacity (width 8).
    lcells: Vec<(usize, FifoParams)>,
    /// Golden values, one per grid value, in the order `rep` computes them.
    golden: Vec<f64>,
    last: Vec<f64>,
}

impl Table1 {
    /// The grid, with its golden values read from [`GOLDEN`].
    pub fn new() -> Result<Self, String> {
        let designs: Vec<&'static dyn MixedTimingDesign> =
            DesignRegistry::table1().iter().collect();
        let mut tcells = Vec::new();
        let mut lcells = Vec::new();
        for d in 0..designs.len() {
            for &w in &WIDTHS {
                for &c in &CAPACITIES {
                    tcells.push((d, FifoParams::new(c, w)));
                }
            }
            for &c in &CAPACITIES {
                lcells.push((d, FifoParams::new(c, 8)));
            }
        }
        let text = std::fs::read_to_string(GOLDEN).map_err(|e| format!("{GOLDEN}: {e}"))?;
        let golden = golden_values(&Json::parse(&text)?)?;
        if golden.len() != 2 * tcells.len() + 2 * lcells.len() {
            return Err(format!("{GOLDEN}: {} grid values", golden.len()));
        }
        Ok(Table1 {
            designs,
            tcells,
            lcells,
            golden,
            last: Vec::new(),
        })
    }

    fn failures(&self, values: &[f64]) -> u64 {
        self.golden
            .iter()
            .zip(values)
            .filter(|(g, v)| !golden_close(**g, **v))
            .count() as u64
    }
}

/// The golden grid flattened in the order the workload computes it:
/// every entry's `put`, `get`, then every width-8 entry's latency pair.
fn golden_values(doc: &Json) -> Result<Vec<f64>, String> {
    let entries = doc
        .get("designs")
        .and_then(Json::as_array)
        .ok_or("no designs array")?;
    let num = |e: &Json, key: &str| -> Result<Option<f64>, String> {
        let m = e.get("measurements").ok_or("entry without measurements")?;
        Ok(m.get(key).and_then(Json::as_f64))
    };
    let mut tput = Vec::new();
    let mut lat = Vec::new();
    for e in entries {
        tput.push(num(e, "put")?.ok_or("entry without put")?);
        tput.push(num(e, "get")?.ok_or("entry without get")?);
        if let (Some(lo), Some(hi)) = (num(e, "latency_min_ns")?, num(e, "latency_max_ns")?) {
            lat.push(lo);
            lat.push(hi);
        }
    }
    tput.extend(lat);
    Ok(tput)
}

impl Workload for Table1 {
    fn threads(&self) -> usize {
        1
    }

    fn setup(&mut self, t: &mut Tracer) -> Setup {
        // The grid's design builds, each as `measure::periods` makes it.
        let mut setup = Setup::default();
        let tech = Tech::hp06_custom();
        for &(d, params) in &self.tcells {
            let mut h = Harness::calibrated(1);
            h.clock_nets_both();
            let start = Instant::now();
            t.span("elab.Harness::build_annotated", |_| {
                h.build_annotated(self.designs[d], params, &tech);
            });
            setup.elab += start.elapsed();
            setup.calls += 1;
            setup.nets += h.sim.net_count() as u64;
        }
        setup
    }

    fn rep(&mut self, t: &mut Tracer) -> Rep {
        let mark = t.mark();
        let mut values = Vec::with_capacity(self.golden.len());
        for &(d, params) in &self.tcells {
            let m = t.span("measure.throughput", |_| {
                throughput(self.designs[d], params)
            });
            values.extend([m.put, m.get]);
        }
        let serial = SweepRunner::serial();
        for &(d, params) in &self.lcells {
            let l = t.span("measure.latency_with", |_| {
                latency_with(self.designs[d], params, STEPS, &serial)
            });
            values.extend([l.min_ns, l.max_ns]);
        }

        let mut digest = Digest::default();
        for v in &values {
            digest.word(v.to_bits());
        }
        let mut rep = Rep {
            attempted: values.len() as u64,
            failed: self.failures(&values),
            digest: digest.value(),
            ..Rep::default()
        };
        rep.layer.insert(
            "measure.throughput_s",
            t.total(mark, "measure.throughput").as_secs_f64(),
        );
        rep.layer.insert(
            "measure.latency_s",
            t.total(mark, "measure.latency_with").as_secs_f64(),
        );
        rep.layer
            .insert("measure.latency_sims", (self.lcells.len() * STEPS) as f64);
        self.last = values;
        rep
    }

    fn check(&mut self, t: &mut Tracer, _median_wall: f64) -> Check {
        let mut check = Check::default();
        let mut tampered = self.last.clone();
        tampered[0] *= 1.01;
        check.expect(
            "a perturbed grid value counts as one failure",
            self.failures(&tampered) == 1,
        );
        if t.enabled() {
            // `periods` (annotated elaboration + STA) runs once inside
            // every throughput and latency cell; time those calls apart.
            let mark = t.mark();
            for &(d, params) in self.tcells.iter().chain(&self.lcells) {
                t.span("measure.periods", |_| periods(self.designs[d], params));
            }
            check.layer.insert(
                "measure.periods_s",
                t.total(mark, "measure.periods").as_secs_f64(),
            );
        }
        check
    }
}
