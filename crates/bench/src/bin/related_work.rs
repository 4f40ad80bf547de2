//! Quantifies the paper's related-work claims (Section 1) against real
//! implementations of the alternatives:
//!
//! * vs. pointer-comparison FIFOs (family of ref. \[5\]): empty-FIFO
//!   latency — the paper claims multiple synchronizer passes.
//! * vs. Seizovic's pipeline synchronization \[13\]: latency proportional
//!   to depth.
//! * vs. the Intel per-cell-synchronizer FIFO \[9\]: area.
//!
//! ```text
//! cargo run -p mtf-bench --bin related_work --release
//! ```
//!
//! `--json` emits one structured [`ExperimentReport`] instead of the text.

use mtf_bench::args::Args;
use mtf_bench::harness::{Drain, Harness};
use mtf_bench::json::Json;
use mtf_bench::measure::{capture_edge, latency, periods, seizovic_latency};
use mtf_bench::report::{DesignEntry, ExperimentReport};
use mtf_core::design::{ASYNC_SYNC, GRAY_POINTER, MIXED_CLOCK, PER_CELL_SYNC};
use mtf_core::{FifoParams, MixedTimingDesign};
use mtf_sim::Time;
use mtf_timing::{area, AreaReport, Sta, Tech};

const EXT: Time = Time::from_ps(100);

/// Empty-FIFO latency of the Gray-pointer baseline, measured with the same
/// protocol as `measure::latency`: receiver requesting, one item injected,
/// capture edge minus data-valid instant. Returns (min, max) over a phase
/// sweep, in ns.
fn gray_latency(params: FifoParams, t_put: Time, t_get: Time, steps: usize) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for s in 0..steps {
        let offset = Time::from_ps(t_get.as_ps() * s as u64 / steps as u64);
        let mut h = Harness::calibrated(5);
        h.clock_nets_both();
        h.gen_put_phased(t_put, offset);
        h.gen_get(t_get);
        h.build_annotated(&GRAY_POINTER, params, &Tech::hp06_custom());
        let valid_get = h.ports().valid_get.expect("sync get");
        h.drain(
            "c",
            Drain::Consume {
                n: 1,
                phase: Time::ZERO,
            },
        );
        // One item, injected on a put edge after warm-up.
        let warm = t_get * 40;
        let k = (warm.as_ps() + t_put.as_ps() - 1 - offset.as_ps() % t_put.as_ps()) / t_put.as_ps();
        let edge = offset + t_put * k;
        let t0 = edge + EXT;
        h.inject_sync_once(0xA5, t0, edge + t_put + EXT);
        h.sim.trace(valid_get);
        let capture = capture_edge(&mut h.sim, valid_get, t_get, t0, t0 + t_get * 59)
            .expect("gray FIFO never delivered");
        let ns = (capture - t0).as_ps() as f64 / 1000.0;
        lo = lo.min(ns);
        hi = hi.max(ns);
    }
    (lo, hi)
}

/// Gate-count area of `design` at `capacity` (8-bit), with the default
/// gate model (area does not depend on delays).
fn area_of(design: &dyn MixedTimingDesign, capacity: usize) -> AreaReport {
    let mut h = Harness::new(0);
    h.clock_nets_both();
    h.build(design, FifoParams::new(capacity, 8));
    area(h.netlist())
}

fn main() {
    let args = Args::parse();
    let json = args.json();
    let params = FifoParams::new(8, 8);
    if !json {
        println!("Related-work comparison (8-place, 8-bit unless noted)");
        println!();
    }

    // ---- latency: ours vs Gray-pointer vs Seizovic -------------------------
    let ours_p = periods(&MIXED_CLOCK, params);
    let t_put = ours_p.put.unwrap();
    let t_get = ours_p.get;
    let ours = latency(&MIXED_CLOCK, params, 8);
    let (g_lo, g_hi) = gray_latency(params, t_put, t_get, 8);
    if !json {
        println!("Empty-FIFO latency (both clocks at this design's own fmax):");
        println!(
            "  this paper's mixed-clock FIFO: {:.2} .. {:.2} ns",
            ours.min_ns, ours.max_ns
        );
        println!("  Gray-pointer FIFO            : {g_lo:.2} .. {g_hi:.2} ns");
        println!(
            "  -> the pointer design pays pointer-sync + registered flags: {:.1}x",
            g_lo / ours.min_ns
        );
        println!();
        println!("Seizovic pipeline synchronization, latency vs depth (10 ns clock):");
    }
    let mut seizovic_ns = Vec::new();
    for depth in [2usize, 4, 8] {
        let l = seizovic_latency(depth, Time::from_ns(10));
        seizovic_ns.push((depth, l));
        if !json {
            println!("  depth {depth}: {l:6.1} ns  (~2 cycles per stage)");
        }
    }
    if !json {
        println!("  -> linear in depth, as the paper criticises; ours is depth-independent.");
        println!();

        // ---- area: ours vs per-cell synchronization ------------------------
        println!("Area (estimated transistors), ours vs Intel-style per-cell sync:");
        println!("  capacity      ours    per-cell    overhead");
    }
    let mut areas = Vec::new();
    for capacity in [4usize, 8, 16] {
        let ours_a = area_of(&MIXED_CLOCK, capacity);
        let intel = area_of(&PER_CELL_SYNC, capacity);
        if !json {
            println!(
                "  {capacity:8}  {:8}  {:10}  +{:.0}% total, +{:.0}% flops",
                ours_a.total,
                intel.total,
                100.0 * (intel.total as f64 / ours_a.total as f64 - 1.0),
                100.0 * (intel.flops as f64 / ours_a.flops as f64 - 1.0),
            );
        }
        areas.push((capacity, ours_a, intel));
    }
    if !json {
        println!("  -> the per-cell synchronizers dominate and scale with capacity,");
        println!("     the paper's area argument against the Intel design.");
        println!();
    }

    // ---- fmax: ours vs Gray-pointer ----------------------------------------
    let gray_p = {
        let mut h = Harness::calibrated(0);
        h.clock_nets_both();
        h.build_annotated(&GRAY_POINTER, params, &Tech::hp06_custom());
        let ports = h.ports().clone();
        let mut sta = Sta::new(h.netlist());
        let (clk_put, clk_get) = (ports.clk_put.unwrap(), ports.clk_get.unwrap());
        sta.external_launch(ports.req_put.unwrap(), clk_put, EXT);
        for &d in &ports.data_put {
            sta.external_launch(d, clk_put, EXT);
        }
        sta.external_launch(ports.req_get.unwrap(), clk_get, EXT);
        (
            sta.min_period(clk_put).unwrap().fmax_mhz,
            sta.min_period(clk_get).unwrap().fmax_mhz,
        )
    };
    if !json {
        println!("fmax (STA, custom calibration):");
        println!(
            "  this paper's mixed-clock FIFO: put {:.0} MHz, get {:.0} MHz",
            1.0e6 / t_put.as_ps() as f64,
            1.0e6 / t_get.as_ps() as f64
        );
        println!(
            "  Gray-pointer FIFO            : put {:.0} MHz, get {:.0} MHz",
            gray_p.0, gray_p.1
        );
        println!("  (comparable — the pointer design's weakness is latency, not rate,");
        println!("   which matches the paper's framing of its advantage.)");
    }

    // Produce the Seizovic vs async-sync contrast the paper draws in words.
    let asy = latency(&ASYNC_SYNC, params, 6);
    let szv8 = seizovic_latency(8, Time::from_ns(10));
    if !json {
        println!();
        println!(
            "Async->sync bridging: async-sync FIFO {:.1} ns vs Seizovic(8) {szv8:.1} ns",
            asy.min_ns
        );
    }
    assert!(
        szv8 > asy.min_ns * 3.0,
        "the linear-depth baseline must lose clearly"
    );

    if json {
        let mut r = ExperimentReport::new("related_work");
        r.entries.push(
            DesignEntry::new(&MIXED_CLOCK, params)
                .with("put_mhz", 1.0e6 / t_put.as_ps() as f64)
                .with("get_mhz", 1.0e6 / t_get.as_ps() as f64)
                .with("latency_min_ns", ours.min_ns)
                .with("latency_max_ns", ours.max_ns),
        );
        r.entries.push(
            DesignEntry::new(&GRAY_POINTER, params)
                .with("put_mhz", gray_p.0)
                .with("get_mhz", gray_p.1)
                .with("latency_min_ns", g_lo)
                .with("latency_max_ns", g_hi),
        );
        r.entries
            .push(DesignEntry::new(&ASYNC_SYNC, params).with("latency_min_ns", asy.min_ns));
        for (capacity, ours_a, intel) in &areas {
            r.entries.push(
                DesignEntry::new(&MIXED_CLOCK, FifoParams::new(*capacity, 8))
                    .with("area_transistors", ours_a.total as f64)
                    .with("area_flops", ours_a.flops as f64),
            );
            r.entries.push(
                DesignEntry::new(&PER_CELL_SYNC, FifoParams::new(*capacity, 8))
                    .with("area_transistors", intel.total as f64)
                    .with("area_flops", intel.flops as f64),
            );
        }
        r.note(
            "seizovic_latency_ns",
            Json::Obj(
                seizovic_ns
                    .iter()
                    .map(|(d, l)| (format!("depth_{d}"), Json::Num(*l)))
                    .collect(),
            ),
        );
        r.emit();
    }
}
