//! The full Table 1 grid, recomputed through `measure::{throughput,
//! latency_with}`, must reproduce `golden/table1.json` bit for bit.
//!
//! `scripts/golden_diff.py` compares at a 1e-6 relative tolerance; this
//! test compares `f64::to_bits`, so a measurement change that moves a
//! value by a single ulp (a different stopping instant, a reordered sum)
//! fails here even when the golden diff would pass.

use mtf_bench::json::Json;
use mtf_bench::measure::{latency_with, throughput};
use mtf_bench::sweep::SweepRunner;
use mtf_core::design::DesignRegistry;
use mtf_core::FifoParams;

/// Latency alignment steps of the `table1` binary's full run.
const LATENCY_STEPS: usize = 10;

fn golden() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../golden/table1.json");
    let text = std::fs::read_to_string(path).expect("golden/table1.json is readable");
    Json::parse(&text).expect("golden/table1.json parses")
}

#[test]
fn table1_grid_matches_golden_bit_for_bit() {
    let doc = golden();
    let entries = doc
        .get("designs")
        .and_then(Json::as_array)
        .expect("designs array");
    assert_eq!(entries.len(), 24, "4 designs x 2 widths x 3 capacities");
    let serial = SweepRunner::serial();
    let mut checked = 0;
    let mut mismatches = Vec::new();
    for e in entries {
        let name = e.get("design").and_then(Json::as_str).expect("design");
        let design = DesignRegistry::get(name).expect("registered design");
        let p = e.get("params").expect("params");
        let field = |k: &str| p.get(k).and_then(Json::as_f64).expect("param") as usize;
        let params =
            FifoParams::with_sync_stages(field("capacity"), field("width"), field("sync_stages"));
        let m = e.get("measurements").expect("measurements");
        let want = |k: &str| m.get(k).and_then(Json::as_f64);

        let t = throughput(design, params);
        let mut got = vec![("put", t.put), ("get", t.get)];
        if want("latency_min_ns").is_some() {
            let l = latency_with(design, params, LATENCY_STEPS, &serial);
            got.extend([("latency_min_ns", l.min_ns), ("latency_max_ns", l.max_ns)]);
        }
        for (key, value) in got {
            let expected = want(key).expect("golden value");
            if value.to_bits() != expected.to_bits() {
                mismatches.push(format!("{name} {params} {key}: {value:?} != {expected:?}"));
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 2 * 24 + 2 * 12, "every grid value is compared");
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}
