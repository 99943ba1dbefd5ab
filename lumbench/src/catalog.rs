//! Every metric the benchmark reports, with its unit, and the sheet a run
//! fills in.
//!
//! The same names and units appear in `BENCHMARK.json` at the repository
//! root; a self-test keeps the two in step.

use crate::stats;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("mb_per_s", "MB/s"),
    ("peak_heap_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, reported by traced runs (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.frames_delivered", "count"),
    ("sim.timers_fired", "count"),
    ("sim.run_ms", "ms"),
    ("sim.self_ns_per_event", "ns"),
    ("rnic.requester.calls", "count"),
    ("rnic.requester.ns_per_call", "ns"),
    ("rnic.responder.calls", "count"),
    ("rnic.responder.ns_per_call", "ns"),
    ("switch.calls", "count"),
    ("switch.ns_per_call", "ns"),
    ("dumper.calls", "count"),
    ("dumper.ns_per_call", "ns"),
    ("dumper.rx_discards", "count"),
    ("packet.frames_allocated_per_pkt", "ratio"),
    ("packet.bytes_copied_per_pkt", "B"),
    ("packet.peak_live_frames", "count"),
    ("alloc.count_per_event", "ratio"),
    ("alloc.bytes_per_event", "B"),
    ("alloc.count_iqr_frac", "ratio"),
    ("telemetry.journal_records_per_event", "ratio"),
    ("telemetry.cost_ms", "ms"),
    ("core.config_us", "us"),
    ("core.build_ms", "ms"),
    ("core.collect_ms", "ms"),
    ("core.integrity_ms", "ms"),
    ("core.conformance_ms", "ms"),
    ("core.gbn_ms", "ms"),
    ("core.retrans_ms", "ms"),
    ("core.cnp_ms", "ms"),
    ("ingest.parse_ns_per_record", "ns"),
    ("ingest.recover_ns_per_record", "ns"),
    ("ingest.reconstruct_ns_per_record", "ns"),
    ("ingest.oracle_ns_per_record", "ns"),
    ("ingest.chunks", "count"),
    ("ingest.peak_resident_bytes", "B"),
    ("fuzz.mutate_us", "us"),
    ("fuzz.score_us", "us"),
    ("fuzz.events_per_run", "count"),
    ("fuzz.rejected_frac", "ratio"),
    ("fuzz.worker_busy_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-layer metric families a workload does not exercise. Their metrics
/// are reported as 0; every other metric must be measured.
pub fn unexercised(workload: &str) -> &'static [&'static str] {
    match workload {
        "fig11" | "fanout" => &["ingest.", "fuzz."],
        "campaign" => &["ingest."],
        "ingest" => &[
            "sim.",
            "rnic.",
            "switch.",
            "dumper.",
            "packet.",
            "alloc.",
            "telemetry.",
            "core.build_ms",
            "core.collect_ms",
            "core.integrity_ms",
            "fuzz.",
        ],
        _ => &[],
    }
}

/// Samples collected during one run, reduced to medians at the end.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Record one sample of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// All samples of `name` so far.
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of every sampled metric.
    pub fn medians(&self) -> BTreeMap<&'static str, f64> {
        self.0.iter().map(|(k, v)| (*k, stats::median(v))).collect()
    }
}

/// The metrics one run reports, in catalogue order.
#[derive(Debug, Clone, PartialEq)]
pub struct Sheet {
    /// `(name, unit, value)` triples.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Sheet {
    /// Build the sheet for `catalog` from measured `values`. Metrics in an
    /// `unexercised` family are reported as 0; any other metric missing
    /// from `values`, any value not finite, and any name `values` holds
    /// outside the catalogue is an error.
    pub fn build(
        catalog: &[(&'static str, &'static str)],
        unexercised: &[&str],
        values: &BTreeMap<&'static str, f64>,
    ) -> Result<Sheet, String> {
        if let Some(stray) = values
            .keys()
            .find(|k| !catalog.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {stray} is not in the catalogue"));
        }
        let mut metrics = Vec::with_capacity(catalog.len());
        for &(name, unit) in catalog {
            let skipped = unexercised.iter().any(|p| name.starts_with(p));
            let value = match (values.get(name), skipped) {
                (Some(v), _) => *v,
                (None, true) => 0.0,
                (None, false) => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push((name, unit, value));
        }
        Ok(Sheet { metrics })
    }
}
