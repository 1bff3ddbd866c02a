//! Metric catalogue and output. Every workload fills what it measures;
//! the human-readable table lists every metric with its unit and sample
//! count, and the last stdout line is the JSON result object.

use std::collections::BTreeMap;

/// Where a metric is reported.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Gated end-to-end metric, measured on every workload, untraced.
    EndToEnd,
    /// Shown in the table only. `failed_frac` and `false_alarm_frac` are
    /// gated through their complements, `commit_ms_p99` through the
    /// steadier `commit_ms_p95`.
    TableOnly,
    /// Per-layer metric, in the JSON of traced runs. A layer the
    /// workload does not exercise reads 0 there.
    Layer,
}

pub const CATALOGUE: &[(&str, &str, Kind)] = &[
    ("setup_s", "s", Kind::EndToEnd),
    ("peak_heap_mb", "MB", Kind::EndToEnd),
    ("groups_per_s", "1/s", Kind::EndToEnd),
    ("answered_frac", "share", Kind::EndToEnd),
    ("replays_caught_frac", "share", Kind::EndToEnd),
    ("honest_pass_frac", "share", Kind::EndToEnd),
    ("commit_ms_p50", "ms", Kind::EndToEnd),
    ("commit_ms_p95", "ms", Kind::EndToEnd),
    ("commit_ms_p99", "ms", Kind::TableOnly),
    ("failed_frac", "share", Kind::TableOnly),
    ("false_alarm_frac", "share", Kind::TableOnly),
    ("scenario_gen_s", "s", Kind::TableOnly),
    ("host.steal_frac", "share", Kind::TableOnly),
    ("pipeline.radio_us_mean", "us", Kind::Layer),
    ("pipeline.capture_us_mean", "us", Kind::Layer),
    ("pipeline.onset_us_mean", "us", Kind::Layer),
    ("pipeline.fb_us_mean", "us", Kind::Layer),
    ("pipeline.decoded_frac", "share", Kind::Layer),
    ("pipeline.busy_share", "share", Kind::Layer),
    ("server.batch_ms_p50", "ms", Kind::Layer),
    ("server.commit_us_mean", "us", Kind::Layer),
    ("server.failed_groups", "count", Kind::Layer),
    ("store.wal_append_us_mean", "us", Kind::Layer),
    ("store.sync_ms_p50", "ms", Kind::Layer),
    ("store.durable_ms_p50", "ms", Kind::Layer),
    ("store.durable_ms_p99", "ms", Kind::Layer),
    ("store.wal_bytes_per_group", "B", Kind::Layer),
    ("store.recover_ms", "ms", Kind::Layer),
    ("store.recover_records_per_s", "1/s", Kind::Layer),
    ("net.ack_us_p50", "us", Kind::Layer),
    ("net.ack_us_p99", "us", Kind::Layer),
    ("net.datagrams_per_group", "count", Kind::Layer),
    ("net.keepalive_frac", "share", Kind::Layer),
    ("net.barrier_wait_ms_mean", "ms", Kind::Layer),
    ("net.commit_batch_groups_mean", "count", Kind::Layer),
    ("net.commit_stalls", "count", Kind::Layer),
    ("net.gen_late_ms_p99", "ms", Kind::Layer),
    ("ha.poll_us_mean", "us", Kind::Layer),
    ("ha.lag_records_max", "count", Kind::Layer),
    ("ha.shipped_bytes_per_group", "B", Kind::Layer),
    ("ha.resends", "count", Kind::Layer),
    ("ha.promote_ms", "ms", Kind::Layer),
    ("ha.replica_lag_ms_p50", "ms", Kind::Layer),
    ("ha.replica_lag_ms_p99", "ms", Kind::Layer),
    ("ha.failover_ms", "ms", Kind::Layer),
    ("trace.residual_ms_mean", "ms", Kind::Layer),
    ("trace.overhead_frac", "share", Kind::Layer),
];

/// One measured value and the number of samples behind it.
#[derive(Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub samples: u64,
}

/// What a workload run produced.
pub struct Outcome {
    /// Uplinks offered in the timed window (on `verdict-mixed`, in its
    /// fixed counted span, which covers the window).
    pub offered: u64,
    /// Offered uplinks that got no verdict.
    pub failed: u64,
    /// Output-check failures; empty means correct.
    pub problems: Vec<String>,
    metrics: BTreeMap<&'static str, Metric>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome { offered: 0, failed: 0, problems: Vec::new(), metrics: BTreeMap::new() }
    }

    /// Sets a metric from the catalogue; `None` leaves it unmeasured.
    pub fn set(&mut self, name: &'static str, value: Option<f64>, samples: usize) {
        assert!(CATALOGUE.iter().any(|(n, _, _)| *n == name), "{name} is not in the catalogue");
        if let Some(value) = value {
            self.metrics.insert(name, Metric { value, samples: samples as u64 });
        }
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Prints the table, then the JSON result line.
    pub fn print(&self, workload: &str, seed: u64, traced: bool) {
        println!(
            "perfbench {workload} seed {seed} ({})",
            if traced { "traced" } else { "untraced" }
        );
        for (name, unit, kind) in CATALOGUE {
            let tag = match kind {
                Kind::EndToEnd => "e2e  ",
                Kind::TableOnly => "     ",
                Kind::Layer => "layer",
            };
            match self.metrics.get(name) {
                Some(m) => {
                    let tail = if name.ends_with("_p99") {
                        let n = m.samples as f64;
                        let beyond = m.samples - (0.99 * n).ceil() as u64;
                        if beyond >= 10 {
                            ", tail valid"
                        } else {
                            ", tail INVALID: <10 beyond"
                        }
                    } else {
                        ""
                    };
                    println!(
                        "  {tag} {name:<30} {:>14.4} {unit:<6} (n={}{tail})",
                        m.value, m.samples
                    );
                }
                None => println!("  {tag} {name:<30} {:>14} {unit:<6}", "n/a"),
            }
        }
        for p in &self.problems {
            println!("  CHECK FAILED: {p}");
        }
        let wanted = if traced { Kind::Layer } else { Kind::EndToEnd };
        let fields: Vec<String> = CATALOGUE
            .iter()
            .filter(|(_, _, kind)| *kind == wanted)
            .map(|(name, unit, _)| {
                let value = self.metrics.get(name).map_or(0.0, |m| m.value);
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(value))
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.offered.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

/// A finite JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
