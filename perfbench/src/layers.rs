//! Per-layer metrics read from registry deltas. Registry sums and
//! counts are exact; its quantiles are bucketed, so only means are used.

use crate::report::Outcome;
use crate::stats::Dist;
use crate::trace::RegistryDelta;

/// `core::pipeline`: mean stage times, the share of copies that pass the
/// radio stage, and stage time over the CPU time available to the calls
/// that ran them (`cpu_s`: call time × logical CPUs).
pub fn pipeline(out: &mut Outcome, delta: &RegistryDelta, cpu_s: f64) {
    let stages = [
        ("radio", "pipeline.radio_us_mean"),
        ("capture", "pipeline.capture_us_mean"),
        ("onset", "pipeline.onset_us_mean"),
        ("fb", "pipeline.fb_us_mean"),
    ];
    for (stage, metric) in stages {
        mean_us(out, metric, delta, "gateway_stage_ns", Some(("stage", stage)));
    }
    let (radio, _) = delta.histogram("gateway_stage_ns", Some(("stage", "radio")));
    let (capture, _) = delta.histogram("gateway_stage_ns", Some(("stage", "capture")));
    out.set(
        "pipeline.decoded_frac",
        (radio > 0).then(|| capture as f64 / radio as f64),
        radio as usize,
    );
    let (stages, stage_ns) = delta.histogram("gateway_stage_ns", None);
    out.set(
        "pipeline.busy_share",
        (cpu_s > 0.0).then(|| stage_ns as f64 / 1e9 / cpu_s),
        stages as usize,
    );
}

/// Sets `metric` to the mean of a nanosecond histogram's new samples,
/// in microseconds: `server.commit_us_mean` from `server_commit_ns`,
/// `store.wal_append_us_mean` from `store_wal_append_ns`, and so on.
pub fn mean_us(
    out: &mut Outcome,
    metric: &'static str,
    delta: &RegistryDelta,
    series: &str,
    label: Option<(&str, &str)>,
) {
    let (count, sum) = delta.histogram(series, label);
    out.set(metric, (count > 0).then(|| sum as f64 / count as f64 / 1e3), count as usize);
}

/// Tracing overhead: mean latency of traced items over untraced ones,
/// minus one. `latencies` holds `(ms, traced)` per uplink.
pub fn overhead(out: &mut Outcome, latencies: &[(f64, bool)]) {
    let half = |traced: bool| {
        Dist::new(latencies.iter().filter(|l| l.1 == traced).map(|l| l.0).collect()).mean()
    };
    if let (Some(on), Some(off)) = (half(true), half(false)) {
        out.set("trace.overhead_frac", Some(on / off - 1.0), latencies.len());
    }
}
