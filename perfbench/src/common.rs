//! Pieces every workload shares: the run context, detection-quality
//! scoring against simulator truth, repeated set-ups and latency
//! summaries.

use crate::fleet::is_replay;
use crate::report::Outcome;
use crate::stats::{median, ms, Dist};
use softlora::{ServerVerdict, SoftLoraVerdict};
use softlora_sim::UplinkDeliveries;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Groups per `process_batch` call on the in-process workloads.
pub const BATCH: usize = 8;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;
/// Groups every set-up pushes through its fresh server (its warm-up).
pub const WARMUP_GROUPS: usize = 64;
/// Timing starts here, once each of the 96 meters has sent five uplinks
/// and the attack has begun. The kept server processes the groups from
/// [`WARMUP_GROUPS`] up to this point untimed: a fresh server's first
/// uplinks per device run slower than its steady state. Both counts are
/// multiples of [`BATCH`], so batch boundaries do not depend on them.
pub const STEADY_FROM: usize = 480;

pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where stores and span files go: `out/` beside the benchmark's
    /// manifest, inside the checkout (on disk, not tmpfs).
    pub out_dir: PathBuf,
}

impl Ctx {
    /// A fresh, empty directory for one store of this run.
    pub fn store_dir(&self, label: &str) -> PathBuf {
        let dir = self.out_dir.join(format!("store-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// Whether the server raised any replay evidence for the uplink.
pub fn flagged(v: &ServerVerdict) -> bool {
    v.is_replay_flagged() || matches!(v.verdict, SoftLoraVerdict::ReplayDetected { .. })
}

/// Scores the offered uplinks against simulator truth and sets
/// `answered_frac`/`failed_frac`, `replays_caught_frac` and
/// `honest_pass_frac`/`false_alarm_frac`. An uplink without a verdict
/// counts as answered by nobody and flagged by nobody.
pub fn score(out: &mut Outcome, offered: &[UplinkDeliveries], verdicts: &HashMap<u64, bool>) {
    let n = offered.len();
    let answered = offered.iter().filter(|g| verdicts.contains_key(&g.uplink)).count();
    let (replays, honest): (Vec<_>, Vec<_>) = offered.iter().partition(|g| is_replay(g));
    let caught = replays.iter().filter(|g| verdicts.get(&g.uplink) == Some(&true)).count();
    let alarms = honest.iter().filter(|g| verdicts.get(&g.uplink) == Some(&true)).count();
    let frac = |k: usize, of: usize| (of > 0).then(|| k as f64 / of as f64);
    out.set("answered_frac", frac(answered, n), n);
    out.set("failed_frac", frac(n - answered, n), n);
    out.set("replays_caught_frac", frac(caught, replays.len()), replays.len());
    out.set("honest_pass_frac", frac(honest.len() - alarms, honest.len()), honest.len());
    out.set("false_alarm_frac", frac(alarms, honest.len()), honest.len());
}

/// Sets a median and a 99th percentile from raw samples.
pub fn latency(out: &mut Outcome, p50: &'static str, p99: &'static str, samples: Vec<f64>) {
    let d = Dist::new(samples);
    out.set(p50, d.quantile(0.5), d.len());
    out.set(p99, d.quantile(0.99), d.len());
}

/// Slices of the timed window; see [`timed_window`].
pub const SLICES: usize = 10;

/// One offered uplink of the timed window: when it was submitted (or
/// due, in an open loop) and when its verdict was committed, if ever.
pub struct Timed {
    pub from: Instant,
    pub done: Option<Instant>,
}

/// Sets `groups_per_s`, `commit_ms_p50`, `commit_ms_p95` and
/// `commit_ms_p99`. The window `[start, end)` is cut into [`SLICES`]
/// equal slices. Each slice gets a commit rate (commits inside it over
/// its length) and latency quantiles (of the uplinks submitted or due
/// inside it), and `groups_per_s`, the median and the p95 are the
/// median over the slices: a host stall that hits a slice or two does
/// not move them, a slower program moves every slice. The p99 is taken
/// over the whole window. An uplink never committed counts as committed
/// at `failed_at`, so it misses every limit.
pub fn timed_window(
    out: &mut Outcome,
    (start, end): (Instant, Instant),
    failed_at: Instant,
    uplinks: &[Timed],
) {
    let len = (end - start).as_secs_f64() / SLICES as f64;
    let slice = |t: Instant| {
        ((t.saturating_duration_since(start).as_secs_f64() / len) as usize).min(SLICES - 1)
    };
    let latency = |u: &Timed| ms(u.done.unwrap_or(failed_at).saturating_duration_since(u.from));
    let mut latencies = vec![Vec::new(); SLICES];
    let mut commits = [0usize; SLICES];
    for u in uplinks {
        latencies[slice(u.from)].push(latency(u));
        if let Some(done) = u.done.filter(|&d| d >= start && d < end) {
            commits[slice(done)] += 1;
        }
    }
    let slices: Vec<Dist> = latencies.into_iter().map(Dist::new).collect();
    let median_over_slices =
        |q: f64| Dist::new(slices.iter().filter_map(|d| d.quantile(q)).collect()).quantile(0.5);
    let rates = Dist::new(commits.iter().map(|&c| c as f64 / len).collect());
    out.set("groups_per_s", rates.quantile(0.5), commits.iter().sum());
    out.set("commit_ms_p50", median_over_slices(0.5), uplinks.len());
    out.set("commit_ms_p95", median_over_slices(0.95), uplinks.len());
    let all = Dist::new(uplinks.iter().map(latency).collect());
    out.set("commit_ms_p99", all.quantile(0.99), all.len());
}

/// Runs `set_up` [`SETUPS`] times and keeps the last set-up; `discard`
/// tears each earlier one down, untimed. Sets `setup_s` to the median.
/// The heap peak is reset afterwards: the kept set-up stays counted
/// (its memory is live), the churn of the discarded ones does not.
pub fn set_up_repeatedly<T>(
    out: &mut Outcome,
    mut set_up: impl FnMut(usize) -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<T, String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for k in 0..SETUPS {
        if let Some(earlier) = kept.take() {
            discard(earlier)?;
        }
        let t = Instant::now();
        kept = Some(set_up(k)?);
        times.push(t.elapsed().as_secs_f64());
    }
    out.set("setup_s", Some(median(&times)), times.len());
    crate::heap::reset_peak();
    Ok(kept.expect("at least one set-up"))
}

/// Logical CPUs, for the busy share.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}
