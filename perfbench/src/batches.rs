//! The closed-loop batch runner shared by the in-process workloads and
//! the output checks: fixed-size batches into
//! `NetworkServer::process_batch`, verdicts collected through a
//! `ServerObserver`.
//!
//! A front-half failure aborts `process_batch` after committing the
//! groups before the failing one (their verdicts reach observers but
//! are not returned). The runner then resubmits the groups after the
//! failing one. It never retries the failing group: that uplink is
//! counted as failed.

use crate::common::{flagged, Timed, BATCH};
use crate::stats::ms;
use crate::trace::Tracer;
use softlora::{NetworkServer, ServerObserver, ServerVerdict, SoftLoraError};
use softlora_sim::UplinkDeliveries;
use std::hash::Hasher;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What the output checks need of one verdict, kept instead of the
/// verdict itself so that the benchmark's memory does not grow with
/// the verdicts it has seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seen {
    pub uplink: u64,
    pub flagged: bool,
    /// [`digest`] of the whole verdict.
    pub digest: u64,
}

/// A hash of every field of a verdict (through its `Debug` form, which
/// prints them all), for equality checks between runs of one process.
pub fn digest(verdict: &ServerVerdict) -> u64 {
    struct Hash(std::collections::hash_map::DefaultHasher);
    impl std::fmt::Write for Hash {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut h = Hash(std::collections::hash_map::DefaultHasher::new());
    std::fmt::write(&mut h, format_args!("{verdict:?}")).expect("hashing cannot fail");
    h.0.finish()
}

impl Seen {
    pub fn new(uplink: u64, verdict: &ServerVerdict) -> Seen {
        Seen { uplink, flagged: flagged(verdict), digest: digest(verdict) }
    }
}

/// Everything the server told its observer.
#[derive(Default)]
pub struct Collector {
    pub verdicts: Vec<Seen>,
    pub errors: Vec<(u64, String)>,
}

impl Collector {
    /// A shareable collector with room for `n` verdicts.
    pub fn with_room(n: usize) -> Arc<Mutex<Collector>> {
        Arc::new(Mutex::new(Collector { verdicts: Vec::with_capacity(n), errors: Vec::new() }))
    }
}

impl ServerObserver for Collector {
    fn on_verdict(&mut self, uplink: u64, verdict: &ServerVerdict) {
        self.verdicts.push(Seen::new(uplink, verdict));
    }

    fn on_error(&mut self, uplink: u64, error: &SoftLoraError) {
        self.errors.push((uplink, error.to_string()));
    }
}

/// What one submitted batch produced.
pub struct Submitted {
    /// Commit instant of each new verdict, in verdict order.
    pub commit_times: Vec<Instant>,
    /// Uplinks whose group failed.
    pub failed: Vec<u64>,
}

/// Handles one batch: [`BatchRunner::submit`] plus whatever a workload
/// does after it (`durable-replica` syncs the store). With a tracer,
/// its spans go under the given parent.
pub type Step<'a> = dyn FnMut(
        &mut BatchRunner,
        &[UplinkDeliveries],
        Option<(&mut Tracer, usize)>,
    ) -> Result<Submitted, String>
    + 'a;

/// What a closed-loop timed window produced. Made with
/// [`Window::with_room`] before the heap baseline.
pub struct Window {
    pub start: Instant,
    pub end: Instant,
    /// One past the last group offered.
    pub end_idx: usize,
    /// Every uplink offered in the window.
    pub timed: Vec<Timed>,
    /// Batch submit → commit, ms, per committed uplink, and whether its
    /// batch was traced.
    pub latencies: Vec<(f64, bool)>,
    /// Offered uplinks whose group failed.
    pub failed: Vec<u64>,
    /// Per traced batch: its time minus the spans inside it, ms.
    pub residuals: Vec<f64>,
    /// Time spent inside `process_batch` during the window.
    pub busy: Duration,
}

impl Window {
    /// An empty window with room for `n` uplinks.
    pub fn with_room(n: usize) -> Window {
        let now = Instant::now();
        Window {
            start: now,
            end: now,
            end_idx: 0,
            timed: Vec::with_capacity(n),
            latencies: Vec::with_capacity(n),
            failed: Vec::new(),
            residuals: Vec::new(),
            busy: Duration::ZERO,
        }
    }
}

pub struct BatchRunner {
    pub server: NetworkServer,
    sink: Arc<Mutex<Collector>>,
    /// Total time spent inside `process_batch`.
    pub busy: Duration,
}

impl BatchRunner {
    pub fn new(server: NetworkServer) -> BatchRunner {
        BatchRunner::with_sink(server, Arc::default())
    }

    /// A runner whose verdicts go to `sink`, emptied first (its room
    /// is kept).
    pub fn with_sink(mut server: NetworkServer, sink: Arc<Mutex<Collector>>) -> BatchRunner {
        {
            let mut c = sink.lock().expect("collector poisoned");
            c.verdicts.clear();
            c.errors.clear();
        }
        server.attach_observer(Box::new(Arc::clone(&sink)));
        BatchRunner { server, sink, busy: Duration::ZERO }
    }

    pub fn collected(&self) -> std::sync::MutexGuard<'_, Collector> {
        self.sink.lock().expect("collector poisoned")
    }

    fn counts(&self) -> (usize, usize) {
        let c = self.collected();
        (c.verdicts.len(), c.errors.len())
    }

    /// Submits `batch`, resubmitting after each failed group. With a
    /// tracer, every `process_batch` call becomes a span under `parent`.
    ///
    /// # Errors
    ///
    /// When the server reports a failure the runner cannot place in the
    /// batch.
    pub fn submit(
        &mut self,
        batch: &[UplinkDeliveries],
        mut trace: Option<(&mut Tracer, usize)>,
    ) -> Result<Submitted, String> {
        let mut out = Submitted { commit_times: Vec::new(), failed: Vec::new() };
        let mut rest = batch;
        while !rest.is_empty() {
            let (verdicts_before, errors_before) = self.counts();
            let start = Instant::now();
            let result = self.server.process_batch(rest);
            let end = Instant::now();
            self.busy += end - start;
            if let Some((tracer, parent)) = trace.as_mut() {
                tracer.record("process_batch", start, end, Some(*parent), rest[0].uplink);
            }
            let (verdicts_after, errors_after) = self.counts();
            out.commit_times.extend(std::iter::repeat_n(end, verdicts_after - verdicts_before));
            match result {
                Ok(_) => break,
                Err(e) => {
                    let reported = (errors_after > errors_before)
                        .then(|| self.collected().errors[errors_after - 1].0);
                    let Some(pos) =
                        reported.and_then(|uplink| rest.iter().position(|g| g.uplink == uplink))
                    else {
                        return Err(format!("unplaceable batch failure: {e}"));
                    };
                    out.failed.push(rest[pos].uplink);
                    rest = &rest[pos + 1..];
                }
            }
        }
        Ok(out)
    }

    /// Runs `groups` through `step` in batches of [`BATCH`], untimed.
    /// Returns the failed uplinks.
    pub fn run_untimed(
        &mut self,
        groups: &[UplinkDeliveries],
        step: &mut Step<'_>,
    ) -> Result<Vec<u64>, String> {
        let mut failed = Vec::new();
        for chunk in groups.chunks(BATCH) {
            failed.extend(step(self, chunk, None)?.failed);
        }
        Ok(failed)
    }

    /// The timed window of a closed loop: batches of [`BATCH`] from
    /// `groups[from..]` through `step`, one at a time, until `seconds`
    /// have passed, recorded into `w`. A traced run traces every other
    /// batch: a `batch` span with the step's spans under it.
    pub fn closed_loop(
        &mut self,
        mut w: Window,
        (groups, from): (&[UplinkDeliveries], usize),
        seconds: u64,
        tracer: &mut Tracer,
        step: &mut Step<'_>,
    ) -> Result<Window, String> {
        let busy_before = self.busy;
        w.start = Instant::now();
        w.end_idx = from;
        let deadline = w.start + Duration::from_secs(seconds);
        let mut k = 0;
        while Instant::now() < deadline && w.end_idx < groups.len() {
            let batch = &groups[w.end_idx..(w.end_idx + BATCH).min(groups.len())];
            let traced = tracer.traces(k);
            let t0 = Instant::now();
            let span = traced.then(|| tracer.open("batch", t0, None, batch[0].uplink));
            let s = step(self, batch, span.map(|s| (&mut *tracer, s)))?;
            let t1 = Instant::now();
            w.latencies.extend(s.commit_times.iter().map(|&c| (ms(c - t0), traced)));
            w.timed.extend(s.commit_times.iter().map(|&c| Timed { from: t0, done: Some(c) }));
            w.timed.extend(s.failed.iter().map(|_| Timed { from: t0, done: None }));
            w.failed.extend(s.failed);
            if let Some(span) = span {
                tracer.close(span, t1);
                let calls: f64 = tracer.spans()[span + 1..].iter().map(|s| s.ms()).sum();
                w.residuals.push(ms(t1 - t0) - calls);
            }
            w.end_idx += batch.len();
            k += 1;
        }
        w.end = Instant::now();
        w.busy = self.busy - busy_before;
        Ok(w)
    }
}
