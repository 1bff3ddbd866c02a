//! `durable-replica`: in-process `process_batch` in small batches, each
//! followed by `sync_persistence` (synchronous durability). A `Shipper`
//! commit hook feeds a `Follower` that a second benchmark thread pumps
//! and polls. At the end the primary is abandoned (a hard kill), the
//! follower drains and is promoted, and the primary's store is reopened
//! cold. The store's write path (WAL append + fsync) and its read path
//! (recovery, follower apply, promote) sit side by side; replica lag,
//! failover and recovery contain no DSP.

use crate::batches::{BatchRunner, Collector, Seen, Submitted, Window};
use crate::common::{
    cpus, latency, score, set_up_repeatedly, timed_window, Ctx, BATCH, SETUPS, STEADY_FROM,
    WARMUP_GROUPS,
};
use crate::fleet::{Fleet, FleetShape};
use crate::report::Outcome;
use crate::stats::{ms, Dist};
use crate::trace::{registry_snapshot, RegistryDelta, Tracer};
use softlora::{fsck_store, NetworkServer};
use softlora_ha::{Follower, Shipper, ShipperConfig};
use softlora_sim::UplinkDeliveries;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const SHAPE: FleetShape = FleetShape { gateways: 2, loud: 2, devices: 96, attacked: 8 };
/// Generated groups per second of run: about three times today's rate.
const GROUPS_PER_S: usize = 2500;
/// Pause between follower polls.
const POLL_SLEEP: Duration = Duration::from_micros(200);
/// How long a drain before promotion may take before the run fails.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// What the follower thread saw.
struct FollowerLog {
    /// `Follower::poll` calls and their total time.
    polls: u64,
    poll_time: Duration,
    /// Polls that raised the applied sequence, as `(start, end, seq
    /// after)`.
    applying_polls: Vec<(Instant, Instant, u64)>,
    lag_max: u64,
    /// Span around `Follower::promote`.
    promote: (Instant, Instant),
}

impl FollowerLog {
    /// An empty log with room for `n` applying polls.
    fn with_room(n: usize) -> FollowerLog {
        let now = Instant::now();
        FollowerLog {
            polls: 0,
            poll_time: Duration::ZERO,
            applying_polls: Vec::with_capacity(n),
            lag_max: 0,
            promote: (now, now),
        }
    }
}

/// The primary, its replication hook, and the thread driving the follower.
struct Pair {
    primary: BatchRunner,
    dirs: [PathBuf; 2],
    /// Set to the primary's final sequence to drain and promote.
    promote_at: Arc<AtomicU64>,
    thread: JoinHandle<Result<(NetworkServer, FollowerLog), String>>,
}

impl Pair {
    /// Stops the primary (a hard kill without a flush, or an orderly
    /// drop), drains the follower, promotes it, and returns the promoted
    /// server with the follower's log and the stop instant.
    fn fail_over(self, hard_kill: bool) -> Result<(NetworkServer, FollowerLog, Instant), String> {
        let target = self.primary.server.global_seq();
        let killed = Instant::now();
        if hard_kill {
            self.primary.server.abandon();
        } else {
            drop(self.primary);
        }
        self.promote_at.store(target, Ordering::SeqCst);
        let (promoted, log) = self.thread.join().expect("follower thread panicked")?;
        Ok((promoted, log, killed))
    }
}

fn follower_thread(
    mut follower: Follower,
    shipper: Arc<Shipper>,
    promote_at: Arc<AtomicU64>,
    mut log: FollowerLog,
) -> Result<(NetworkServer, FollowerLog), String> {
    let mut last = 0;
    let mut drain_deadline = None;
    loop {
        shipper.pump().map_err(|e| format!("shipper pump: {e}"))?;
        let t0 = Instant::now();
        follower.poll().map_err(|e| format!("follower poll: {e}"))?;
        let t1 = Instant::now();
        log.polls += 1;
        log.poll_time += t1 - t0;
        log.lag_max = log.lag_max.max(follower.lag());
        let seq = follower.server().global_seq();
        if seq > last {
            log.applying_polls.push((t0, t1, seq));
            last = seq;
        }
        let target = promote_at.load(Ordering::SeqCst);
        if target != u64::MAX {
            if seq >= target && follower.lag() == 0 && shipper.pending_len() == 0 {
                let t = Instant::now();
                let promoted = follower.promote().map_err(|e| format!("promote: {e}"))?;
                log.promote = (t, Instant::now());
                return Ok((promoted, log));
            }
            let deadline = *drain_deadline.get_or_insert(t1 + DRAIN_LIMIT);
            if t1 > deadline {
                return Err(format!("follower stuck at {seq} of {target}"));
            }
        }
        std::thread::sleep(POLL_SLEEP);
    }
}

/// Submits one batch and makes it durable. Returns what the batch
/// produced and the instant it became durable.
fn durable_batch(
    runner: &mut BatchRunner,
    batch: &[UplinkDeliveries],
    mut trace: Option<(&mut Tracer, usize)>,
) -> Result<(Submitted, Instant), String> {
    let s =
        runner.submit(batch, trace.as_mut().map(|(tracer, parent)| (&mut **tracer, *parent)))?;
    let t = Instant::now();
    runner.server.sync_persistence().map_err(|e| format!("sync: {e}"))?;
    let durable = Instant::now();
    if let Some((tracer, parent)) = trace {
        tracer.record("sync_persistence", t, durable, Some(parent), batch[0].uplink);
    }
    Ok((s, durable))
}

/// [`durable_batch`] as a batch step.
fn durable_step(
    runner: &mut BatchRunner,
    batch: &[UplinkDeliveries],
    trace: Option<(&mut Tracer, usize)>,
) -> Result<Submitted, String> {
    Ok(durable_batch(runner, batch, trace)?.0)
}

/// Room for one set-up's records: the primary's verdicts and the
/// follower thread's log.
struct Room {
    sink: Arc<Mutex<Collector>>,
    log: FollowerLog,
}

impl Room {
    /// Room for `groups` verdicts and `batches` applying polls.
    fn new(groups: usize, batches: usize) -> Room {
        Room { sink: Collector::with_room(groups), log: FollowerLog::with_room(batches) }
    }
}

fn set_up(ctx: &Ctx, fleet: &Fleet, k: usize, room: Room) -> Result<Pair, String> {
    let dirs = [ctx.store_dir(&format!("primary-{k}")), ctx.store_dir(&format!("follower-{k}"))];
    let standby = fleet
        .server()
        .with_persistence(&dirs[1])
        .try_build()
        .map_err(|e| format!("follower build: {e}"))?;
    let mut follower = Follower::new(standby).map_err(|e| e.to_string())?;
    let addr = follower.local_addr().map_err(|e| e.to_string())?;
    let shipper =
        Arc::new(Shipper::new(addr, 0, ShipperConfig::default()).map_err(|e| e.to_string())?);
    let primary = fleet
        .server()
        .with_persistence(&dirs[0])
        .commit_hook(Arc::clone(&shipper) as Arc<dyn softlora::CommitHook>)
        .try_build()
        .map_err(|e| format!("primary build: {e}"))?;
    follower
        .subscribe(shipper.local_addr().map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let promote_at = Arc::new(AtomicU64::new(u64::MAX));
    let flag = Arc::clone(&promote_at);
    let thread = std::thread::spawn(move || follower_thread(follower, shipper, flag, room.log));
    let primary = BatchRunner::with_sink(primary, room.sink);
    let mut pair = Pair { primary, dirs, promote_at, thread };
    pair.primary.run_untimed(&fleet.groups[..WARMUP_GROUPS], &mut durable_step)?;
    Ok(pair)
}

/// Total size of the files under `dir`, bytes.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new();
    let mut dirs = Vec::new();
    if let Err(e) = run_inner(ctx, tracer, &mut out, &mut dirs) {
        out.problems.push(e);
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    out
}

fn run_inner(
    ctx: &Ctx,
    tracer: &mut Tracer,
    out: &mut Outcome,
    dirs: &mut Vec<PathBuf>,
) -> Result<(), String> {
    let t = Instant::now();
    let fleet = Fleet::generate(SHAPE, ctx.seed, STEADY_FROM + GROUPS_PER_S * ctx.seconds as usize);
    out.set("scenario_gen_s", Some(t.elapsed().as_secs_f64()), 1);
    let groups = &fleet.groups;
    let batches = groups.len().div_ceil(BATCH);
    // Only the kept (last) set-up's records get their room before the
    // heap baseline; the discarded set-ups' memory is not counted.
    let mut kept_room = Some(Room::new(groups.len(), batches));
    let window = Window::with_room(groups.len());
    let mut durable = Vec::with_capacity(batches); // per batch, submit → durable, ms
    let mut synced = Vec::with_capacity(batches); // (target seq, durable instant)
    let heap = crate::heap::baseline();

    let mut pair = set_up_repeatedly(
        out,
        |k| {
            let room = match k + 1 == SETUPS {
                true => kept_room.take().expect("one kept set-up"),
                false => Room::new(0, 0),
            };
            let pair = set_up(ctx, &fleet, k, room)?;
            dirs.extend(pair.dirs.iter().cloned());
            Ok(pair)
        },
        |pair| pair.fail_over(false).map(drop),
    )?;
    pair.primary.run_untimed(&groups[WARMUP_GROUPS..STEADY_FROM], &mut durable_step)?;

    // Timed window: batch → process_batch → sync_persistence, closed loop.
    let mut step = |runner: &mut BatchRunner,
                    batch: &[UplinkDeliveries],
                    trace: Option<(&mut Tracer, usize)>| {
        let t0 = Instant::now();
        let (s, done) = durable_batch(runner, batch, trace)?;
        durable.push(ms(done - t0));
        synced.push((runner.server.global_seq(), done));
        Ok(s)
    };
    let before = registry_snapshot();
    let w =
        pair.primary.closed_loop(window, (groups, STEADY_FROM), ctx.seconds, tracer, &mut step)?;
    let delta = RegistryDelta::new(before, registry_snapshot());

    let primary_verdicts: Vec<Seen> = std::mem::take(&mut pair.primary.collected().verdicts);
    let primary_failed: Vec<u64> = pair.primary.collected().errors.iter().map(|e| e.0).collect();
    let wal_bytes = dir_bytes(&pair.dirs[0]);
    let committed_total = pair.primary.server.stats().uplinks.max(1);
    let dir_a = pair.dirs[0].clone();
    let dir_b = pair.dirs[1].clone();

    // Failover: snapshots settle first so the three stores compare
    // byte-for-byte, then the kill → drain → promote is timed.
    pair.primary.server.drain_snapshots().map_err(|e| format!("drain snapshots: {e}"))?;
    let (promoted, log, killed) = pair.fail_over(true)?;

    // Cold reopen of the primary's store: snapshot + WAL replay.
    let recovered_before = registry_snapshot();
    let t = Instant::now();
    let recovered =
        fleet.server().with_persistence(&dir_a).try_build().map_err(|e| format!("recover: {e}"))?;
    let recover = t.elapsed();
    let recovered_seq = recovered.global_seq();
    drop(recovered);
    let records = RegistryDelta::new(recovered_before, registry_snapshot())
        .counter("store_recovered_records_total");
    // Read before the analysis below allocates.
    out.set("peak_heap_mb", Some(crate::heap::peak_mb(heap)), 1);

    timed_window(out, (w.start, w.end), w.end, &w.timed);
    let pos = w.end_idx;
    let offered = &groups[STEADY_FROM..pos];
    out.offered = offered.len() as u64;
    out.failed = w.failed.len() as u64;
    latency(out, "store.durable_ms_p50", "store.durable_ms_p99", durable);
    out.set("ha.failover_ms", Some(ms(log.promote.1 - killed)), 1);
    out.set("ha.promote_ms", Some(ms(log.promote.1 - log.promote.0)), 1);
    out.set(
        "ha.poll_us_mean",
        (log.polls > 0).then(|| log.poll_time.as_secs_f64() * 1e6 / log.polls as f64),
        log.polls as usize,
    );
    out.set("ha.lag_records_max", Some(log.lag_max as f64), log.polls as usize);
    let mut lags = Vec::with_capacity(synced.len());
    let mut a = log.applying_polls.iter().peekable();
    for &(target, done) in &synced {
        while a.peek().is_some_and(|(_, _, seq)| *seq < target) {
            a.next();
        }
        if let Some(&&(_, at, _)) = a.peek() {
            lags.push(if at >= done { ms(at - done) } else { -ms(done - at) });
        }
    }
    out.check(lags.len() == synced.len(), || {
        format!("{} of {} batches never replicated", synced.len() - lags.len(), synced.len())
    });
    latency(out, "ha.replica_lag_ms_p50", "ha.replica_lag_ms_p99", lags);
    out.set("store.recover_ms", Some(ms(recover)), 1);
    out.set(
        "store.recover_records_per_s",
        Some(records as f64 / recover.as_secs_f64()),
        records as usize,
    );
    out.check(recovered_seq == promoted.global_seq(), || {
        format!(
            "recovered primary at {recovered_seq} but promoted follower at {}",
            promoted.global_seq()
        )
    });

    // Per-layer numbers.
    crate::layers::pipeline(out, &delta, w.busy.as_secs_f64() * cpus() as f64);
    crate::layers::mean_us(out, "server.commit_us_mean", &delta, "server_commit_ns", None);
    crate::layers::mean_us(out, "store.wal_append_us_mean", &delta, "store_wal_append_ns", None);
    out.set(
        "store.wal_bytes_per_group",
        Some(wal_bytes as f64 / committed_total as f64),
        committed_total as usize,
    );
    let shipped = delta.counter("ha_shipped_bytes_total");
    let committed = w.latencies.len();
    out.set(
        "ha.shipped_bytes_per_group",
        (committed > 0).then(|| shipped as f64 / committed as f64),
        committed,
    );
    out.set("ha.resends", Some(delta.counter("ha_resends_total") as f64), 1);
    out.set("server.failed_groups", Some(w.failed.len() as f64), offered.len());
    if tracer.active {
        let d = Dist::new(tracer.durations_ms("process_batch"));
        out.set("server.batch_ms_p50", d.quantile(0.5), d.len());
        let d = Dist::new(tracer.durations_ms("sync_persistence"));
        out.set("store.sync_ms_p50", d.quantile(0.5), d.len());
        let d = Dist::new(w.residuals);
        out.set("trace.residual_ms_mean", d.mean(), d.len());
        crate::layers::overhead(out, &w.latencies);
        for &(t0, t1, seq) in &log.applying_polls {
            tracer.record("follower.poll", t0, t1, None, seq);
        }
        tracer.record("promote", log.promote.0, log.promote.1, None, 0);
        tracer.record("recover", t, t + recover, None, 0);
    }

    // Output checks, outside the window. An uninterrupted run over the
    // same batches must reproduce the verdicts, and its store, the
    // promoted follower's and the recovered primary's must digest equal.
    let dir_c = ctx.store_dir("uninterrupted");
    dirs.push(dir_c.clone());
    let mut reference = BatchRunner::new(
        fleet
            .server()
            .with_persistence(&dir_c)
            .try_build()
            .map_err(|e| format!("reference build: {e}"))?,
    );
    let reference_failed = reference.run_untimed(&groups[..pos], &mut durable_step)?;
    reference.server.drain_snapshots().map_err(|e| format!("reference snapshots: {e}"))?;
    out.check(reference.collected().verdicts == primary_verdicts, || {
        "primary verdicts differ from an uninterrupted run".to_string()
    });
    out.check(reference_failed == primary_failed, || {
        "primary failures differ from an uninterrupted run".to_string()
    });
    drop(reference);
    promoted.drain_snapshots().map_err(|e| format!("promoted snapshots: {e}"))?;
    drop(promoted);
    let digest = |dir: &Path| {
        fsck_store(dir).map(|r| r.digest()).map_err(|e| format!("fsck {}: {e}", dir.display()))
    };
    let (da, db, dc) = (digest(&dir_a)?, digest(&dir_b)?, digest(&dir_c)?);
    out.check(da == dc && db == dc, || {
        format!("store digests differ: recovered {da:x}, promoted {db:x}, uninterrupted {dc:x}")
    });

    let verdicts: HashMap<u64, bool> =
        primary_verdicts.iter().map(|v| (v.uplink, v.flagged)).collect();
    out.check(primary_verdicts.len() + primary_failed.len() == pos, || {
        format!(
            "{} verdicts + {} failures != {pos} uplinks offered",
            primary_verdicts.len(),
            primary_failed.len()
        )
    });
    score(out, offered, &verdicts);
    Ok(())
}
