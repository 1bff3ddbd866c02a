//! `wire-paced`: loopback UDP into a `NetServer` whose tail persists with
//! a group-commit durability window. One generator thread on one data
//! socket plays every gateway (the listener keys on the gateway id, and
//! acks carry gateway and seq). Each uplink's copies go out at its
//! simulated transmit time, compressed to a fixed offered rate below
//! capacity (open loop), and every gateway sends a keepalive with its
//! honest watermark at a fixed interval, like a Semtech `PULL_DATA`.
//!
//! Latency is timed from each uplink's due time, so a stall that delays
//! the generator is charged to the uplinks behind it, and the
//! generator's own lateness is reported.

use crate::batches::{digest, BatchRunner};
use crate::common::{
    cpus, flagged, latency, score, set_up_repeatedly, timed_window, Ctx, Timed, BATCH, STEADY_FROM,
    WARMUP_GROUPS,
};
use crate::fleet::{Fleet, FleetShape};
use crate::report::Outcome;
use crate::stats::{ms, Dist};
use crate::trace::{registry_snapshot, RegistryDelta, Tracer};
use softlora_net::protocol::{decode_frame, encode_frame, encode_frame_into, Frame, PushData};
use softlora_net::{
    gateway_streams, NetError, NetRunReport, NetServer, NetServerConfig, WireUplink,
};
use softlora_sim::UplinkDeliveries;
use softlora_store::Encoder;
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Eight gateways at the default floor: every copy runs the full DSP.
pub const SHAPE: FleetShape = FleetShape { gateways: 8, loud: 8, devices: 96, attacked: 8 };
/// Offered uplink groups per second: under half the in-process capacity
/// of this fleet on 2 CPUs, so queues stay short.
const OFFERED_PER_S: f64 = 100.0;
/// Per-gateway keepalive (`PULL_DATA`) interval.
const KEEPALIVE: Duration = Duration::from_millis(10);
/// Group-commit fsync window of the store.
const DURABILITY_WINDOW: Duration = Duration::from_millis(5);
/// After the last due time, how long uplinks may still commit.
const DRAIN: Duration = Duration::from_secs(3);

/// One uplink's copies, as each gateway sends them.
type Copies = Vec<(u32, Vec<WireUplink>)>;

/// One datagram the generator sent.
struct Sent {
    at: Instant,
    gateway: u32,
    watermark: u64,
}

/// The single generator thread's socket and bookkeeping.
struct Generator {
    socket: UdpSocket,
    seqs: Vec<u64>,
    encoder: Encoder,
    /// Every datagram sent, in order (the barrier-wait source).
    log: Vec<Sent>,
    /// Data datagrams awaiting their ack: (gateway, seq) → send time.
    pending: HashMap<(u32, u64), Instant>,
    /// Send → ack of each data datagram, µs, with the ack's arrival.
    acks: Vec<(f64, Instant)>,
    /// Highest commit watermark seen and when each raise arrived.
    committed: u64,
    raises: Vec<(u64, Instant)>,
}

impl Generator {
    /// A generator for `gateways` gateways with room for `datagrams`
    /// sends and acks. It is made once, before the heap baseline, and
    /// [`Generator::connect`]ed to each set-up's listener.
    fn new(gateways: usize, datagrams: usize) -> Result<Generator, NetError> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.set_nonblocking(true)?;
        Ok(Generator {
            socket,
            seqs: vec![0; gateways],
            encoder: Encoder::new(),
            log: Vec::with_capacity(datagrams),
            pending: HashMap::with_capacity(1024),
            acks: Vec::with_capacity(datagrams),
            committed: 0,
            raises: Vec::with_capacity(datagrams),
        })
    }

    /// Points the generator at a fresh listener: new sequence numbers,
    /// no commits yet, acks left over from an earlier listener dropped.
    fn connect(&mut self, data: SocketAddr) -> Result<(), NetError> {
        self.socket.connect(data)?;
        let mut buf = [0u8; 256];
        while self.socket.recv(&mut buf).is_ok() {}
        self.seqs.fill(0);
        self.committed = 0;
        self.forget();
        Ok(())
    }

    /// Empties the records (their room is kept).
    fn forget(&mut self) {
        self.log.clear();
        self.pending.clear();
        self.acks.clear();
        self.raises.clear();
    }

    fn send(&mut self, frame: &Frame, gateway: u32, watermark: u64) -> Result<Instant, NetError> {
        self.encoder.clear();
        encode_frame_into(frame, &mut self.encoder);
        self.socket.send(self.encoder.as_bytes())?;
        let at = Instant::now();
        self.log.push(Sent { at, gateway, watermark });
        Ok(at)
    }

    /// Sends one uplink: one `PUSH_DATA` per gateway that holds copies.
    /// The copies move into each frame and back, uncloned. Returns the
    /// first and last send instants.
    fn send_uplink(
        &mut self,
        copies: &mut [(u32, Vec<WireUplink>)],
        watermark: u64,
    ) -> Result<(Instant, Instant), NetError> {
        let mut first = None;
        let mut last = Instant::now();
        for (gateway, uplinks) in copies {
            let g = *gateway as usize;
            let seq = self.seqs[g];
            self.seqs[g] += 1;
            let frame = Frame::PushData(PushData {
                gateway: *gateway,
                seq,
                watermark,
                uplinks: std::mem::take(uplinks),
            });
            let sent = self.send(&frame, *gateway, watermark);
            if let Frame::PushData(p) = frame {
                *uplinks = p.uplinks;
            }
            last = sent?;
            self.pending.insert((*gateway, seq), last);
            first.get_or_insert(last);
        }
        Ok((first.unwrap_or(last), last))
    }

    /// A keepalive from every gateway, carrying `watermark`.
    fn keepalives(&mut self, watermark: u64) -> Result<(), NetError> {
        for g in 0..self.seqs.len() {
            let seq = self.seqs[g];
            self.seqs[g] += 1;
            let frame = Frame::PullData { gateway: g as u32, seq, watermark };
            self.send(&frame, g as u32, watermark)?;
        }
        Ok(())
    }

    /// Sends `range` of the stream unpaced, a batch at a time (each batch
    /// acked before the next, so no burst overruns the listener's socket
    /// buffer), then keepalives until the commit watermark passes it.
    fn push(
        &mut self,
        groups: &[UplinkDeliveries],
        copies: &mut [Copies],
        range: std::ops::Range<usize>,
    ) -> Result<(), String> {
        let release = groups[range.end].uplink;
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut io = |gen: &mut Generator| -> Result<bool, NetError> {
            for from in range.clone().step_by(BATCH) {
                for i in from..(from + BATCH).min(range.end) {
                    gen.send_uplink(&mut copies[i], groups[i + 1].uplink)?;
                }
                while !gen.pending.is_empty() && Instant::now() < deadline {
                    gen.acks_until(Instant::now() + Duration::from_millis(1))?;
                }
            }
            while gen.committed < release && Instant::now() < deadline {
                gen.keepalives(release)?;
                gen.acks_until(Instant::now() + Duration::from_millis(1))?;
            }
            Ok(gen.committed >= release)
        };
        match io(self) {
            Ok(true) => Ok(()),
            Ok(false) => Err(format!("uplinks {range:?} never committed")),
            Err(e) => Err(format!("sending uplinks {range:?}: {e}")),
        }
    }

    /// Receives acks until `until`, stamping each on arrival.
    fn acks_until(&mut self, until: Instant) -> Result<(), NetError> {
        loop {
            let now = Instant::now();
            if now >= until {
                return Ok(());
            }
            if wait_readable(&self.socket, until - now)? {
                while self.recv_ack()? {}
            }
        }
    }

    /// Handles one ack if one arrives; `false` when none did.
    fn recv_ack(&mut self) -> Result<bool, NetError> {
        let mut buf = [0u8; 256];
        match self.socket.recv(&mut buf) {
            Ok(len) => {
                let at = Instant::now();
                if let Ok(
                    Frame::PushAck { gateway, seq, committed }
                    | Frame::PullAck { gateway, seq, committed },
                ) = decode_frame(&buf[..len])
                {
                    if let Some(sent) = self.pending.remove(&(gateway, seq)) {
                        self.acks.push(((at - sent).as_secs_f64() * 1e6, at));
                    }
                    if committed > self.committed {
                        self.committed = committed;
                        self.raises.push((committed, at));
                    }
                }
                Ok(true)
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(false)
            }
            Err(e) => Err(NetError::Io(e)),
        }
    }
}

/// Waits until `socket` is readable or `timeout` has passed; `true`
/// when readable. A socket read timeout would do, but the kernel rounds
/// it up to a scheduler tick (4 ms on a 250 Hz kernel), which would make
/// the generator late and stamp acks late; `ppoll` sleeps on a
/// high-resolution timer.
fn wait_readable(socket: &UdpSocket, timeout: Duration) -> std::io::Result<bool> {
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
    const POLLIN: c_short = 1;
    let mut fd = PollFd { fd: socket.as_raw_fd(), events: POLLIN, revents: 0 };
    let ts = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: c_long::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid-out values for the
    // whole call, `nfds` is 1 to match the single `fd`, and a null
    // sigmask leaves the thread's signal mask unchanged.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if ready < 0 {
        let e = std::io::Error::last_os_error();
        return if e.kind() == std::io::ErrorKind::Interrupted { Ok(false) } else { Err(e) };
    }
    Ok(ready > 0)
}

/// A listener serving on its own thread.
struct Listener {
    ctrl: SocketAddr,
    thread: JoinHandle<Result<NetRunReport, NetError>>,
    dir: PathBuf,
}

impl Listener {
    /// Sends `SHUTDOWN`, waits for the drain, and joins the thread.
    fn stop(self) -> Result<NetRunReport, NetError> {
        let ctrl = UdpSocket::bind("127.0.0.1:0")?;
        ctrl.connect(self.ctrl)?;
        ctrl.set_read_timeout(Some(Duration::from_secs(30)))?;
        ctrl.send(&encode_frame(&Frame::Shutdown { token: 1 }))?;
        let mut buf = [0u8; 256];
        let _ = ctrl.recv(&mut buf)?;
        self.thread.join().expect("listener thread panicked")
    }
}

/// Each group's copies, split per gateway as the gateways would send them.
fn per_uplink_copies(groups: &[UplinkDeliveries], gateways: usize) -> Vec<Copies> {
    let streams = gateway_streams(groups, gateways);
    let mut cursors = vec![0usize; gateways];
    groups
        .iter()
        .map(|group| {
            let mut copies = Vec::new();
            for (g, stream) in streams.iter().enumerate() {
                let from = cursors[g];
                while cursors[g] < stream.len() && stream[cursors[g]].uplink == group.uplink {
                    cursors[g] += 1;
                }
                if cursors[g] > from {
                    copies.push((g as u32, stream[from..cursors[g]].to_vec()));
                }
            }
            copies
        })
        .collect()
}

/// Builds the listener, points the generator at it and pushes the
/// warm-up groups through it.
fn set_up(
    ctx: &Ctx,
    fleet: &Fleet,
    (gen, copies): (&mut Generator, &mut [Copies]),
    k: usize,
) -> Result<Listener, String> {
    let dir = ctx.store_dir(&format!("wire-{k}"));
    let server = fleet
        .server()
        .with_persistence(&dir)
        .durability_window(DURABILITY_WINDOW)
        .try_build()
        .map_err(|e| format!("server build: {e}"))?;
    let net = NetServer::bind(server, NetServerConfig::default()).map_err(|e| e.to_string())?;
    let data = net.data_addr().map_err(|e| e.to_string())?;
    let ctrl = net.ctrl_addr().map_err(|e| e.to_string())?;
    let thread = std::thread::spawn(move || net.run());
    let listener = Listener { ctrl, thread, dir };
    gen.connect(data).map_err(|e| e.to_string())?;
    gen.push(&fleet.groups, copies, 0..WARMUP_GROUPS)?;
    Ok(listener)
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new();
    match run_inner(ctx, tracer, &mut out) {
        Ok(()) => {}
        Err(e) => out.problems.push(e),
    }
    out
}

fn run_inner(ctx: &Ctx, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let t = Instant::now();
    let want = STEADY_FROM + (OFFERED_PER_S * ctx.seconds as f64 * 1.25) as usize + 16;
    let fleet = Fleet::generate(SHAPE, ctx.seed, want);
    let groups = &fleet.groups;
    let mut copies = per_uplink_copies(groups, SHAPE.gateways);
    out.set("scenario_gen_s", Some(t.elapsed().as_secs_f64()), 1);
    // Room for every datagram (copies and keepalives) sent between two
    // `forget`s: the last set-up with the settle phase, or the window
    // with its drain.
    let keepalives = (ctx.seconds as usize + DRAIN.as_secs() as usize + 10)
        * (Duration::from_secs(1).as_millis() / KEEPALIVE.as_millis()) as usize
        * SHAPE.gateways;
    let mut gen = Generator::new(SHAPE.gateways, want * SHAPE.gateways + keepalives)
        .map_err(|e| e.to_string())?;
    let mut sends = Vec::with_capacity(want);
    let heap = crate::heap::baseline();

    let listener = set_up_repeatedly(
        out,
        |k| set_up(ctx, &fleet, (&mut gen, &mut copies), k),
        |listener| {
            let dir = listener.dir.clone();
            listener.stop().map_err(|e| format!("discarded set-up: {e}"))?;
            let _ = std::fs::remove_dir_all(dir);
            Ok(())
        },
    )?;
    gen.push(groups, &mut copies, WARMUP_GROUPS..STEADY_FROM)?;

    // Due times: transmit times compressed to the offered rate.
    let first = STEADY_FROM;
    let span_s = groups.last().expect("groups").tx_start_global_s - groups[first].tx_start_global_s;
    let compression = span_s / ((groups.len() - 1 - first) as f64 / OFFERED_PER_S);
    let before = registry_snapshot();
    gen.forget();
    let start = Instant::now();
    let window = Duration::from_secs(ctx.seconds);
    let due = |i: usize| {
        start
            + Duration::from_secs_f64(
                (groups[i].tx_start_global_s - groups[first].tx_start_global_s) / compression,
            )
    };
    let end_idx =
        (first..groups.len() - 1).find(|&i| due(i) >= start + window).unwrap_or(groups.len() - 1);
    let last_uplink = groups[end_idx - 1].uplink;
    // Per offered uplink (`sends`): due time, first send, last send.
    let mut next_keepalive = start;
    let mut i = first;
    let drain_until = due(end_idx - 1) + DRAIN;
    let io = (|| loop {
        let now = Instant::now();
        while i < end_idx && due(i) <= now {
            let (a, b) = gen.send_uplink(&mut copies[i], groups[i + 1].uplink)?;
            if tracer.traces(i - first) {
                tracer.record("send_uplink", a, b, None, groups[i].uplink);
            }
            sends.push((due(i), a, b));
            i += 1;
        }
        if now >= next_keepalive {
            gen.keepalives(groups[i].uplink)?;
            next_keepalive += KEEPALIVE;
        }
        if i == end_idx && (gen.committed > last_uplink || now >= drain_until) {
            return Ok::<(), NetError>(());
        }
        let next = if i < end_idx { due(i).min(next_keepalive) } else { next_keepalive };
        gen.acks_until(next)?;
    })();
    let end = Instant::now();
    io.map_err(|e| format!("generator: {e}"))?;
    let delta = RegistryDelta::new(before, registry_snapshot());
    out.set("peak_heap_mb", Some(crate::heap::peak_mb(heap)), 1);

    // Commit time of each offered uplink: the first ack whose commit
    // watermark passes it. Uncommitted uplinks miss every limit.
    let offered = &groups[first..end_idx];
    let mut commits: Vec<Option<Instant>> = Vec::with_capacity(offered.len());
    let mut r = gen.raises.iter().peekable();
    for g in offered {
        while r.peek().is_some_and(|(c, _)| *c <= g.uplink) {
            r.next();
        }
        commits.push(r.peek().map(|&&(_, at)| at));
    }
    let lat: Vec<f64> =
        sends.iter().zip(&commits).map(|(&(due, _, _), c)| ms(c.unwrap_or(end) - due)).collect();
    let timed: Vec<Timed> =
        sends.iter().zip(&commits).map(|(&(due, _, _), &done)| Timed { from: due, done }).collect();
    // The window closes at the last due uplink's send.
    let closed = sends.last().map_or(start + window, |&(_, _, last)| last);
    timed_window(out, (start, closed), end, &timed);
    // Only uplinks committed before the deadline count as answered.
    let in_time: std::collections::HashSet<u64> =
        offered.iter().zip(&commits).filter(|(_, c)| c.is_some()).map(|(g, _)| g.uplink).collect();
    out.offered = offered.len() as u64;
    out.failed = (offered.len() - in_time.len()) as u64;

    // Per-layer numbers from the generator's own logs.
    let acks: Vec<f64> = gen.acks.iter().map(|&(us, _)| us).collect();
    latency(out, "net.ack_us_p50", "net.ack_us_p99", acks);
    let late = Dist::new(sends.iter().map(|&(due, a, _)| ms(a - due)).collect());
    out.set("net.gen_late_ms_p99", late.quantile(0.99), late.len());
    let barrier = barrier_waits(&gen.log, SHAPE.gateways, offered, &sends);
    let waits = Dist::new(barrier.iter().map(|&(w, _)| w).collect());
    out.set("net.barrier_wait_ms_mean", waits.mean(), waits.len());
    let datagrams = delta.counter("net_datagrams_total");
    let keepalives = delta.counter("net_keepalives_total");
    out.set(
        "net.datagrams_per_group",
        Some(datagrams as f64 / offered.len() as f64),
        offered.len(),
    );
    out.set(
        "net.keepalive_frac",
        (datagrams > 0).then(|| keepalives as f64 / datagrams as f64),
        datagrams as usize,
    );
    let (batches, batch_groups) = delta.histogram("net_commit_batch_size", None);
    let mean_batch = (batches > 0).then(|| batch_groups as f64 / batches as f64);
    out.set("net.commit_batch_groups_mean", mean_batch, batches as usize);
    out.set("net.commit_stalls", Some(delta.counter("net_commit_stalls_total") as f64), 1);
    crate::layers::pipeline(out, &delta, (end - start).as_secs_f64() * cpus() as f64);
    crate::layers::mean_us(out, "server.commit_us_mean", &delta, "server_commit_ns", None);
    crate::layers::mean_us(out, "store.wal_append_us_mean", &delta, "store_wal_append_ns", None);
    if tracer.active {
        let mut residuals = Vec::new();
        let mut traced = Vec::with_capacity(lat.len());
        for (k, ((&(due, a, _), c), &(wait, lift))) in
            sends.iter().zip(&commits).zip(&barrier).enumerate()
        {
            let on = tracer.traces(k);
            traced.push((lat[k], on));
            let (Some(c), true) = (c, on) else { continue };
            let uplink = offered[k].uplink;
            let root = tracer.record("uplink", due, *c, None, uplink);
            tracer.record("gen_late", due, a, Some(root), uplink);
            tracer.record(
                "barrier_wait",
                lift - Duration::from_secs_f64(wait / 1e3),
                lift,
                Some(root),
                uplink,
            );
            residuals.push(lat[k] - ms(a - due) - wait);
        }
        let d = Dist::new(residuals);
        out.set("trace.residual_ms_mean", d.mean(), d.len());
        crate::layers::overhead(out, &traced);
    }

    // Shut down (drains every released group), then check the wire
    // verdicts against an in-process `process_batch` of the same groups.
    let dir = listener.dir.clone();
    let report = listener.stop();
    let _ = std::fs::remove_dir_all(dir);
    let mut oracle = BatchRunner::new(fleet.server().build());
    let oracle_failed = oracle.run_untimed(&groups[..end_idx], &mut BatchRunner::submit)?;
    let expected: HashMap<u64, (bool, u64)> =
        oracle.collected().verdicts.iter().map(|v| (v.uplink, (v.flagged, v.digest))).collect();
    match report {
        Ok(report) => {
            out.check(report.verdicts.len() == end_idx, || {
                format!("{} wire verdicts for {end_idx} uplinks sent", report.verdicts.len())
            });
            let mismatched = report
                .verdicts
                .iter()
                .filter(|(u, v)| expected.get(u) != Some(&(flagged(v), digest(v))))
                .count();
            out.check(mismatched == 0, || {
                format!("{mismatched} wire verdicts differ from process_batch")
            });
            let verdicts: HashMap<u64, bool> = report
                .verdicts
                .iter()
                .filter(|(u, _)| in_time.contains(u))
                .map(|(u, v)| (*u, flagged(v)))
                .collect();
            score(out, offered, &verdicts);
            out.set("server.failed_groups", Some(0.0), offered.len());
        }
        Err(e) => {
            // The commit worker stops at its first failed group. The
            // in-process path must fail there too; every uplink the
            // worker never committed counts as failed.
            let first_fail = oracle_failed.first().copied();
            out.check(first_fail.is_some_and(|f| f >= gen.committed), || {
                format!(
                    "listener failed ({e}) but process_batch did not fail at or after uplink {}",
                    gen.committed
                )
            });
            let verdicts: HashMap<u64, bool> = expected
                .iter()
                .filter(|(u, _)| in_time.contains(u))
                .map(|(u, &(flagged, _))| (*u, flagged))
                .collect();
            score(out, offered, &verdicts);
            out.set("server.failed_groups", Some(out.failed as f64), offered.len());
        }
    }
    Ok(())
}

/// For each offered uplink: the time from its last copy's send to the
/// send that lifted every gateway's watermark past it (ms), and that
/// lifting send's instant.
fn barrier_waits(
    log: &[Sent],
    gateways: usize,
    offered: &[UplinkDeliveries],
    sends: &[(Instant, Instant, Instant)],
) -> Vec<(f64, Instant)> {
    // Per gateway, its sends in order; watermarks never decrease.
    let mut per_gateway: Vec<Vec<&Sent>> = vec![Vec::new(); gateways];
    for s in log {
        per_gateway[s.gateway as usize].push(s);
    }
    let mut cursors = vec![0usize; gateways];
    offered
        .iter()
        .zip(sends)
        .map(|(g, &(_, _, last))| {
            let mut lift = last;
            for (k, list) in per_gateway.iter().enumerate() {
                while cursors[k] < list.len() && list[cursors[k]].watermark <= g.uplink {
                    cursors[k] += 1;
                }
                if let Some(s) = list.get(cursors[k]) {
                    lift = lift.max(s.at);
                }
            }
            (ms(lift.saturating_duration_since(last)), lift)
        })
        .collect()
}
