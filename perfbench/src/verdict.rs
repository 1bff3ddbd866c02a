//! `verdict-mixed`: in-process `NetworkServer::process_batch`, closed
//! loop, fixed batch size, 2 shards, no persistence. The fleet mixes
//! full-DSP copies (3 gateways at the default floor), copies the radio
//! stage rejects cheaply (5 gateways 60 dB above it) and marginal-SNR
//! copies, under the frame-delay attack. The front half does nearly all
//! the work.

use crate::batches::{BatchRunner, Collector, Window};
use crate::common::{
    cpus, score, set_up_repeatedly, timed_window, Ctx, STEADY_FROM, WARMUP_GROUPS,
};
use crate::fleet::{Fleet, FleetShape};
use crate::report::Outcome;
use crate::stats::Dist;
use crate::trace::{registry_snapshot, RegistryDelta, Tracer};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

pub const SHAPE: FleetShape = FleetShape { gateways: 8, loud: 3, devices: 96, attacked: 8 };
/// Generated groups per second of run: about three times today's rate.
const GROUPS_PER_S: usize = 1500;
/// Groups per second of run that `attempted`, `failed` and the quality
/// fractions count, from [`STEADY_FROM`]: about 1.4 times today's rate,
/// so the span covers the whole timed window. After the window the
/// server goes on untimed to the span's end. The span is fixed by the
/// seed and the run length, not by how far the window got, so the
/// failure count of a seed is the same on every run. A multiple of
/// [`crate::common::BATCH`], so batch boundaries do not move.
const COUNTED_PER_S: usize = 800;

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new();
    if let Err(e) = run_inner(ctx, tracer, &mut out) {
        out.problems.push(e);
    }
    out
}

fn run_inner(ctx: &Ctx, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let t = Instant::now();
    let fleet = Fleet::generate(SHAPE, ctx.seed, STEADY_FROM + GROUPS_PER_S * ctx.seconds as usize);
    out.set("scenario_gen_s", Some(t.elapsed().as_secs_f64()), 1);
    let groups = &fleet.groups;
    let sink = Collector::with_room(groups.len());
    let window = Window::with_room(groups.len());
    let heap = crate::heap::baseline();

    // Set-up: build the server and push the warm-up through it, several
    // times; the last set-up settles untimed and carries on into the
    // timed window.
    let mut warm_failed = Vec::new();
    let mut runner = set_up_repeatedly(
        out,
        |_| {
            let mut r = BatchRunner::with_sink(fleet.server().build(), Arc::clone(&sink));
            warm_failed = r.run_untimed(&groups[..WARMUP_GROUPS], &mut BatchRunner::submit)?;
            Ok(r)
        },
        |_| Ok(()),
    )?;
    warm_failed
        .extend(runner.run_untimed(&groups[WARMUP_GROUPS..STEADY_FROM], &mut BatchRunner::submit)?);

    let before = registry_snapshot();
    let w = runner.closed_loop(
        window,
        (groups, STEADY_FROM),
        ctx.seconds,
        tracer,
        &mut BatchRunner::submit,
    )?;
    let delta = RegistryDelta::new(before, registry_snapshot());
    out.set("peak_heap_mb", Some(crate::heap::peak_mb(heap)), 1);

    // A failed uplink is still without a verdict when the window closes.
    timed_window(out, (w.start, w.end), w.end, &w.timed);

    // The counted span: the window, then untimed up to the span's end.
    let counted_end = (STEADY_FROM + COUNTED_PER_S * ctx.seconds as usize).min(groups.len());
    let after = runner
        .run_untimed(&groups[w.end_idx.min(counted_end)..counted_end], &mut BatchRunner::submit)?;
    let pos = w.end_idx.max(counted_end);
    let offered = &groups[STEADY_FROM..counted_end];
    let failed_ids: HashSet<u64> =
        w.failed.iter().chain(&after).chain(&warm_failed).copied().collect();
    let failed_offered = offered.iter().filter(|g| failed_ids.contains(&g.uplink)).count();
    out.offered = offered.len() as u64;
    out.failed = failed_offered as u64;

    // Output checks, outside the window: every uplink ever offered to
    // this server has exactly one verdict or one failure.
    let collected = runner.collected();
    let verdicts: HashMap<u64, bool> =
        collected.verdicts.iter().map(|v| (v.uplink, v.flagged)).collect();
    out.check(collected.verdicts.len() + failed_ids.len() == pos, || {
        format!(
            "{} verdicts + {} failures != {pos} uplinks offered",
            collected.verdicts.len(),
            failed_ids.len()
        )
    });
    out.check(
        groups[..pos]
            .iter()
            .all(|g| verdicts.contains_key(&g.uplink) != failed_ids.contains(&g.uplink)),
        || "an uplink has both or neither of a verdict and a failure".to_string(),
    );
    out.check(collected.errors.len() == failed_ids.len(), || {
        format!("{} server errors for {} failed uplinks", collected.errors.len(), failed_ids.len())
    });
    drop(collected);
    score(out, offered, &verdicts);
    out.set("server.failed_groups", Some(failed_offered as f64), offered.len());

    // Per-layer: registry deltas over the window, spans of traced batches.
    crate::layers::pipeline(out, &delta, w.busy.as_secs_f64() * cpus() as f64);
    crate::layers::mean_us(out, "server.commit_us_mean", &delta, "server_commit_ns", None);
    if tracer.active {
        let batch_ms = Dist::new(tracer.durations_ms("process_batch"));
        out.set("server.batch_ms_p50", batch_ms.quantile(0.5), batch_ms.len());
        let d = Dist::new(w.residuals);
        out.set("trace.residual_ms_mean", d.mean(), d.len());
        crate::layers::overhead(out, &w.latencies);
    }
    Ok(())
}
