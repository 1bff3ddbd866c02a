//! `perfbench`: one command for the SoftLoRa uplink path, end to end
//! and layer by layer. See `README.md` beside this crate for the
//! workloads, the metrics and the noise discipline.
//!
//! ```text
//! perfbench --workload <verdict-mixed|wire-paced|durable-replica>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every metric (value, unit, sample count), then one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits 1 when an output check fails.

mod batches;
mod common;
mod fleet;
mod heap;
mod layers;
mod replica;
mod report;
mod stats;
mod trace;
mod verdict;
mod wire;

use common::Ctx;
use std::path::PathBuf;
use trace::Tracer;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

const WORKLOADS: [&str; 3] = ["verdict-mixed", "wire-paced", "durable-replica"];

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value {value:?} for {flag}")) };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| bad())),
            "--seconds" => seconds = Some(value.parse::<u64>().unwrap_or_else(|_| bad())),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                });
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let ctx = Ctx {
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.filter(|&s| s > 0).unwrap_or_else(|| usage("--seconds must be ≥ 1")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut tracer = Tracer::new(ctx.trace);
    let cpu_before = cpu_times();
    let mut outcome = match workload.as_str() {
        "verdict-mixed" => verdict::run(&ctx, &mut tracer),
        "wire-paced" => wire::run(&ctx, &mut tracer),
        "durable-replica" => replica::run(&ctx, &mut tracer),
        other => usage(&format!("unknown workload {other}")),
    };
    if let (Some((steal0, total0)), Some((steal1, total1))) = (cpu_before, cpu_times()) {
        let total = total1.saturating_sub(total0);
        outcome.set(
            "host.steal_frac",
            (total > 0).then(|| steal1.saturating_sub(steal0) as f64 / total as f64),
            1,
        );
    }
    outcome.check(outcome.offered > 0, || "no uplink was offered in the window".to_string());
    if ctx.trace {
        let path = ctx.out_dir.join(format!("spans-{workload}-{}.jsonl", ctx.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    outcome.print(&workload, ctx.seed, ctx.trace);
    if !outcome.problems.is_empty() {
        std::process::exit(1);
    }
}

/// Steal and total time of all CPUs so far, in ticks (`/proc/stat`).
/// Steal is time the hypervisor gave this VM's CPUs to someone else; a
/// run with a high share of it measured a busy host, not the program.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).map_while(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}
