//! # perfbench — the repository benchmark
//!
//! Three workloads drive the P4runpro reproduction through its public
//! API and report end-to-end metrics (host and simulated time), or, in a
//! traced run, per-layer metrics measured from outside each layer's
//! public functions. `perfbench/README.md` maps every metric to its layer
//! and workload; `perfbench/run.py` builds and runs the benchmark.

pub mod churn;
pub mod ctl;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod setup;
pub mod spans;
pub mod stats;
pub mod steady;

use std::path::PathBuf;

/// How one run is configured.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Seed for every input: trace, resident rotation, churn slices, names.
    pub seed: u64,
    /// Length of the timed phase, host seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub traced: bool,
    /// Where the span file and the fate-digest record go; `None` writes
    /// nothing.
    pub out_dir: Option<PathBuf>,
    /// Initial-load repetitions (`setup_s` is their median).
    pub setup_reps: usize,
    /// Campus trace length, trace seconds.
    pub trace_secs: f64,
}

impl RunCfg {
    /// The configuration the command line asks for.
    pub fn new(seed: u64, seconds: f64, traced: bool, out_dir: Option<PathBuf>) -> RunCfg {
        RunCfg {
            seed,
            seconds,
            traced,
            out_dir,
            setup_reps: setup::SETUP_REPS,
            trace_secs: 2.0,
        }
    }
}

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["replay_steady", "replay_churn", "ctl_mix"];

/// Run one workload.
pub fn run(workload: &str, cfg: &RunCfg) -> Result<report::Report, String> {
    match workload {
        "replay_steady" => steady::run(cfg),
        "replay_churn" => churn::run(cfg),
        "ctl_mix" => ctl::run(cfg),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Print the fate digest and check it against the one an earlier run of
/// the same workload and seed recorded in `out_dir`; the first run
/// records it.
pub fn digest_check(r: &mut report::Report, cfg: &RunCfg, workload: &str, digest: &str) {
    r.line(format!("fate digest {digest}"));
    let Some(dir) = cfg.out_dir.as_ref() else {
        return;
    };
    let path = dir.join(format!("digest-{workload}-{}.txt", cfg.seed));
    match std::fs::read_to_string(&path) {
        Ok(prev) => r.check(
            "digest_repeats",
            prev.trim() == digest,
            format!("against {} from an earlier run with this seed", prev.trim()),
        ),
        Err(_) => {
            let saved = std::fs::create_dir_all(dir)
                .and_then(|_| std::fs::write(&path, format!("{digest}\n")));
            r.check(
                "digest_recorded",
                saved.is_ok(),
                "later runs with this seed must repeat it",
            );
        }
    }
}

/// Spans a traced run keeps in memory at most.
pub const SPAN_CAP: usize = 200_000;

/// Write the traced run's spans as a Chrome trace-event file and say where.
pub fn spans_line(r: &mut report::Report, cfg: &RunCfg, workload: &str, spans: &spans::Spans) {
    let Some(dir) = cfg.out_dir.as_ref() else {
        return;
    };
    let path = dir.join(format!("trace-{workload}-{}.json", cfg.seed));
    let written =
        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, spans.chrome_json()));
    r.check(
        "spans_written",
        written.is_ok(),
        format!(
            "{}: {} spans kept, {} dropped",
            path.display(),
            spans.spans().len(),
            spans.dropped()
        ),
    );
}

/// The end-to-end result set, the same names on every workload: the
/// set-up time (median of the repeated loads), the process's peak
/// resident set through the initial load (`load_rss_mb`, taken by the
/// caller right after it), and the mean simulated update delay per
/// program over `deploys` — the workload's deploys whose delay does not
/// depend on thread timing.
pub fn e2e(
    r: &mut report::Report,
    walls: &[f64],
    load_rss_mb: f64,
    deploys: &[setup::DeploySample],
) {
    use report::Kind;
    r.e2e(
        "setup_s",
        "s",
        Kind::Host,
        stats::median(walls),
        Some(walls.len()),
    );
    r.e2e("load_peak_rss_mb", "MB", Kind::Host, load_rss_mb, None);
    let ms: Vec<f64> = deploys.iter().map(|d| d.device_ns as f64 / 1e6).collect();
    let update = stats::mean(&ms).unwrap_or(0.0);
    r.e2e(
        "sim_update_ms_per_deploy",
        "ms",
        Kind::Sim,
        update,
        Some(ms.len()),
    );
}

/// The `op_fail_share` metric line: failed over attempted.
pub fn fail_share_line(r: &mut report::Report) {
    let share = r.failed() as f64 / r.attempted_total() as f64;
    r.metric_line(
        "op_fail_share",
        share,
        "fraction",
        report::Kind::Count,
        r.attempted_total() as usize,
    );
}
