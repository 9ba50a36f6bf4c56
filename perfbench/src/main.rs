//! Command line: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--out-dir <dir>]`. Prints the workload's metric and
//! check lines, then one JSON result line; exits non-zero when a
//! correctness check fails or the run cannot complete.

use perfbench::{run, RunCfg};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let parsed = (|| -> Result<(String, RunCfg), String> {
        let workload = get("--workload").ok_or("missing --workload")?.clone();
        let seed = get("--seed")
            .ok_or("missing --seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = get("--seconds")
            .ok_or("missing --seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        let traced = match get("--trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        };
        let out_dir = get("--out-dir").map(PathBuf::from);
        Ok((workload, RunCfg::new(seed, seconds, traced, out_dir)))
    })();
    let (workload, cfg) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&workload, &cfg) {
        Ok(report) => {
            report.print(&workload, cfg.traced);
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
