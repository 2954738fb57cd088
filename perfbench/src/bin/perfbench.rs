//! The untraced benchmark process: one fresh, single-threaded process per
//! measurement, so no run inherits another's heap or profiler memo.
//!
//! ```text
//! perfbench --workload <name> --seed <n>   set up, run, check; print one JSON line
//! ```
//!
//! It exits non-zero when an output check fails.

use std::process::ExitCode;
use std::time::Instant;

use dilu_perfbench::{parse_args, peak_rss_kib, run, set_up, JsonLine, Outcome};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match execute(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn execute(args: &[String]) -> Result<ExitCode, String> {
    let (workload, seed) = parse_args(args)?;
    let text = workload.config(seed);
    let started = Instant::now();
    let prepared = set_up(&text)?;
    let setup_s = started.elapsed().as_secs_f64();
    let (report, run_s) = run(prepared);
    let rss_kib = peak_rss_kib().ok_or("cannot read VmHWM from /proc/self/status")?;
    let outcome = Outcome::of(&report);
    let mut line = JsonLine::default();
    line.num("setup_s", setup_s)
        .num("run_s", run_s)
        .num("peak_rss_mib", rss_kib as f64 / 1024.0)
        .outcome(&outcome);
    println!("{}", line.finish());
    Ok(if outcome.failures.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
