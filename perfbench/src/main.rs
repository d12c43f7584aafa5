//! The repository benchmark: one workload per invocation, untraced for the
//! end-to-end metrics or traced for the per-layer ones.
//!
//! ```text
//! perfbench --workload <xpline_stream|kv_ycsb|cluster_serve> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one `metric`/`layer`/`info` line per figure (name, value, unit,
//! sample count) and, last, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 when an output check fails, 2 on bad
//! arguments. See `README.md` for the workloads and metric map.

mod cluster_serve;
mod kv;
mod report;
mod stats;
mod xpline;

use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <xpline_stream|kv_ycsb|cluster_serve> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be in 1..=600".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (seed, secs) = (args.seed, args.seconds);
    let outcome = match (args.workload.as_str(), args.trace) {
        ("xpline_stream", false) => xpline::run(seed, secs),
        ("xpline_stream", true) => xpline::run_traced(seed, secs),
        ("kv_ycsb", false) => kv::run(seed, secs),
        ("kv_ycsb", true) => kv::run_traced(seed, secs),
        ("cluster_serve", false) => cluster_serve::run(seed, secs),
        ("cluster_serve", true) => cluster_serve::run_traced(seed, secs),
        (w, _) => {
            eprintln!("perfbench: unknown workload {w}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    print!("{}", outcome.render(&args.workload, args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
