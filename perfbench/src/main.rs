//! The repository benchmark: paper TPC-H workloads through EXA, RTA and IRA,
//! plus an open-loop serving workload against `OptimizationService`.
//!
//! ```text
//! moqo_perfbench --workload <tpch_exa|tpch_approx|serve_open> --seed <n> \
//!                --seconds <s> --trace <0|1>
//! moqo_perfbench --gen-golden            # rewrite golden/tpch_exa.tsv
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end set, with `--trace 1` the per-layer set (see
//! `README.md` next to this crate for every definition).

mod report;
mod serve;
mod tpch;

use std::process::ExitCode;

use report::Outcome;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        if flag == "--gen-golden" {
            return Ok(None);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("missing --{name}");
    Ok(Some(Args {
        workload: workload.ok_or_else(|| missing("workload"))?,
        seed: seed.ok_or_else(|| missing("seed"))?,
        seconds: seconds.ok_or_else(|| missing("seconds"))?,
        trace: trace.ok_or_else(|| missing("trace"))?,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            tpch::generate_golden();
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("moqo_perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome: Outcome = match args.workload.as_str() {
        "tpch_exa" => tpch::run(tpch::Workload::Exa, args.seed, args.seconds, args.trace),
        "tpch_approx" => tpch::run(tpch::Workload::Approx, args.seed, args.seconds, args.trace),
        "serve_open" => serve::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("moqo_perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    outcome.print(&args.workload, args.seed, args.trace);
    ExitCode::SUCCESS
}
