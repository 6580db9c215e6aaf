//! `bst-benchmark`: the service benchmark of `BENCHMARK.json`.
//!
//! ```text
//! bst-benchmark --workload W --seed N --seconds S --trace 0|1
//! bst-benchmark run   [--seed N] [--seconds S]
//! bst-benchmark trace [--seed N] [--seconds S]
//! bst-benchmark compare PARENT.json... -- CHANGE.json...
//! ```
//!
//! The first form runs one workload in this process and ends its output
//! with one JSON line: end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`. `run` and `trace` run every workload, each
//! in a fresh process of its own, and collect the results in
//! `out/run-seed<N>.json` or `out/trace-seed<N>.json`. `compare` decides
//! gain, regression or neither per (metric, workload) from such files.
//! See README.md.

use std::process::{Command, ExitCode, Stdio};

use bst_benchmark::json::Json;
use bst_benchmark::workload::Workload;
use bst_benchmark::{compare, run, setup, trace, DEFAULT_SECONDS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => all_workloads(&args[1..], false),
        Some("trace") => all_workloads(&args[1..], true),
        Some("compare") => compare::main(&args[1..]),
        Some(_) => one_workload(&args),
        None => Err(usage()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bst-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    "usage: bst-benchmark --workload W --seed N --seconds S --trace 0|1 \
     | run|trace [--seed N] [--seconds S] | compare A.json... -- B.json..."
        .into()
}

/// Parsed `--flag value` pairs.
struct Flags {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value; {}", usage()))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                flags.workload = Some(Workload::parse(value).ok_or_else(bad)?);
            }
            "--seed" => flags.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                flags.seconds = value.parse().map_err(|_| bad())?;
                if !(flags.seconds > 0.0 && flags.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                flags.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}; {}", usage())),
        }
    }
    Ok(flags)
}

/// Runs one workload here, prints its metric lines, saves its result
/// file, and prints the result as the last line.
fn one_workload(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let workload = flags
        .workload
        .ok_or_else(|| format!("--workload is required; {}", usage()))?;
    let outcome = if flags.trace {
        trace::trace(workload, flags.seed, flags.seconds)
    } else {
        run::run(workload, flags.seed, flags.seconds)
    };
    outcome.print_lines();
    if let Err(e) = outcome.save() {
        eprintln!("bst-benchmark: cannot write the result file: {e}");
    }
    println!("{}", outcome.result_json().render());
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload, each in a fresh process of this binary, so caches
/// and peak RSS do not carry over, and collects their results.
fn all_workloads(args: &[String], trace: bool) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    if flags.workload.is_some() {
        return Err("run and trace take every workload; drop --workload".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut results = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &flags.seed.to_string()])
            .args(["--seconds", &flags.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        let result = Json::parse(last)
            .map_err(|e| format!("{}: unreadable result line {last:?}: {e}", workload.name()))?;
        all_correct &=
            output.status.success() && result.get("correct").and_then(Json::as_bool) == Some(true);
        results.push((workload.name().to_string(), result));
    }
    let doc = Json::obj([
        ("seed", Json::Num(flags.seed as f64)),
        ("seconds", Json::Num(flags.seconds)),
        ("trace", Json::Bool(trace)),
        ("workloads", Json::Obj(results)),
    ]);
    let dir = setup::out_dir();
    let kind = if trace { "trace" } else { "run" };
    let path = dir.join(format!("{kind}-seed{}.json", flags.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, doc.render() + "\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
