//! `perfbench`: the end-to-end clone benchmark's harness.
//!
//! ```text
//! perfbench <clone_fast|serve_paper_proc|resume_replay> --seed N --seconds S
//!           --trace 0|1 --bins DIR --work DIR
//! perfbench resume-setup --seed N --journal FILE
//! ```
//!
//! An untraced run prints the end-to-end metrics, a traced run the
//! per-layer metrics; both print a behaviour checksum and end with one
//! JSON result line. `perfbench/run.py` builds the program and this
//! harness and is the command to run.

#![forbid(unsafe_code)]

mod clone;
mod layers;
mod probe;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn parse_num<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let raw = flag(args, name)?;
    raw.parse()
        .map_err(|_| format!("{name}: not a number: {raw}"))
}

fn run(argv: &[String]) -> Result<(), String> {
    let workload = argv
        .first()
        .ok_or("usage: perfbench <workload> --seed N ...")?;
    let rest = &argv[1..];
    let seed: u64 = parse_num(rest, "--seed")?;
    if workload == "resume-setup" {
        return workloads::resume_setup(seed, &PathBuf::from(flag(rest, "--journal")?));
    }
    let args = workloads::Args {
        seed,
        seconds: parse_num(rest, "--seconds")?,
        trace: flag(rest, "--trace")? == "1",
        bins: PathBuf::from(flag(rest, "--bins")?),
        work: PathBuf::from(flag(rest, "--work")?),
    };
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("cannot create {:?}: {e}", args.work))?;
    println!(
        "workload {workload} seed {seed} ({}) on {} host threads",
        if args.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let report = match workload.as_str() {
        "clone_fast" => workloads::clone_fast(&args)?,
        "serve_paper_proc" => workloads::serve_paper_proc(&args)?,
        "resume_replay" => workloads::resume_replay(&args)?,
        other => return Err(format!("unknown workload {other}")),
    };
    report.print(args.trace);
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
