//! The sttlock benchmark: three workloads, each timed end to end with
//! tracing off (`--trace 0`) or traced per layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table-grid|harden-serve|prove-attack \
//!     [--seed 42] [--seconds 15] [--trace 0|1]
//! ```
//!
//! The last line on stdout is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the run manifest. Both, plus any trace, are also written under
//! `.bench_out/`. A wrong output counts as a failed operation and makes
//! the run exit non-zero. See `perfbench/NOTES.md` for why each workload
//! and metric exists.

mod grid;
mod measure;
mod prove;
mod replay;
mod serve;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use measure::Report;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The campaign seed of the reproduction's Table I circuits (the seed
/// EXPERIMENTS.md reports). Inputs whose cost swings several-fold with the
/// seed are pinned to it — every circuit, and all of `table-grid` — so
/// that a run can resolve a change of a few per cent; `--seed` varies the
/// rest. NOTES.md gives the measured swings.
pub const TABLE_SEED: u64 = 42;

const WORKLOADS: [&str; 3] = ["table-grid", "harden-serve", "prove-attack"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 15.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0|1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Worker threads, client connections and campaign jobs all use this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn trace_path(work: &Path, args: &Args) -> PathBuf {
    work.parent()
        .unwrap_or(work)
        .join(format!("trace-{}-{}.jsonl", args.workload, args.seed))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The checked-out commit, or "unknown" outside a git work tree (the
/// benchmark may run from an exported copy of the sources).
fn git_rev() -> String {
    if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_owned()
    }
}

fn json_str(s: &str) -> String {
    sttlock_campaign::json::Json::Str(s.to_owned()).to_string()
}

fn manifest(args: &Args, report: &Report) -> String {
    let mut fields = vec![
        ("git_rev".to_owned(), git_rev()),
        ("rustc".to_owned(), command_line("rustc", &["--version"])),
        (
            "profile".to_owned(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_owned(),
        ),
        ("nproc".to_owned(), nproc().to_string()),
        ("workload".to_owned(), args.workload.clone()),
        ("seed".to_owned(), args.seed.to_string()),
        ("seconds".to_owned(), args.seconds.to_string()),
        ("trace".to_owned(), u8::from(args.trace).to_string()),
    ];
    fields.extend(report.facts.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!("{{\"manifest\":{{{}}}}}", body.join(","))
}

fn result(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(".bench_out");
    let work = out.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    match args.workload.as_str() {
        "table-grid" => grid::run(&args, &work, &mut report),
        "harden-serve" => serve::run(&args, &work, &mut report),
        _ => prove::run(&args, &work, &mut report),
    }
    let _ = std::fs::remove_dir_all(&work);
    let manifest = manifest(&args, &report);
    let result = result(&report);
    let record = out.join(format!(
        "result-{}-{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::write(&record, format!("{manifest}\n{result}\n"));
    println!("{manifest}");
    println!("{result}");
    if report.failed > 0 || report.attempted == 0 {
        eprintln!(
            "perfbench: {} of {} checked operations failed",
            report.failed, report.attempted
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
