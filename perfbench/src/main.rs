//! `perfbench` — the serving benchmark of the datatrans ranking engine.
//!
//! ```text
//! perfbench --workload <mixed_scale|ingest_engine|cold_scale> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the engine at its shipped defaults and
//! prints a human-readable report followed, as the last line of standard
//! output, by one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! a traced replay adds the per-layer ones (see `README.md`). Any
//! response that differs from in-process serving makes the run exit
//! non-zero.

mod calib;
mod engine;
mod loadgen;
mod replay;
mod report;
mod requests;
mod stats;
mod wire;

use std::process::ExitCode;

use report::Report;

/// The workloads, by name. `BENCHMARK.json` lists the first two;
/// `cold_scale` runs by hand (see `README.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop and saturation wire traffic of distinct NNᵀ/MLPᵀ misses.
    ColdScale,
    /// The same phases over hot-set hits plus distinct GA-kNN misses.
    MixedScale,
    /// In-process cached batches interleaved with catalog writes.
    IngestEngine,
}

impl Workload {
    /// Every workload: `BENCHMARK.json`'s in its order, then `cold_scale`.
    pub const ALL: [Workload; 3] = [
        Workload::MixedScale,
        Workload::IngestEngine,
        Workload::ColdScale,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdScale => "cold_scale",
            Workload::MixedScale => "mixed_scale",
            Workload::IngestEngine => "ingest_engine",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Runs one workload and returns its report.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    match workload {
        Workload::ColdScale | Workload::MixedScale => wire::run(workload, seed, seconds, trace),
        Workload::IngestEngine => engine::run(seed, seconds, trace),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <mixed_scale|ingest_engine|cold_scale> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let report = match run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    print!("{}", report.human(args.seed, args.seconds, args.trace));
    println!("{}", report.json(args.trace));
    if !report.correct {
        eprintln!("perfbench: responses differ from in-process serving");
        return ExitCode::from(3);
    }
    if !report.invalid.is_empty() {
        eprintln!("perfbench: run invalid: {}", report.invalid.join("; "));
        return ExitCode::from(4);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "mixed_scale",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::MixedScale,
                seed: 9,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&strings(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "cold_scale",
            "--seed",
            "1",
            "--seconds",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--workload", "cold_scale", "--seconds", "1"])).is_err());
    }

    /// A seconds-long run of every workload, untraced and traced: all
    /// responses verified, every metric present.
    #[test]
    fn smoke_all_workloads() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let report = run(workload, 1, 1.5, trace).unwrap();
                assert!(report.correct, "{} trace={trace}", workload.name());
                assert!(report.attempted() > 0);
                let json = report.json(trace);
                let names = if trace {
                    report::PER_LAYER
                } else {
                    report::END_TO_END
                };
                for name in names {
                    assert!(
                        json.contains(&format!("\"{name}\"")),
                        "{name} missing: {json}"
                    );
                }
            }
        }
    }
}
