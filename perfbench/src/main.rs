//! Guest-command benchmark for the vTPM request path of the improved
//! platform. See `NOTES.md` beside this crate for the workloads, the
//! metrics and what each layer metric should move.
//!
//! Usage: `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! `--workload all` runs every workload in turn, each ending with its own
//! JSON result line.

mod load;
mod plan;
mod stats;
mod sys;
mod traced;

use std::process::ExitCode;

struct Args {
    workloads: Vec<&'static plan::Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(plan::WORKLOADS.iter().collect()),
            "--workload" => {
                workload = Some(vec![plan::find(&value).ok_or_else(|| {
                    let names: Vec<_> = plan::WORKLOADS.iter().map(|w| w.name).collect();
                    format!(
                        "unknown workload {value:?}; one of {}, all",
                        names.join(", ")
                    )
                })?])
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}; 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workloads: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let Some(cpu) = sys::pin_to_one_cpu() else {
        eprintln!("perfbench: could not pin the benchmark to one CPU");
        return ExitCode::FAILURE;
    };
    for w in args.workloads {
        println!(
            "perfbench workload={} seed={} seconds={} trace={} available_parallelism={parallelism} pinned_cpu={cpu}",
            w.name,
            args.seed,
            args.seconds,
            args.trace as u8,
        );
        let result = if args.trace {
            traced::run(w, args.seed, args.seconds)
        } else {
            load::run(w, args.seed, args.seconds)
        };
        match result {
            Ok(report) => report.print(),
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
