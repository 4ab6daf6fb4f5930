//! The repository benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1]
//! benchmark prepare
//! benchmark compare <parent_dir> <change_dir>
//! ```
//!
//! A run measures one workload per process (so `peak_rss_mb` is the workload's own),
//! prints every metric as `name value unit`, a `record` line for `compare`, and, as
//! the last line, the JSON result. It exits 1 when a correctness gate fails and 2 on
//! a usage or set-up error (printing no result); `compare` exits 1 when a metric is
//! worse or unresolved or an exact value moved. `--trace 1` is the separate traced
//! run that produces the per-layer metrics and a Chrome trace under
//! `artifacts/benchmark/`. `prepare` builds the cached fixtures (runs build them on
//! demand). See README.md next to this crate for the workloads and metrics.

mod audit;
mod compare;
mod fixtures;
mod host;
mod json;
mod outcome;
mod registry;
mod serve;
mod setup;
mod stats;
mod trace;

use std::path::Path;
use std::process::{Command, ExitCode};

use radar_obs::ObsLevel;

use crate::host::Host;
use crate::outcome::{Outcome, RunInfo};
use crate::registry::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::setup::Setting;

const USAGE: &str = "usage: benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1]
       benchmark prepare
       benchmark compare <parent_dir> <change_dir>";

/// A parsed measurement request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, RUN_SECONDS, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?);
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=3_600).contains(s))
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?} (0 or 1)")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Measures one workload (end-to-end metrics, tracing off).
fn measure(workload: Workload, setting: &Setting, seed: u64) -> Result<Outcome, String> {
    let mut outcome = match workload {
        Workload::AuditR18 => audit::outcome(&audit::run(setting, seed, &[ObsLevel::Off])?[0]),
        _ => {
            let served = serve::Served::of(workload, setting);
            let plans = serve::SessionPlan::for_run(
                &served.spec,
                setting.sizing.requests,
                setting.sizing.sessions,
                seed,
            );
            serve::outcome(
                &served.spec,
                &serve::run(&served, &plans, &[ObsLevel::Off])?[0],
            )
        }
    };
    let rss = host::peak_rss_mb().ok_or("VmHWM is not available")?;
    outcome.metric("peak_rss_mb", rss);
    Ok(outcome)
}

/// The allocator setting every measurement runs under: one malloc arena. With the
/// default (eight per core) the number of arenas depends on thread start-up races,
/// and each extra arena keeps ~4 MB of freed per-batch buffers resident, which made
/// `peak_rss_mb` bimodal from run to run.
const ARENA_MAX: (&str, &str) = ("MALLOC_ARENA_MAX", "1");

/// Whether this process runs in the pinned environment: the allocator setting
/// above and no `RADAR_*` overrides.
fn environment_pinned() -> bool {
    std::env::var(ARENA_MAX.0).is_ok_and(|v| v == ARENA_MAX.1)
        && !std::env::vars_os().any(|(key, _)| key.to_string_lossy().starts_with("RADAR_"))
}

/// Re-runs this command in the pinned environment and returns its exit code.
fn run_pinned(args: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut command = Command::new(exe);
    command.args(args).env(ARENA_MAX.0, ARENA_MAX.1);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("RADAR_") {
            command.env_remove(key);
        }
    }
    let status = command
        .status()
        .map_err(|e| format!("cannot re-run in the pinned environment: {e}"))?;
    Ok(status
        .code()
        .and_then(|code| u8::try_from(code).ok())
        .map_or(ExitCode::from(2), ExitCode::from))
}

fn run_workload(args: RunArgs) -> Result<ExitCode, String> {
    // Single-threaded GEMM inside each of the engine's workers.
    radar_tensor::set_gemm_threads(1);
    let host = Host::probe();
    let fixtures = fixtures::ensure(Path::new(fixtures::DIR))?;
    println!(
        "benchmark {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", host.line());
    println!("fixtures sha256={}", fixtures.sha256);
    let setting = Setting::benchmark(&fixtures, args.workload, args.seconds);
    let (outcome, declared) = if args.trace {
        (
            trace::run(args.workload, &setting, args.seed)?,
            &PER_LAYER[..],
        )
    } else {
        (
            measure(args.workload, &setting, args.seed)?,
            &END_TO_END[..],
        )
    };
    let info = RunInfo {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        fixtures_sha256: &fixtures.sha256,
        host: &host,
    };
    outcome.print(&info, declared);
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("prepare") if args.len() == 1 => {
            fixtures::prepare(Path::new(fixtures::DIR)).map(|f| {
                println!("fixtures sha256={}", f.sha256);
                ExitCode::SUCCESS
            })
        }
        Some("compare") if args.len() == 3 => {
            compare::run(Path::new(&args[1]), Path::new(&args[2])).map(|clean| {
                if clean {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            })
        }
        _ => parse_run(&args).and_then(|parsed| {
            if environment_pinned() {
                run_workload(parsed)
            } else {
                run_pinned(&args)
            }
        }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn the_documented_command_line_parses() {
        let parsed = parse_run(&args(&[
            "--workload",
            "serve_b1",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!(
            parsed,
            RunArgs {
                workload: Workload::ServeB1,
                seed: 42,
                seconds: 10,
                trace: true
            }
        );
        let defaults =
            parse_run(&args(&["--seed", "1", "--workload", "audit_r18"])).expect("valid arguments");
        assert_eq!((defaults.seconds, defaults.trace), (RUN_SECONDS, false));
    }

    #[test]
    fn every_workload_reports_every_metric_at_toy_scale() {
        let dir =
            std::env::temp_dir().join(format!("radar_benchmark_smoke_{}", std::process::id()));
        let setting = Setting::toy(&dir);
        for workload in Workload::ALL {
            let measured = measure(workload, &setting, 7).expect("the run completes");
            assert!(measured.correct(), "{workload}: {:?}", measured.failures);
            assert_eq!(
                measured.missing(&END_TO_END),
                Vec::<&str>::new(),
                "{workload}"
            );
            let traced = trace::run(workload, &setting, 7).expect("the traced run completes");
            assert!(traced.correct(), "{workload} traced: {:?}", traced.failures);
            assert_eq!(
                traced.missing(&PER_LAYER),
                Vec::<&str>::new(),
                "{workload} traced"
            );
            assert!(dir.join(format!("TRACE_{workload}.json")).is_file());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        for bad in [
            &["--workload", "serve_b8"][..],
            &["--seed", "1"],
            &["--workload", "nope", "--seed", "1"],
            &["--workload", "serve_b8", "--seed", "-1"],
            &["--workload", "serve_b8", "--seed", "1", "--trace", "2"],
            &["--workload", "serve_b8", "--seed", "1", "--seconds", "0"],
            &["--workload", "serve_b8", "--seed"],
            &["--workload", "serve_b8", "--seed", "1", "--extra", "x"],
        ] {
            assert!(parse_run(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
