//! `hjbench` — the repository's benchmark.
//!
//! Seven workloads drive the library through its public API only; every
//! number is taken from outside — a timer in this package around a public
//! call, or a value a public call returns.  Per workload: set-up (repeated,
//! median reported), a timed window with tracing off (end-to-end metrics),
//! then a traced pass (spans, per-layer metrics).  See `README.md`.

mod inproc;
mod load;
mod metrics;
mod probe;
mod schedule;
mod sim;
mod spans;
mod stats;
mod wire;

use load::PassLog;
use metrics::{Report, END_TO_END, WORKLOADS};
use stats::{median, quantile, sorted, tail_percentile};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// One workload, set up and ready to take load.
pub trait Workload {
    /// Library joins one operation stands for.
    fn joins_per_op(&self) -> u64 {
        1
    }
    /// Generates load for `seconds`; records spans when `traced`.
    fn run(&mut self, seconds: f64, traced: bool) -> PassLog;
    /// End-to-end metrics only this workload has, from its timed window.
    fn end_to_end(&self, _window: &PassLog, _report: &mut Report) {}
    /// Per-layer metrics, after the traced pass.
    fn layers(&mut self, traced: &PassLog, report: &mut Report);
    /// End-of-run invariants; marks the report invalid when one is broken.
    fn finish(self: Box<Self>, _report: &mut Report) {}
}

fn setup(name: &str, seed: u64, report: &mut Report) -> Box<dyn Workload> {
    match name {
        "wire_closed" | "wire_open" => Box::new(wire::Wire::setup(name, seed, report)),
        "sim_paper" => Box::new(sim::Sim::setup(seed, report)),
        _ => Box::new(inproc::InProc::setup(name, seed, report)),
    }
}

/// Milliseconds since `started`.
pub fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Where the benchmark writes: span files and spill run files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Lengths of the two passes of one workload run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Plan {
    window_s: f64,
    traced_s: f64,
    setups: usize,
}

/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

fn run_workload(name: &'static str, seed: u64, plan: Plan) -> Report {
    let mut report = Report::new(name);
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..plan.setups {
        drop(workload.take());
        let started = Instant::now();
        workload = Some(setup(name, seed, &mut report));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    report.set_n("setup_s", median(&setup_s), plan.setups as u64);

    let window = workload.run(plan.window_s, false);
    let joins_per_op = workload.joins_per_op() as f64;
    let window_rate = window.completed() as f64 * joins_per_op / window.elapsed_s;
    let latency = sorted(window.latency_ms.clone());
    let samples = latency.len() as u64;
    report.attempted = window.attempted;
    report.failed = window.failed;
    report.set_n("joins_per_s", window_rate, samples);
    report.set_n("latency_p50_ms", quantile(&latency, 0.5), samples);
    workload.end_to_end(&window, &mut report);
    let tail = tail_percentile(latency.len());
    report.set_n("client.latency_p95_ms", quantile(&latency, 0.95), samples);
    report.set_n(
        "client.latency_tail_ms",
        quantile(&latency, tail / 100.0),
        samples,
    );
    report.set("client.tail_percentile", tail);
    report.set("client.samples", samples as f64);
    if !window.late_ms.is_empty() {
        report.set_n(
            "client.late_p99_ms",
            quantile(&sorted(window.late_ms.clone()), 0.99),
            window.late_ms.len() as u64,
        );
    }
    report.set(
        "client.offered_per_s",
        window.attempted as f64 / plan.window_s,
    );

    if plan.traced_s > 0.0 {
        let traced = workload.run(plan.traced_s, true);
        report.attempted += traced.attempted;
        report.failed += traced.failed;
        workload.layers(&traced, &mut report);
        let traced_rate = traced.completed() as f64 * joins_per_op / traced.elapsed_s;
        if window_rate > 0.0 {
            report.set(
                "bench.trace_overhead_pct",
                (window_rate - traced_rate) / window_rate * 100.0,
            );
        }
        let path = out_dir().join(format!("trace-{name}.json"));
        if let Err(error) = spans::write_json(&path, &traced.spans) {
            report
                .invalid
                .push(format!("cannot write {}: {error}", path.display()));
        }
    }
    report.set("client.attempted", report.attempted as f64);
    report.set("client.failed", report.failed as f64);
    report.set(
        "failed_pct",
        report.failed as f64 * 100.0 / report.attempted.max(1) as f64,
    );
    workload.finish(&mut report);
    report
}

fn print_report(report: &Report, trace: Option<bool>) {
    for value in report.values() {
        let samples = value.samples.map_or(String::new(), |n| format!(" n={n}"));
        println!(
            "{} {} {} {}{samples}",
            report.workload, value.name, value.value, value.unit
        );
    }
    for note in &report.notes {
        println!("# {}: {note}", report.workload);
    }
    for reason in &report.invalid {
        println!("# INVALID {}: {reason}", report.workload);
    }
    println!("{}", report.result_json(trace));
}

#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    aa: bool,
}

const USAGE: &str = "usage: hjbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--quick] [--aa]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 42,
        ..Args::default()
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.0 == name) {
                    return Err(format!("unknown workload {name}"));
                }
                parsed.workload = Some(name);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--quick" => parsed.quick = true,
            "--aa" => parsed.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

impl Args {
    /// Default: a 20 s window and a 5 s traced pass; `--quick` 2 s and 1 s;
    /// `--seconds S` S and S/4.  With `--trace` the run measures for S
    /// seconds in all: `--trace 0` spends them on the window alone,
    /// `--trace 1` halves them between the window (the base of
    /// `bench.trace_overhead_pct`) and the traced pass.
    fn plan(&self) -> Plan {
        let (seconds, traced_s) = match (self.seconds, self.quick) {
            (Some(seconds), _) => (seconds, seconds / 4.0),
            (None, true) => (2.0, 1.0),
            (None, false) => (20.0, 5.0),
        };
        let (window_s, traced_s) = match self.trace {
            None => (seconds, traced_s),
            Some(false) => (seconds, 0.0),
            Some(true) => (seconds / 2.0, seconds / 2.0),
        };
        Plan {
            window_s,
            traced_s,
            setups: if self.quick { 1 } else { SETUP_REPEATS },
        }
    }

    fn selected(&self) -> Vec<&'static str> {
        WORKLOADS
            .iter()
            .map(|w| w.0)
            .filter(|name| {
                self.workload
                    .as_deref()
                    .is_none_or(|chosen| chosen == *name)
            })
            .collect()
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs the selected workloads once; prints and returns their reports.
fn run_set(args: &Args) -> Vec<Report> {
    args.selected()
        .into_iter()
        .map(|name| {
            let report = run_workload(name, args.seed, args.plan());
            print_report(&report, args.trace);
            report
        })
        .collect()
}

/// Compares two sets of runs of the same code on every (workload,
/// end-to-end metric); true when every pair agrees within its bound.
fn compare_aa(first: &[Report], second: &[Report]) -> bool {
    let mut agree = true;
    println!("# A/A: workload metric first second difference direction bound verdict");
    for (a, b) in first.iter().zip(second) {
        for metric in &END_TO_END {
            let (Some(x), Some(y)) = (a.get(metric.name), b.get(metric.name)) else {
                continue;
            };
            let within = metric.bound.admits(x, y);
            agree &= within;
            let difference = if x == 0.0 {
                format!("{} abs", y - x)
            } else {
                format!("{:+.2}%", (y - x) / x * 100.0)
            };
            println!(
                "aa {} {} {x} {y} {difference} {} {} {}",
                a.workload,
                metric.name,
                if metric.higher_is_better {
                    "higher-is-better"
                } else {
                    "lower-is-better"
                },
                metric.bound,
                if within { "ok" } else { "DISAGREE" }
            );
        }
        // Simulated times are exact: any difference is a model change.
        for value in a.values().iter().filter(|v| v.unit == "sim_ms") {
            if b.get(value.name) != Some(value.value) {
                agree = false;
                println!(
                    "aa {} {} is not bit-identical: DISAGREE",
                    a.workload, value.name
                );
            }
        }
    }
    agree
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("hjbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# hjbench seed={} nproc={nproc} rustc=\"{}\" git={} plan={:?}",
        args.seed,
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        args.plan(),
    );
    let first = run_set(&args);
    let mut ok = first.iter().all(Report::correct);
    if args.aa {
        let second = run_set(&args);
        ok &= second.iter().all(Report::correct);
        ok &= compare_aa(&first, &second);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_parses_and_plans() {
        let a = args("--workload wire_open --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.selected(), ["wire_open"]);
        assert_eq!((a.seed, a.trace), (7, Some(false)));
        let plan = a.plan();
        assert_eq!(
            (plan.window_s, plan.traced_s, plan.setups),
            (10.0, 0.0, SETUP_REPEATS)
        );
        let plan = args("--seconds 10 --trace 1").unwrap().plan();
        assert_eq!((plan.window_s, plan.traced_s), (5.0, 5.0));
        let a = args("").unwrap();
        assert_eq!(a.selected().len(), WORKLOADS.len());
        assert_eq!((a.plan().window_s, a.plan().traced_s), (20.0, 5.0));
        let quick = args("--quick").unwrap().plan();
        assert_eq!(
            (quick.window_s, quick.traced_s, quick.setups),
            (2.0, 1.0, 1)
        );
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    /// A `--quick` run of `join_dup_heavy` emits every metric the workload
    /// declares, the span file, and a result line with the agreed keys.
    #[test]
    fn quick_join_dup_heavy_emits_every_declared_metric() {
        let plan = args("--quick").unwrap().plan();
        let report = run_workload("join_dup_heavy", 42, plan);
        assert!(report.correct(), "{:?}", report.invalid);
        let declared = [
            "setup_s",
            "joins_per_s",
            "latency_p50_ms",
            "failed_pct",
            "datagen.generate_ms",
            "engine.new_ms",
            "engine.submit_ms_mean",
            "engine.unattributed_ms",
            "engine.peak_in_flight",
            "engine.rejected_saturated",
            "engine.requests_failed",
            "kernel.build_ms",
            "kernel.probe_ms",
            "kernel.build_ns_per_tuple",
            "kernel.probe_ns_per_tuple",
            "pipeline.tasks_per_join",
            "pipeline.steals_per_join",
            "pipeline.busy_share",
            "pipeline.dispatch_us",
            "client.latency_p95_ms",
            "client.latency_tail_ms",
            "client.tail_percentile",
            "client.samples",
            "client.offered_per_s",
            "client.attempted",
            "client.failed",
            "metrics.render_us",
            "metrics.trace_dropped",
            "bench.trace_overhead_pct",
        ];
        let emitted: Vec<&str> = report.values().iter().map(|v| v.name).collect();
        for name in declared {
            assert!(emitted.contains(&name), "{name} was not emitted");
        }
        assert_eq!(
            emitted.len(),
            declared.len(),
            "undeclared extras in {emitted:?}"
        );
        assert!(report.get("joins_per_s").unwrap() > 0.0);
        assert_eq!(report.get("failed_pct"), Some(0.0));

        // The layers' self times add back up to the call they were taken from.
        let parts = report.get("engine.unattributed_ms").unwrap()
            + report.get("kernel.build_ms").unwrap()
            + report.get("kernel.probe_ms").unwrap();
        let whole = report.get("engine.submit_ms_mean").unwrap();
        assert!((parts - whole).abs() <= 0.01 * whole, "{parts} vs {whole}");

        let trace = std::fs::read_to_string(out_dir().join("trace-join_dup_heavy.json")).unwrap();
        assert!(trace.contains("\"name\":\"engine.submit\"") && trace.contains("kernel.probe"));
        let line = report.result_json(Some(false));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    }
}
