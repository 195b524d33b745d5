//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <paper-model|paper-mssp> --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it times what users run and prints the end-to-end
//! metrics; with `--trace 1` it runs one end-to-end pass and then the
//! traced per-layer replay, and prints the per-layer metrics. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Any failed check makes the exit code 1.
//!
//! Internal subcommands, used by the benchmark on itself: `worker` (one
//! workload pass in its own process) and `replay` (the traced replay).

mod child;
mod paper;
mod plan;
mod replay;
mod serve;
mod span;
mod stats;

use child::{remove_dir, run_self, Finished, READY};
use paper::Paper;
use stats::{median, result_line, Metric};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Every run, builds aside, ends well inside the caller's 180 s limit.
const RUN_DEADLINE: Duration = Duration::from_secs(170);
/// Launches whose set-up time is measured, at least, per run.
const SETUP_SAMPLES: usize = 101;

const WORKLOADS: [&str; 2] = ["paper-model", "paper-mssp"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        let num = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(val()?.clone()),
            "--seed" => seed = Some(num(val()?)?),
            "--seconds" => seconds = Some(num(val()?)?),
            "--trace" => trace = Some(num(val()?)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds as f64,
        trace,
    })
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Counts of one run's operations and whether every check held.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn fail(&mut self, n: u64, why: &str) {
        self.failed += n;
        eprintln!("perfbench: FAILED: {why}");
    }
}

/// A scratch directory inside the checkout, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = std::env::current_dir()
            .map_err(|e| format!("cwd: {e}"))?
            .join(".bench_build")
            .join(format!("perfbench-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        remove_dir(&self.0);
    }
}

/// Results of one paper pass, parsed from the worker's result line.
struct PaperPass {
    ready_s: f64,
    stage1_s: f64,
    stage2_s: f64,
    rss_mib: f64,
    cpu_s: f64,
    digest: String,
}

impl PaperPass {
    /// The pass's timed part: both experiment calls.
    fn wall_s(&self) -> f64 {
        self.stage1_s + self.stage2_s
    }
}

fn paper_pass(args: &Args, check: bool, deadline: Instant, tally: &mut Tally) -> Option<PaperPass> {
    let kind = Paper::from_name(&args.workload).expect("paper workload");
    let ops = kind.ops_per_pass();
    tally.attempted += ops;
    let mut argv = vec![
        "worker".to_string(),
        args.workload.clone(),
        "--seed".to_string(),
        args.seed.to_string(),
    ];
    if check {
        argv.push("--check".to_string());
    }
    let f = match run_self(&argv, deadline) {
        Ok(f) => f,
        Err(e) => {
            tally.fail(ops, &e);
            return None;
        }
    };
    for line in f.lines.iter().filter(|l| l.starts_with("check ")) {
        println!("{line}");
    }
    let bad = f.num("check_failures").unwrap_or(1.0) as u64;
    if bad > 0 {
        tally.fail(bad, "oracle check mismatch");
    }
    let parsed = (|| {
        Some(PaperPass {
            ready_s: f.ready_s?,
            stage1_s: f.num("stage1_s")?,
            stage2_s: f.num("stage2_s")?,
            rss_mib: f.num("rss_mib")?,
            cpu_s: f.num("cpu_s")?,
            digest: f.field("digest")?.to_string(),
        })
    })();
    if parsed.is_none() {
        tally.fail(ops, "worker printed no complete result line");
    }
    if let Some(c) = f.field("counts_digest").filter(|_| check) {
        println!("simulated counts digest {c}");
    }
    parsed
}

fn setup_launch(args: &Args, deadline: Instant) -> Result<f64, String> {
    let argv = [
        "worker".to_string(),
        args.workload.clone(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--setup-only".to_string(),
    ];
    let f: Finished = run_self(&argv, deadline)?;
    f.ready_s.ok_or("worker never became ready".to_string())
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(f64::NAN)
}

fn run_paper(args: &Args, scratch: &Scratch, tally: &mut Tally) -> Vec<Metric> {
    let deadline = Instant::now() + RUN_DEADLINE;
    let mut passes: Vec<PaperPass> = Vec::new();
    while let Some(p) = paper_pass(args, passes.is_empty(), deadline, tally) {
        println!(
            "pass {}: stage1 {:.3} s, stage2 {:.3} s, cpu {:.2} s, ready {:.4} s, peak rss {:.1} MiB, digest {}",
            passes.len() + 1,
            p.stage1_s,
            p.stage2_s,
            p.cpu_s,
            p.ready_s,
            p.rss_mib,
            p.digest
        );
        if let Some(first) = passes.first() {
            if first.digest != p.digest {
                tally.fail(
                    Paper::from_name(&args.workload)
                        .expect("paper")
                        .ops_per_pass(),
                    "results digest differs between passes of one seed",
                );
            }
        }
        passes.push(p);
        // Whole passes until the timed part reaches --seconds.
        let timed: f64 = passes.iter().map(PaperPass::wall_s).sum();
        if args.trace || timed >= args.seconds {
            break;
        }
    }
    if args.trace {
        return replay_metrics(args, scratch, &passes, tally, deadline);
    }
    let mut setup: Vec<f64> = passes.iter().map(|p| p.ready_s).collect();
    while setup.len() < SETUP_SAMPLES {
        tally.attempted += 1;
        match setup_launch(args, deadline) {
            Ok(s) => setup.push(s),
            Err(e) => {
                tally.fail(1, &e);
                break;
            }
        }
    }
    let col = |f: fn(&PaperPass) -> f64| med(&passes.iter().map(f).collect::<Vec<_>>());
    vec![
        metric("setup_s", med(&setup), "s"),
        metric("stage1_s", col(|p| p.stage1_s), "s"),
        metric("stage2_s", col(|p| p.stage2_s), "s"),
        metric("peak_rss_mb", col(|p| p.rss_mib), "MiB"),
    ]
}

/// Runs the traced replay with spans on and off and turns the spans
/// into the per-layer metrics. `e2e` holds the run's end-to-end passes.
fn replay_metrics(
    args: &Args,
    scratch: &Scratch,
    e2e: &[PaperPass],
    tally: &mut Tally,
    deadline: Instant,
) -> Vec<Metric> {
    let mut walls = [f64::NAN; 2];
    let mut metrics = Vec::new();
    for (i, spans) in ["1", "0"].into_iter().enumerate() {
        tally.attempted += 1;
        let dir = scratch.0.join(format!("replay-{spans}"));
        let argv = [
            "replay",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--spans",
            spans,
            "--dir",
            &dir.display().to_string(),
        ]
        .map(str::to_string);
        match run_self(&argv, deadline) {
            Ok(f) => {
                walls[i] = f.num("wall_s").unwrap_or(f64::NAN);
                let bad = f.num("failures").unwrap_or(1.0) as u64;
                if bad > 0 {
                    tally.fail(bad, "replay consistency check");
                }
                if spans == "1" {
                    metrics = f
                        .lines
                        .iter()
                        .filter_map(|l| {
                            let mut w = l.strip_prefix("metric ")?.split_whitespace();
                            let name = w.next()?;
                            let value = w.next()?.parse().ok()?;
                            let unit = unit_label(w.next()?)?;
                            Some(metric(name, value, unit))
                        })
                        .collect();
                }
            }
            Err(e) => tally.fail(1, &e),
        }
    }
    let e2e_wall = med(&e2e.iter().map(PaperPass::wall_s).collect::<Vec<_>>());
    // A ratio rather than (on - off) / off, which can be 0 or negative.
    metrics.push(metric(
        "bench.span_overhead_ratio",
        walls[0] / walls[1],
        "ratio",
    ));
    metrics.push(metric(
        "bench.replay_over_e2e",
        walls[0] / e2e_wall,
        "ratio",
    ));
    metrics
}

/// Units the replay may print; result units must be static strings.
fn unit_label(u: &str) -> Option<&'static str> {
    ["s", "ms", "us", "ns", "ratio", "count"]
        .into_iter()
        .find(|&k| k == u)
}

/// `worker <paper-workload> --seed N [--setup-only] [--check]`: one pass
/// in this process.
fn worker(args: &[String]) -> Result<(), String> {
    let kind = Paper::from_name(args.first().ok_or("worker needs a workload")?)
        .ok_or("worker runs paper workloads only")?;
    let seed: u64 = args
        .iter()
        .skip_while(|a| *a != "--seed")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("worker needs --seed N")?;
    let flag = |f: &str| args.iter().any(|a| a == f);
    let opts = kind.opts(seed);
    println!("{READY}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    if flag("--setup-only") {
        return Ok(());
    }
    let cpu0 = stats::cpu_seconds("self");
    let (rows, s1, s2) = paper::run_pass(kind, &opts);
    let cpu = stats::cpu_seconds("self")
        .zip(cpu0)
        .map_or(f64::NAN, |(b, a)| b - a);
    let rss = stats::peak_rss_mib("self").ok_or("VmHWM unreadable")?;
    let digest = paper::digest(&rows);
    let (mut failures, mut counts) = (0, 0);
    if flag("--check") {
        let report = paper::check(kind, &rows, &opts);
        for c in &report.checks {
            let verdict = if c.ok { "ok" } else { "MISMATCH" };
            println!("check {verdict}: {}", c.what);
        }
        failures = report.checks.iter().filter(|c| !c.ok).count();
        counts = report.counts_digest;
    }
    println!(
        "result stage1_s={s1} stage2_s={s2} cpu_s={cpu} rss_mib={rss} digest={digest:016x} \
         check_failures={failures} counts_digest={counts:016x}"
    );
    Ok(())
}

/// `replay <workload> --seed N --spans 0|1 --dir D`.
fn replay_cmd(args: &[String]) -> Result<(), String> {
    let workload = args.first().ok_or("replay needs a workload")?;
    let get = |f: &str| {
        args.iter()
            .skip_while(|a| *a != f)
            .nth(1)
            .ok_or(format!("replay needs {f}"))
    };
    let seed: u64 = get("--seed")?.parse().map_err(|_| "bad --seed")?;
    let spans = get("--spans")? == "1";
    let dir = PathBuf::from(get("--dir")?);
    let out = replay::run(workload, seed, spans, &dir);
    remove_dir(&dir);
    let out = out?;
    for m in &out.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for f in &out.failures {
        eprintln!("replay: {f}");
    }
    println!(
        "result wall_s={} failures={}",
        out.wall_s,
        out.failures.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = |r: Result<(), String>| match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    };
    match argv.first().map(String::as_str) {
        Some("worker") => return sub(worker(&argv[1..])),
        Some("replay") => return sub(replay_cmd(&argv[1..])),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut tally = Tally::default();
    let metrics = run_paper(&args, &scratch, &mut tally);
    drop(scratch);
    let correct = tally.failed == 0;
    // A failed run still reports its counts; metrics it could not
    // measure are left out rather than printed as non-numbers.
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .filter(|m| correct || m.value.is_finite())
        .collect();
    match result_line(correct, tally.attempted.max(1), tally.failed, &metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
