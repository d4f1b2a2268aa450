//! The fleet benchmark: closed-loop `IXSRV01` traffic against an
//! in-process server, end to end (`--trace 0`) or layer by layer
//! (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path fleetbench/Cargo.toml -- \
//!     --workload fault_storm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod inputs;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use workloads::{Measured, Plan, Workload};

/// Setups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Frames per group behind `frame_p99_us`: ten beyond the p99 of each.
const P99_GROUP: usize = 1000;

/// One reported figure.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: fleetbench --workload <steady_ingest|fault_storm|tenant_churn> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or("--seconds must be 1..=600")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A fixed compute loop owned by the benchmark: its time tells a slow
/// phase of the host from a regression of the program.
fn calibrate_ms() -> f64 {
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0.0f64);
            for i in 0..2_000_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc += (x >> 11) as f64 / (1.0 + (i & 7) as f64);
            }
            std::hint::black_box(acc);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&mut samples)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The untraced run: set up `SETUPS` times, keep the last deployment,
/// measure the workload on it. Returns the metrics of the JSON result,
/// which every workload reports, and figures that are only printed.
fn end_to_end(plan: &Plan, seconds: u64) -> (Vec<Metric>, Vec<Metric>, Measured) {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut deployment: Option<workloads::Deployment> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = deployment.take() {
            previous.stop();
        }
        let next = workloads::deploy(plan);
        setups.push(next.setup.as_secs_f64());
        deployment = Some(next);
    }
    let deployment = deployment.expect("SETUPS > 0");
    let setup_list: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
    println!("setups (s): {}", setup_list.join(" "));
    let measured = workloads::run(plan, &deployment, seconds);
    deployment.stop();

    let traffic = &measured.traffic;
    let mut frame_us: Vec<f64> = traffic
        .frames
        .iter()
        .map(|&(_, ns)| ns as f64 / 1e3)
        .collect();
    let metrics = vec![
        Metric::new("setup_s", "s", stats::median(&mut setups)),
        Metric::new("peak_rss_mb", "MiB", measured.peak_rss_mb),
        Metric::new("frame_p50_us", "us", stats::median(&mut frame_us)),
    ];
    // Printed, not gated. The rate is a mean over every operation, so the
    // host's slow phases, which stretch the tail of diagnoses most, move
    // it most: fault_storm read 2620 to 4008 frames/s over five seeds on
    // the 2-core host while its frame p50 stayed within 52 to 60 us. The
    // p99 hangs on whether 1 % of tenant_churn's 2.5 ms frames were
    // preempted (3.5 to 11 ms between runs of the same code).
    let mut frames = traffic.frames.clone();
    let mut printed = vec![
        Metric::new(
            "ingest_frames_per_s",
            "1/s",
            stats::windowed_rate(&traffic.per_second, measured.wall),
        ),
        Metric::new(
            "frame_p99_us",
            "us",
            stats::grouped_quantile(&mut frames, P99_GROUP, 0.99) / 1e3,
        ),
    ];
    if let Some(accuracy) = measured.accuracy {
        let mut diag_ms = stats::scaled(&traffic.diagnosis_ns, 1e6);
        let mut op_ms = stats::scaled(&traffic.diagnose_op_ns, 1e6);
        printed.extend([
            Metric::new(
                "diagnosis_p50_ms",
                "ms",
                stats::quantile(&mut diag_ms, 0.50),
            ),
            Metric::new(
                "diagnosis_p90_ms",
                "ms",
                stats::quantile(&mut diag_ms, 0.90),
            ),
            Metric::new(
                "diagnose_op_p50_ms",
                "ms",
                stats::quantile(&mut op_ms, 0.50),
            ),
            Metric::new("diagnosis_top1", "ratio", accuracy.top1),
            Metric::new("detect_delay_ticks", "ticks", accuracy.detect_delay_ticks),
        ]);
        println!(
            "samples: {} diagnoses ({} post-onset), {} on-demand Diagnose",
            traffic.diagnosis_ns.len(),
            accuracy.post_onset_diagnoses,
            traffic.diagnose_op_ns.len()
        );
    }
    (metrics, printed, measured)
}

/// Prints the JSON result line; a metric that could not be measured
/// prints as 0 and makes the run incorrect.
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let correct = correct && finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fleetbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let calib_start = calibrate_ms();
    println!(
        "host: cores={} cpu=\"{}\" rustc=\"{}\" calib_start_ms={calib_start:.3}",
        std::thread::available_parallelism().map_or(0, usize::from),
        cpu_model(),
        env!("FLEETBENCH_RUSTC"),
    );
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let generated = Instant::now();
    let plan = Plan::generate(args.workload, args.seed, args.seconds);
    println!(
        "generated inputs in {:.1} ms: {} stream tenants ({} frames), {} distinct fault \
         runs ({} replays), stream offset {}",
        ms(generated.elapsed()),
        plan.stream_tenants.len(),
        plan.stream_frames,
        plan.fault_runs.len(),
        plan.replays.len(),
        plan.offset
    );
    if !plan.fault_runs.is_empty() {
        println!("fault mix: {}", plan.fault_mix_line());
    }

    let (metrics, correct, attempted, failed) = if args.trace {
        let traced = trace::run(&plan, args.seed, calib_start);
        let ok = traced.checks.iter().all(|(_, ok)| *ok);
        for (name, ok) in &traced.checks {
            println!("check: {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        (traced.metrics, ok, traced.attempted, traced.failed)
    } else {
        let (metrics, printed, measured) = end_to_end(&plan, args.seconds);
        let calib_end = calibrate_ms();
        println!("host: calib_end_ms={calib_end:.3}");
        let traffic = &measured.traffic;
        for m in metrics.iter().chain(&printed) {
            println!("{} = {} {}", m.name, m.value, m.unit);
        }
        let tally = &traffic.tally;
        println!(
            "failed_ops_ratio = {} ratio ({} of {} operations)",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            tally.failed,
            tally.attempted
        );
        if let Some(why) = &tally.first_failure {
            println!("first failure: {why}");
        }
        println!(
            "samples: {} ingest frames in {:.3} s, {} round trips without diagnosis sampled",
            traffic.answered(),
            measured.wall.as_secs_f64(),
            traffic.frames.len()
        );
        let mut ok = tally.failed == 0;
        for (name, passed) in &measured.checks {
            println!("check: {name}: {}", if *passed { "ok" } else { "FAILED" });
            ok &= passed;
        }
        (metrics, ok, tally.attempted, tally.failed)
    };
    print_result(correct, attempted, failed, &metrics);
    ExitCode::SUCCESS
}
