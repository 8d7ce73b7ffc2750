//! `ioql-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! --ioql PATH [--cpus N] [--commit REV]`
//!
//! Prints a report line and, last, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). Exits nonzero when
//! any answer is wrong or any request fails. Usually launched through
//! `run.py`, which builds the shipped `ioql` binary and passes `--ioql`.

use ioql_perfbench::gen::Label;
use ioql_perfbench::stats::{json_num, json_str, median, Metric};
use ioql_perfbench::system::{Host, ServerKind, CONFIG};
use ioql_perfbench::trace::traced_run;
use ioql_perfbench::workloads::{attempted_failed, end_to_end, run_round, shape_p50s, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// The shipped `ioql` binary the served workload starts.
    ioql: PathBuf,
    cpus: usize,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut ioql = None;
    let mut cpus = 0;
    let mut commit = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(val()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = val()? == "1",
            "--ioql" => ioql = Some(PathBuf::from(val()?)),
            "--cpus" => cpus = val()?.parse().map_err(|e| format!("--cpus: {e}"))?,
            "--commit" => commit = val()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        ioql: ioql.ok_or("--ioql is required")?,
        cpus,
        commit,
    })
}

fn metrics_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn notes_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| format!("{}: {}", json_str(&m.name), json_str(&m.note)))
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn run(args: &Args) -> Result<(Vec<Metric>, usize, usize, String), String> {
    let w = args.workload;
    let server = ServerKind::Binary(args.ioql.clone());
    if args.trace {
        let t = traced_run(w, args.seed, false, &server)?;
        for e in &t.errors {
            eprintln!("check failed: {e}");
        }
        std::fs::create_dir_all(".bench_out").map_err(|e| format!("mkdir .bench_out: {e}"))?;
        let path = format!(".bench_out/spans-{}-{}.jsonl", w.name(), args.seed);
        std::fs::write(&path, t.recorder.to_jsonl()).map_err(|e| format!("write {path}: {e}"))?;
        let extra = format!(
            "\"spans\": {}, \"spans_file\": {}",
            t.recorder.spans().len(),
            json_str(&path)
        );
        return Ok((t.metrics, t.attempted, t.failed, extra));
    }
    let rounds_n = w.rounds(args.seconds);
    if w.in_process() {
        // Unmeasured: lets this process's heap and the store's first-touch
        // page faults settle before the timed rounds.
        run_round(w, args.seed, false, &server, "warm-up")?;
    }
    let mut rounds = Vec::new();
    for r in 0..rounds_n {
        let round = run_round(w, args.seed, false, &server, &format!("round-{r}"))?;
        for e in &round.errors {
            eprintln!("check failed: {e}");
        }
        let p50 = |l: Label| {
            let v: Vec<f64> = round
                .samples
                .iter()
                .filter(|s| s.label == l)
                .map(|s| s.ms)
                .collect();
            median(&v).unwrap_or(0.0)
        };
        let secs_list = |v: &[f64]| {
            v.iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join("/")
        };
        eprintln!(
            "round {r}: setup {} s, sequence {:.3} s ({} requests), restarts {} s, \
             p50 read {:.3} ms, scan {:.3} ms, write {:.3} ms",
            secs_list(&round.setups),
            round.wall_s,
            round.samples.len(),
            secs_list(&round.recovery_s),
            p50(Label::Read),
            p50(Label::Scan),
            p50(Label::Write),
        );
        rounds.push(round);
    }
    let (attempted, failed) = attempted_failed(&rounds);
    let shapes: Vec<String> = shape_p50s(&rounds)
        .iter()
        .map(|(shape, n, p50)| {
            format!(
                "{}: {{\"n\": {n}, \"p50_ms\": {}}}",
                json_str(shape),
                json_num(*p50)
            )
        })
        .collect();
    for (shape, n, p50) in shape_p50s(&rounds) {
        eprintln!("shape {shape:<16} n={n:<6} p50 {p50:.3} ms");
    }
    Ok((
        end_to_end(&rounds),
        attempted,
        failed,
        format!(
            "\"rounds\": {rounds_n}, \"shapes\": {{{}}}",
            shapes.join(", ")
        ),
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ioql-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::measure(args.cpus);
    let (metrics, attempted, failed, extra) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ioql-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for m in &metrics {
        eprintln!("{:<34} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"commit\": {}, \"config\": {}, \"server\": {}, \"host\": {{\"cpus\": {}, \
         \"available_parallelism\": {}, \"calibration_ns_per_iter\": {}}}, {extra}, \"notes\": {}}}}}",
        json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        args.trace,
        json_str(&args.commit),
        json_str(CONFIG),
        json_str(&format!("binary {}", args.ioql.display())),
        host.cpus,
        host.available_parallelism,
        json_num(host.calibration_ns_per_iter),
        notes_json(&metrics),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics_json(&metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
