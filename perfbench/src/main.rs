//! End-to-end benchmark of the lbnn serving stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! With `--trace 0` the chosen workload runs once, untraced, and the
//! metrics are its end-to-end ones. With `--trace 1` it runs untraced,
//! then again with spans recorded; every other workload then runs a
//! short traced pass, so that each per-layer metric is measured where
//! that layer does its work. The metrics are the per-layer ones; the
//! spans, a self-time table and the tracing overhead (traced minus
//! untraced end-to-end figures) are written under `perfbench/out/`.

mod affinity;
mod common;
mod dag;
mod l8;
mod loopback;
mod refs;
mod trace;
mod vgg16;

use std::fmt::Write as _;
use std::path::PathBuf;

use common::{Metrics, Outcome, RunCfg};

const WORKLOADS: [&str; 4] = [
    "vgg16_batch",
    "l8_runtime",
    "l8_loopback",
    "dag_partitioned",
];

/// Measured seconds of the short traced pass of the other workloads.
const SIDE_PASS_SECONDS: f64 = 2.0;

/// Where spans and trace summaries go, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Set-ups per run behind `setup_s`: few where a set-up takes seconds
/// (VGG16 synthesis), many where it takes milliseconds (the DAG).
fn setups(workload: &str) -> usize {
    match workload {
        "vgg16_batch" => 3,
        "l8_runtime" => 8,
        "l8_loopback" => 9,
        _ => 32,
    }
}

fn run_workload(name: &str, cfg: &RunCfg, traced: bool) -> Outcome {
    match name {
        "vgg16_batch" => vgg16::run(cfg, traced),
        "l8_runtime" => l8::run_runtime(cfg, traced),
        "l8_loopback" => loopback::run(cfg, traced),
        "dag_partitioned" => dag::run(cfg, traced),
        _ => unreachable!("workload names are checked at parse time"),
    }
}

fn json_metrics(m: &Metrics) -> String {
    let body: Vec<String> =
        m.0.iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
    format!("{{{}}}", body.join(", "))
}

/// The timed phases whose wall time the blocking-path account splits.
const BLOCKING_ROOTS: [&str; 3] = ["vgg16.measure", "runtime.burst", "dag.measure"];

/// The self-time table, the blocking-path account of each timed phase
/// and the tracing overhead, as text.
fn trace_summary(workload: &str, plain: &Metrics, traced: &Metrics) -> String {
    let aggs = trace::aggregates();
    let mut s = String::new();
    let _ = writeln!(s, "# self time per span, traced pass of {workload}");
    let _ = writeln!(
        s,
        "{:<32} {:>10} {:>14} {:>14} {:>12}",
        "span", "count", "total_ms", "self_ms", "mean_us"
    );
    let mut rows: Vec<_> = aggs.iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_ns));
    for (name, a) in rows {
        let _ = writeln!(
            s,
            "{:<32} {:>10} {:>14.3} {:>14.3} {:>12.3}",
            name,
            a.count,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6,
            a.total_ns as f64 / a.count.max(1) as f64 / 1e3
        );
    }
    let _ = writeln!(
        s,
        "\n# blocking path: self time of the spans under each timed phase, \
         as a share of its wall time"
    );
    for root in BLOCKING_ROOTS {
        let phase = trace::agg(root);
        let wall = phase.total_ns as f64;
        if wall == 0.0 {
            continue;
        }
        let mut rows: Vec<_> = trace::under(root).into_iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_ns));
        for (name, a) in rows {
            let share = 100.0 * a.self_ns as f64 / wall;
            let _ = writeln!(s, "{root:<16} {name:<28} {share:>7.2}%");
        }
        // The phase's own self time is what no span under it covers.
        let share = 100.0 * phase.self_ns as f64 / wall;
        let _ = writeln!(s, "{root:<16} {:<28} {share:>7.2}%", "(unattributed)");
    }
    let _ = writeln!(s, "\n# tracing overhead on {workload}: traced - untraced");
    for (name, v, unit) in &plain.0 {
        if let Some(t) = traced.get(name) {
            let _ = writeln!(
                s,
                "{name:<16} untraced {v:>14.3} traced {t:>14.3} diff {:>+12.3} {unit} ({:+.1}%)",
                t - v,
                100.0 * (t - v) / v
            );
        }
    }
    s
}

/// Runs `workload` untraced and traced, then every other workload in a
/// short traced pass; returns the merged per-layer metrics.
fn traced_run(args: &Args) -> Outcome {
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        setups: setups(&args.workload),
    };
    let plain = run_workload(&args.workload, &cfg, false);
    // Each traced pass starts from empty aggregates, so every figure
    // read from them comes from the workload that measures it.
    trace::set_enabled(true);
    let mut out = run_workload(&args.workload, &cfg, true);
    let summary = trace_summary(&args.workload, &plain.e2e, &out.e2e);
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    let side = RunCfg {
        seed: args.seed,
        seconds: SIDE_PASS_SECONDS,
        setups: 1,
    };
    for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
        trace::reset();
        let o = run_workload(other, &side, true);
        out.attempted += o.attempted;
        out.failed += o.failed;
        for (n, v, u) in o.layer.0 {
            // Pass times sum over the VGG16 and DAG compiles.
            let v = if n.starts_with("compile.pass.") {
                v + out.layer.get(&n).unwrap_or(0.0)
            } else {
                v
            };
            out.layer.put(n, v, u);
        }
    }
    trace::set_enabled(false);

    eprint!("{summary}");
    let stem = format!("trace-{}-seed{}", args.workload, args.seed);
    let dir = PathBuf::from(OUT_DIR);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.txt")), &summary))
        .and_then(|_| trace::write_spans(&dir.join(format!("{stem}.jsonl"))));
    match written {
        Ok(n) => eprintln!("wrote {n} spans to {OUT_DIR}/{stem}.jsonl"),
        Err(e) => {
            eprintln!("perfbench: cannot write trace output: {e}");
            std::process::exit(1);
        }
    }
    out.layer.0.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = if args.trace {
        traced_run(&args)
    } else {
        let cfg = RunCfg {
            seed: args.seed,
            seconds: args.seconds,
            setups: setups(&args.workload),
        };
        let mut out = run_workload(&args.workload, &cfg, false);
        out.e2e.put("peak_rss_mib", common::peak_rss_mib(), "MiB");
        out
    };
    let metrics = if args.trace { &out.layer } else { &out.e2e };
    for (n, v, u) in &metrics.0 {
        eprintln!("{n:>36} {v:>16.4} {u}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        json_metrics(metrics)
    );
}
