//! `dag_partitioned`: the 24,576-net banded DAG of the partition sweep,
//! compiled as given (no optimizer, as the sweep compiles it) at
//! `partitions(2)` and 1024 lanes and fed pre-packed batches through
//! `Engine::run_batches`. Its single frame (~1 MiB at 1024 lanes)
//! overflows the 256 KiB tile budget; the two partition frames do not,
//! and the nets cut between them go through the exchange schedule.

use std::time::Instant;

use lbnn_core::{Engine, Flow, FlowOptions, LpuConfig};
use lbnn_netlist::{Lanes, Netlist};

use crate::affinity::Pin;
use crate::common::{median, secs, segmented, Metrics, Outcome, RunCfg};
use crate::refs::{column_mismatches, dag_netlist, dag_outputs, Rng, DAG_WIDTH};
use crate::trace::{self, span};
use crate::vgg16::{self, LANES};

const PARTITIONS: usize = 2;
/// Batches per `run_batches` call: one call is one operation.
const BATCHES: usize = 8;
/// Parts of the measured phase; each starts with set-ups whose times
/// give `setup_s` and `compile_ms`.
const SEGMENTS: usize = 8;
/// Untimed calls before measuring.
const WARMUP_CALLS: usize = 10;
/// Calls of the single-tape comparison in the traced pass.
const SINGLE_TAPE_CALLS: usize = 40;
/// The tape compilers' default cache budget (`TapeOptions::default`).
const CACHE_BUDGET: usize = 256 * 1024;

fn compile(netlist: &Netlist, partitions: usize) -> (Flow, Engine) {
    // The optimizer would prune the DAG to the 768 gates that feed its
    // outputs, leaving no net cut between the partitions.
    let options = FlowOptions {
        optimize: false,
        ..vgg16::flow_options()
    };
    let flow = span("compile.flow", 0, || {
        Flow::builder(netlist)
            .config(LpuConfig::paper_default())
            .options(options)
            .partitions(partitions)
            .compile()
            .expect("DAG compiles")
    });
    let engine = span("compile.engine", 0, || {
        flow.engine().expect("engine builds")
    });
    (flow, engine)
}

/// Batches whose outputs disagree with the formula.
fn failed_batches(results: &[lbnn_core::lpu::machine::RunResult], expected: &[Vec<u64>]) -> u64 {
    expected
        .iter()
        .enumerate()
        .filter(|(b, exp)| {
            results
                .get(*b)
                .is_none_or(|r| column_mismatches(&r.outputs, exp) > 0)
        })
        .count() as u64
}

/// The widest tile of `{16, 8, 4, 2, 1}` words whose slice of a
/// `slots`-slot frame fits the cache budget (the tape compilers' rule).
fn tile_words(slots: usize) -> usize {
    [16usize, 8, 4, 2]
        .into_iter()
        .find(|t| slots * t * 8 <= CACHE_BUDGET)
        .unwrap_or(1)
}

/// Runs `dag_partitioned`.
pub fn run(cfg: &RunCfg, traced: bool) -> Outcome {
    let mut setup_times = Vec::new();
    let mut compile_times = Vec::new();
    // One set-up: build the DAG and compile it. Both are single-threaded
    // and run on one CPU, so that vCPU moves stay out of their times;
    // the measured calls run unpinned.
    let mut setup = || {
        let _pin = Pin::first_cpu();
        let t = Instant::now();
        let netlist = span("dag.build", 0, dag_netlist);
        let tc = Instant::now();
        let (flow, engine) = compile(&netlist, PARTITIONS);
        compile_times.push(secs(tc) * 1e3);
        setup_times.push(secs(t));
        (netlist, flow, engine)
    };
    let (netlist, flow, mut engine) = setup();
    let artifact = span("artifact.encode", 0, || {
        flow.to_artifact_bytes().expect("flow serializes")
    });

    let mut rng = Rng::new(cfg.seed, 3);
    let batches: Vec<Vec<Lanes>> = (0..BATCHES)
        .map(|_| (0..DAG_WIDTH).map(|_| rng.lanes(LANES)).collect())
        .collect();
    let expected: Vec<Vec<u64>> = batches.iter().map(|b| dag_outputs(b)).collect();

    let mut out = Outcome::default();
    for _ in 0..WARMUP_CALLS {
        let res = engine.run_batches(&batches);
        out.failed += res.map_or(BATCHES as u64, |r| failed_batches(&r, &expected));
        out.attempted += BATCHES as u64;
    }
    // The remaining set-ups are spread over the measured phase.
    let setups_per_segment = (cfg.setups / SEGMENTS).max(1);
    let mut times_us = Vec::new();
    span("dag.measure", 0, || {
        segmented(
            cfg.phase(1.0),
            SEGMENTS,
            || {
                for _ in 0..setups_per_segment {
                    drop(setup());
                }
            },
            || {
                let t = Instant::now();
                let res = span("engine.run_batches", 0, || engine.run_batches(&batches));
                times_us.push(secs(t) * 1e6);
                out.failed += span("bench.check", 0, || {
                    res.as_ref()
                        .map_or(BATCHES as u64, |r| failed_batches(r, &expected))
                });
                // Freeing the call's outputs is the caller's cost, kept apart.
                span("model.free_outputs", 0, || drop(res));
                out.attempted += BATCHES as u64;
            },
        )
    });

    let e = &mut out.e2e;
    e.put("setup_s", median(&setup_times), "s");
    // A typical call's rate: the median is robust to the host's steal.
    let p50_s = median(&times_us) / 1e6;
    e.put(
        "throughput_sps",
        (BATCHES * LANES) as f64 / p50_s,
        "samples/s",
    );
    e.put("throughput_rps", 1.0 / p50_s, "requests/s");
    e.put("latency_p50_us", median(&times_us), "us");
    e.put("compile_ms", median(&compile_times), "ms");
    e.put("artifact_kib", artifact.len() as f64 / 1024.0, "KiB");

    if traced {
        layer_metrics(&netlist, &flow, &engine, &batches, &expected, &mut out);
    }
    out
}

fn layer_metrics(
    netlist: &Netlist,
    flow: &Flow,
    engine: &Engine,
    batches: &[Vec<Lanes>],
    expected: &[Vec<u64>],
    out: &mut Outcome,
) {
    let mut m = Metrics::default();
    for pass in vgg16::PASSES {
        let us = flow.report.pass(pass).map_or(0.0, |p| p.wall_us);
        m.put(format!("compile.pass.{pass}_us"), us, "us");
    }
    let stats = engine.partition_stats().expect("partitioned engine");
    m.put("partition.cut_nets", stats.cut_nets as f64, "count");
    m.put(
        "partition.exchange_kib_per_block",
        stats.exchange_words(LANES / 64) as f64 * 8.0 / 1024.0,
        "KiB",
    );
    m.put(
        "partition.max_frame_slots",
        stats.max_frame_slots as f64,
        "count",
    );
    m.put(
        "partition.tile_words",
        tile_words(stats.max_frame_slots) as f64,
        "words",
    );

    // The same DAG on the single-tape executor, same batches.
    let (_, mut single) = compile(netlist, 1);
    for _ in 0..SINGLE_TAPE_CALLS {
        let res = span("executor.single_tape", 0, || single.run_batches(batches));
        out.failed += res.map_or(BATCHES as u64, |r| failed_batches(&r, expected));
        out.attempted += BATCHES as u64;
    }
    let samples = (SINGLE_TAPE_CALLS * BATCHES * LANES) as f64;
    m.put(
        "executor.single_tape_ns_per_sample",
        trace::agg("executor.single_tape").total_ns as f64 / samples,
        "ns",
    );
    out.layer = m;
}
