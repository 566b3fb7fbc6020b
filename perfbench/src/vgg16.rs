//! `vgg16_batch`: VGG16[2:13] synthesized from its seeded BNN blocks,
//! compiled at `bitsliced:1024`, and fed pre-packed 1024-lane batches
//! through `CompiledModel::infer_batches` on one thread.

use std::time::Instant;

use lbnn_bench::bench_workload_options;
use lbnn_core::model::{chain_inputs, ModelInference};
use lbnn_core::{Backend, CompiledModel, EngineScratch, FlowOptions, LayerSpec, LpuConfig};
use lbnn_models::workload::layer_workload;
use lbnn_models::zoo;
use lbnn_netlist::Lanes;

use crate::affinity::Pin;
use crate::common::{median, secs, segmented, timed_setups, Metrics, Outcome, RunCfg};
use crate::refs::{chained_outputs, column_mismatches, LayerTable, Rng, FANIN};
use crate::trace::{self, span};

/// Samples per batch (one 1024-lane bit-sliced frame).
pub const LANES: usize = 1024;
/// Batches per `infer_batches` call: one call is one operation.
const BATCHES: usize = 8;
/// Parts of the measured phase; each starts with `COMPILES_PER_SEGMENT`
/// recompiles behind `compile_ms`.
const SEGMENTS: usize = 8;
const COMPILES_PER_SEGMENT: usize = 4;
/// Untimed calls before measuring (the first passes run cold).
const WARMUP_CALLS: usize = 20;

const SYNTH: [&str; 12] = [
    "synth.L1",
    "synth.L2",
    "synth.L3",
    "synth.L4",
    "synth.L5",
    "synth.L6",
    "synth.L7",
    "synth.L8",
    "synth.L9",
    "synth.L10",
    "synth.L11",
    "synth.L12",
];
const KERNEL: [&str; 12] = [
    "kernel.L1",
    "kernel.L2",
    "kernel.L3",
    "kernel.L4",
    "kernel.L5",
    "kernel.L6",
    "kernel.L7",
    "kernel.L8",
    "kernel.L9",
    "kernel.L10",
    "kernel.L11",
    "kernel.L12",
];

/// The serving options every block is compiled with.
pub fn flow_options() -> FlowOptions {
    FlowOptions {
        backend: Backend::BitSliced { words: LANES / 64 },
        ..Default::default()
    }
}

/// Synthesizes the twelve VGG16[2:13] blocks (the FFCL of each seeded
/// BNN block).
fn synthesize() -> Vec<LayerSpec> {
    let model = zoo::vgg16_layers_2_13();
    let wl = bench_workload_options();
    model
        .layers
        .iter()
        .enumerate()
        .map(|(i, shape)| span(SYNTH[i], 0, || layer_workload(shape, i, &wl)).to_spec())
        .collect()
}

/// Compiles the blocks into a model whose layer engines are built.
fn compile(specs: Vec<LayerSpec>) -> CompiledModel {
    let model = span("compile.model", 0, || {
        CompiledModel::compile("vgg16", specs, &LpuConfig::paper_default(), &flow_options())
            .expect("VGG16 blocks compile")
    });
    span("compile.engine", 0, || {
        for layer in model.layers() {
            layer.engine().expect("layer engine builds");
        }
    });
    model
}

/// Batches whose outputs disagree with the reference.
fn failed_batches(outs: &[Vec<Vec<Lanes>>], expected: &[Vec<Vec<u64>>]) -> u64 {
    outs.iter()
        .zip(expected)
        .filter(|(layers, exp)| {
            layers.len() != exp.len()
                || layers
                    .iter()
                    .zip(exp.iter())
                    .any(|(got, want)| column_mismatches(got, want) > 0)
        })
        .count() as u64
}

/// One pass through the model with each layer engine and the chaining
/// driven here, so every kernel and the chaining get their own span.
fn traced_call(
    model: &CompiledModel,
    scratch: &mut [EngineScratch],
    batches: &[Vec<Lanes>],
) -> Option<Vec<Vec<Vec<Lanes>>>> {
    span("model.call", 0, || {
        batches
            .iter()
            .map(|batch| {
                span("model.batch", 0, || {
                    let mut outs: Vec<Vec<Lanes>> = Vec::with_capacity(model.layers().len());
                    for (i, (layer, scratch)) in
                        model.layers().iter().zip(scratch.iter_mut()).enumerate()
                    {
                        let engine = layer.engine().ok()?;
                        let want = layer.flow().program.num_inputs;
                        let run = match outs.last() {
                            None => span(KERNEL[i], 0, || engine.run_batch_with(scratch, batch)),
                            Some(prev) if prev.len() == want => {
                                span(KERNEL[i], 0, || engine.run_batch_with(scratch, prev))
                            }
                            Some(prev) => {
                                let inputs = span("model.chain", 0, || chain_inputs(prev, want));
                                span(KERNEL[i], 0, || engine.run_batch_with(scratch, &inputs))
                            }
                        };
                        outs.push(run.ok()?.outputs);
                    }
                    Some(outs)
                })
            })
            .collect()
    })
}

fn layer_outputs(result: Vec<ModelInference>) -> Vec<Vec<Vec<Lanes>>> {
    result.into_iter().map(|r| r.layer_outputs).collect()
}

/// Runs the workload; `traced` drives the layers from here under spans.
/// Everything here runs on one thread, kept on one CPU so that moves
/// between vCPUs stay out of its times.
pub fn run(cfg: &RunCfg, traced: bool) -> Outcome {
    let _pin = Pin::first_cpu();
    let ((specs, model), setup_times) = timed_setups(cfg.setups, || {
        let specs = synthesize();
        let model = compile(specs.clone());
        (specs, model)
    });

    let bytes = span("artifact.encode", 0, || {
        model.to_artifact_bytes().expect("model serializes")
    });
    let decoded = span("artifact.decode", 0, || {
        CompiledModel::from_artifact_bytes(&bytes).expect("artifact loads")
    });
    drop(decoded);

    let shapes = zoo::vgg16_layers_2_13();
    let tables: Vec<LayerTable> = shapes
        .layers
        .iter()
        .enumerate()
        .map(|(i, s)| LayerTable::vgg16_layer(i, s.neurons()))
        .collect();
    let mut rng = Rng::new(cfg.seed, 1);
    let batches: Vec<Vec<Lanes>> = (0..BATCHES)
        .map(|_| (0..FANIN).map(|_| rng.lanes(LANES)).collect())
        .collect();
    let expected: Vec<Vec<Vec<u64>>> = batches
        .iter()
        .map(|b| chained_outputs(&tables, b))
        .collect();

    let mut scratch: Vec<EngineScratch> = model
        .layers()
        .iter()
        .map(|_| EngineScratch::default())
        .collect();
    let call = |scratch: &mut [EngineScratch]| -> Option<Vec<Vec<Vec<Lanes>>>> {
        if traced {
            traced_call(&model, scratch, &batches)
        } else {
            model.infer_batches(&batches).ok().map(layer_outputs)
        }
    };

    let mut out = Outcome::default();
    for _ in 0..WARMUP_CALLS {
        let res = call(&mut scratch);
        out.failed += res.map_or(BATCHES as u64, |r| failed_batches(&r, &expected));
        out.attempted += BATCHES as u64;
    }

    let mut times_us = Vec::new();
    let mut compile_times = Vec::new();
    span("vgg16.measure", 0, || {
        segmented(
            cfg.phase(1.0),
            SEGMENTS,
            || {
                for _ in 0..COMPILES_PER_SEGMENT {
                    let specs = specs.clone();
                    let t = Instant::now();
                    let recompiled = compile(specs);
                    compile_times.push(secs(t) * 1e3);
                    drop(recompiled);
                }
            },
            || {
                let t = Instant::now();
                let res = call(&mut scratch);
                times_us.push(secs(t) * 1e6);
                // Checked outside the timed call.
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

    let samples = (times_us.len() * BATCHES * LANES) as f64;
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
    e.put("artifact_kib", bytes.len() as f64 / 1024.0, "KiB");

    if traced {
        // Kernel and chain spans also cover the warm-up calls.
        let traced_samples = samples + (WARMUP_CALLS * BATCHES * LANES) as f64;
        out.layer = layer_metrics(&model, &specs, bytes.len(), traced_samples);
    }
    out
}

fn per_call_ms(name: &str) -> f64 {
    let a = trace::agg(name);
    a.total_ns as f64 / a.count.max(1) as f64 / 1e6
}

fn layer_metrics(
    model: &CompiledModel,
    specs: &[LayerSpec],
    bytes: usize,
    samples: f64,
) -> Metrics {
    let mut m = Metrics::default();
    m.put("synth.ms", SYNTH.iter().map(|n| per_call_ms(n)).sum(), "ms");
    m.put(
        "synth.gates",
        specs.iter().map(|s| s.netlist.gate_count()).sum::<usize>() as f64,
        "count",
    );
    for pass in PASSES {
        let us: f64 = model
            .layers()
            .iter()
            .filter_map(|l| l.report().pass(pass).map(|p| p.wall_us))
            .sum();
        m.put(format!("compile.pass.{pass}_us"), us, "us");
    }
    m.put("compile.engine_ms", per_call_ms("compile.engine"), "ms");
    let tapes: Vec<_> = model
        .layers()
        .iter()
        .filter_map(|l| l.engine().ok().and_then(|e| e.tape_stats()))
        .collect();
    m.put(
        "compile.tape_instrs",
        tapes.iter().map(|t| t.tape_len).sum::<usize>() as f64,
        "count",
    );
    m.put(
        "compile.frame_slots",
        tapes.iter().map(|t| t.frame_slots).sum::<usize>() as f64,
        "count",
    );
    m.put(
        "compile.fused_instrs",
        tapes.iter().map(|t| t.fused_instrs).sum::<usize>() as f64,
        "count",
    );
    m.put("artifact.encode_ms", per_call_ms("artifact.encode"), "ms");
    m.put("artifact.decode_ms", per_call_ms("artifact.decode"), "ms");
    m.put("artifact.bytes", bytes as f64, "bytes");
    for (i, name) in KERNEL.iter().enumerate() {
        m.put(
            format!("kernel.L{}_ns_per_sample", i + 1),
            trace::agg(name).total_ns as f64 / samples,
            "ns",
        );
    }
    m.put(
        "model.chain_ns_per_sample",
        trace::agg("model.chain").total_ns as f64 / samples,
        "ns",
    );
    m
}

/// Compiler passes reported per layer (`CompileReport`), in pass order.
pub const PASSES: [&str; 9] = [
    "optimize",
    "balance",
    "levelize",
    "partition",
    "merge",
    "schedule",
    "codegen",
    "locality",
    "exchange",
];
