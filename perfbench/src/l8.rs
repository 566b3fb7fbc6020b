//! The VGG16 L8 block (a 256→512 conv block: 6 inputs, 256 outputs)
//! shared by the two request workloads, and `l8_runtime`: the block
//! behind `Runtime` (1 worker, 1024 lanes), driven by a saturating burst
//! of single-sample submits and then by an open loop at a fixed rate.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use lbnn_bench::bench_workload_options;
use lbnn_core::{
    EngineScratch, Flow, LpuConfig, RequestHandle, Runtime, RuntimeOptions, RuntimeStats,
};
use lbnn_models::workload::layer_workload;
use lbnn_models::zoo;
use lbnn_netlist::{Lanes, Netlist};

use crate::affinity::Pin;
use crate::common::{median, percentile, secs, timed_setups, Metrics, Outcome, RunCfg};
use crate::refs::{index_of, LayerTable, Rng, FANIN};
use crate::trace::{self, span};
use crate::vgg16;

/// Index of L8 in VGG16[2:13].
const L8: usize = 7;
/// Distinct requests a run cycles through. A burst submits each once:
/// 16 whole 1024-lane micro-batches, so every flush in it is a full one.
pub const DISTINCT: usize = 16384;
/// Open-loop arrival rate (requests/s), far below capacity: most
/// micro-batches leave on the deadline flush.
const OPEN_RATE: f64 = 2000.0;
/// Rounds per run. Each compiles, sets up a fresh runtime, then bursts
/// and runs the open loop, so every figure is spread over the run and
/// no single runtime's start decides it.
const ROUNDS: usize = 4;
/// Recompiles per round behind `compile_ms`.
const COMPILES_PER_ROUND: usize = 15;
/// Iterations of the pack / kernel / unpack probe.
const PROBE_ITERS: usize = 2000;

/// Synthesizes the L8 block (the FFCL of its seeded BNN block).
pub fn synthesize() -> Netlist {
    let shape = zoo::vgg16_layers_2_13().layers[L8];
    span("synth.L8", 0, || {
        layer_workload(&shape, L8, &bench_workload_options()).netlist
    })
}

/// Compiles the block at `bitsliced:1024`.
pub fn compile(netlist: &Netlist) -> Flow {
    span("compile.flow", 0, || {
        Flow::builder(netlist)
            .config(LpuConfig::paper_default())
            .options(vgg16::flow_options())
            .compile()
            .expect("L8 compiles")
    })
}

/// The block's reference outputs for each of its 64 inputs.
pub struct Reference {
    rows: Vec<Vec<bool>>,
}

impl Reference {
    /// The reference of L8.
    pub fn l8() -> Reference {
        let table = LayerTable::vgg16_layer(L8, zoo::vgg16_layers_2_13().layers[L8].neurons());
        Reference {
            rows: (0..1 << FANIN).map(|x| table.row_bits(x)).collect(),
        }
    }

    /// Whether `got` is the block's output for request `bits`.
    pub fn matches(&self, bits: &[bool], got: &[bool]) -> bool {
        self.rows[index_of(bits)] == got
    }
}

/// The run's distinct requests, from the seed.
pub fn requests(seed: u64) -> Vec<Vec<bool>> {
    let mut rng = Rng::new(seed, 2);
    (0..DISTINCT).map(|_| rng.bits(FANIN)).collect()
}

/// The times (ms) of `count` compiles into a ready engine, and the
/// saved artifact's bytes. The compiler is single-threaded; it runs on
/// one CPU so that moves between vCPUs stay out of its time.
pub fn compile_figures(netlist: &Netlist, count: usize) -> (Vec<f64>, Vec<u8>) {
    let _pin = Pin::first_cpu();
    let mut times = Vec::with_capacity(count);
    let mut last = None;
    for _ in 0..count.max(1) {
        let t = Instant::now();
        let flow = compile(netlist);
        let engine = flow.engine().expect("engine builds");
        times.push(secs(t) * 1e3);
        drop(engine);
        last = Some(flow);
    }
    let flow = last.expect("at least one compile");
    let bytes = span("artifact.encode", 0, || {
        flow.to_artifact_bytes().expect("flow serializes")
    });
    (times, bytes)
}

/// Sleeps until `due` (returns at once when it has passed).
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

fn start_runtime(flow: Flow) -> Runtime {
    span("runtime.start", 0, || {
        flow.into_engine()
            .and_then(|e| e.into_runtime(RuntimeOptions::default().workers(1)))
            .expect("runtime starts")
    })
}

/// What one round of `l8_runtime` measured.
#[derive(Default)]
struct Round {
    rates: Vec<f64>,
    latencies: Vec<f64>,
    lateness: Vec<f64>,
}

/// One round on `runtime`: bursts for `burst_phase`, then `n` open-loop
/// requests. Outputs are checked against `reference` after each timed
/// part.
fn round(
    runtime: &Runtime,
    reqs: &[Vec<bool>],
    reference: &Reference,
    burst_phase: Duration,
    n: usize,
    next_id: &mut u64,
    out: &mut Outcome,
) -> Round {
    let mut r = Round::default();
    // Burst: every distinct request submitted back to back, then every
    // wait; the rate of each burst is one sample of throughput.
    let start = Instant::now();
    span("runtime.burst", 0, || {
        while start.elapsed() < burst_phase {
            let base = *next_id;
            *next_id += DISTINCT as u64;
            // One span per burst for the submits and one for the waits:
            // spans per request would cost as much as a submit.
            let t = Instant::now();
            let handles: Vec<_> = span("runtime.submit", base, || {
                reqs.iter().map(|bits| runtime.submit(bits)).collect()
            });
            let outs: Vec<_> = span("runtime.wait", base, || {
                handles.into_iter().map(|h| h.ok()?.wait().ok()).collect()
            });
            r.rates.push(DISTINCT as f64 / secs(t));
            out.attempted += DISTINCT as u64;
            out.failed += span("bench.check", 0, || {
                reqs.iter()
                    .zip(&outs)
                    .filter(|(bits, got)| !got.as_ref().is_some_and(|g| reference.matches(bits, g)))
                    .count() as u64
            });
            span("runtime.free_outputs", 0, || drop(outs));
        }
    });

    // Open loop: one request every 1/OPEN_RATE s on this thread, waited
    // for on a second thread; latency runs from each request's due time.
    let period = Duration::from_secs_f64(1.0 / OPEN_RATE);
    let (latencies, lateness, outs) = span("runtime.open_loop", 0, || {
        open_loop(runtime, reqs, n, period, *next_id)
    });
    *next_id += n as u64;
    out.attempted += n as u64;
    out.failed += span("bench.check", 0, || {
        (0..n)
            .filter(|&k| {
                !outs[k]
                    .as_ref()
                    .is_some_and(|g| reference.matches(&reqs[k % DISTINCT], g))
            })
            .count() as u64
    });
    r.latencies = latencies;
    r.lateness = lateness;
    r
}

/// Runs `l8_runtime`: `ROUNDS` rounds, each of which recompiles, sets up
/// a fresh runtime, bursts, and runs the open loop on it.
///
/// The runtimes and both load threads share one CPU. Across the host's
/// two vCPUs a wake-up costs 0.1–0.7 ms and changes from one runtime to
/// the next, which moved the open-loop median between 0.44 and 1.19 ms
/// and the burst rate between 400 and 560 k/s; on one CPU they held at
/// 0.38–0.47 ms and 540–670 k/s. The traced pass adds one unpinned
/// round, reported as `runtime.unpinned_*`.
pub fn run_runtime(cfg: &RunCfg, traced: bool) -> Outcome {
    let pin = Pin::first_cpu();
    if pin.is_none() {
        eprintln!("l8_runtime: cannot pin to one CPU; running unpinned");
    }
    let netlist = synthesize();
    let reference = Reference::l8();
    let reqs = requests(cfg.seed);
    let mut out = Outcome::default();
    let mut next_id = 0u64;

    let setups_per_round = (cfg.setups / ROUNDS).max(1);
    let burst_phase = cfg.phase(0.4) / ROUNDS as u32;
    let n = (cfg.phase(0.6).as_secs_f64() * OPEN_RATE / ROUNDS as f64).round() as usize;
    let (mut compile_times, mut setup_times) = (Vec::new(), Vec::new());
    let mut artifact = Vec::new();
    let mut flow = None;
    let mut rates = Vec::new();
    let mut round_p50 = Vec::new();
    let mut latencies = Vec::new();
    let mut lateness = Vec::new();
    let mut stats = Vec::new();
    for _ in 0..ROUNDS {
        // No runtime is alive here: the last round's has been dropped.
        let (times, bytes) = compile_figures(&netlist, COMPILES_PER_ROUND);
        compile_times.extend(times);
        artifact = bytes;
        let ((f, runtime), times) = timed_setups(setups_per_round, || {
            let flow = compile(&synthesize());
            let runtime = start_runtime(flow.clone());
            (flow, runtime)
        });
        setup_times.extend(times);
        let r = round(
            &runtime,
            &reqs,
            &reference,
            burst_phase,
            n,
            &mut next_id,
            &mut out,
        );
        round_p50.push(median(&r.latencies));
        rates.extend(r.rates);
        latencies.extend(r.latencies);
        lateness.extend(r.lateness);
        stats.push((runtime.stats(), runtime.flush_target()));
        flow = Some(f);
    }
    let flow = flow.expect("at least one round");
    eprintln!(
        "l8_runtime: {ROUNDS} rounds; open-loop p50 per round {:?} us; {} requests at \
         {OPEN_RATE}/s, generator late p50 {:.1} us, p99 {:.1} us",
        round_p50.iter().map(|v| v.round()).collect::<Vec<_>>(),
        latencies.len(),
        median(&lateness),
        percentile(&lateness, 99.0)
    );

    let e = &mut out.e2e;
    e.put("setup_s", median(&setup_times), "s");
    e.put("throughput_sps", median(&rates), "samples/s");
    e.put("throughput_rps", median(&rates), "requests/s");
    e.put("latency_p50_us", median(&round_p50), "us");
    e.put("compile_ms", median(&compile_times), "ms");
    e.put("artifact_kib", artifact.len() as f64 / 1024.0, "KiB");

    if traced {
        let sum = |f: fn(&RuntimeStats) -> u64| stats.iter().map(|(s, _)| f(s)).sum::<u64>() as f64;
        let batches = sum(|s| s.micro_batches);
        let lanes: f64 = stats
            .iter()
            .map(|(s, _)| s.mean_lanes_per_batch * s.micro_batches as f64)
            .sum();
        let width = stats[0].1 as f64;
        let mut m = Metrics::default();
        m.put(
            "runtime.submit_ns",
            mean_ns("runtime.submit") / DISTINCT as f64,
            "ns",
        );
        m.put("runtime.wait_us", mean_ns("open.wait") / 1e3, "us");
        m.put("runtime.micro_batches", batches, "count");
        m.put("runtime.full_flushes", sum(|s| s.full_flushes), "count");
        m.put(
            "runtime.deadline_flushes",
            sum(|s| s.deadline_flushes),
            "count",
        );
        m.put("runtime.lane_fill", lanes / (batches * width), "ratio");
        let peak = stats
            .iter()
            .map(|(s, _)| s.queue.peak_depth)
            .max()
            .unwrap_or(0);
        m.put("runtime.peak_in_flight", peak as f64, "count");
        m.put("runtime.shed", sum(|s| s.shed), "count");
        m.put(
            "runtime.open_loop_p99_us",
            percentile(&latencies, 99.0),
            "us",
        );
        // Burst micro-batches are full (see `runtime.full_flushes`): the
        // probe runs at that size, the lane width.
        m.extend(marshalling_probe(&flow, &reqs[..stats[0].1.min(DISTINCT)]));

        // One more round with the runtime and the load threads free to
        // use every CPU: what the cross-CPU wake-ups that the pinned
        // rounds keep out cost.
        drop(pin);
        let runtime = start_runtime(flow);
        let r = round(
            &runtime,
            &reqs,
            &reference,
            burst_phase,
            n,
            &mut next_id,
            &mut out,
        );
        m.put("runtime.unpinned_p50_us", median(&r.latencies), "us");
        m.put("runtime.unpinned_burst_rps", median(&r.rates), "requests/s");
        out.layer = m;
    }
    out
}

/// Mean duration (ns) of the spans named `name`.
fn mean_ns(name: &str) -> f64 {
    let a = trace::agg(name);
    a.total_ns as f64 / a.count.max(1) as f64
}

/// Latencies (µs from due time), generator lateness (µs) and responses
/// of `n` requests sent at a fixed `period`.
fn open_loop(
    runtime: &Runtime,
    reqs: &[Vec<bool>],
    n: usize,
    period: Duration,
    first_id: u64,
) -> (Vec<f64>, Vec<f64>, Vec<Option<Vec<bool>>>) {
    let t0 = Instant::now() + Duration::from_millis(1);
    let due = |k: usize| t0 + period * k as u32;
    let parent = trace::current();
    let (tx, rx) = mpsc::channel::<(usize, Option<RequestHandle>)>();
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            trace::adopt(parent);
            let mut latencies = Vec::with_capacity(n);
            let mut outs = vec![None; n];
            for (k, handle) in rx {
                let Some(handle) = handle else { continue };
                let got = span("open.wait", first_id + k as u64, || handle.wait());
                latencies.push(Instant::now().duration_since(due(k)).as_secs_f64() * 1e6);
                outs[k] = got.ok();
            }
            (latencies, outs)
        });
        let mut lateness = Vec::with_capacity(n);
        for k in 0..n {
            sleep_until(due(k));
            lateness.push(Instant::now().duration_since(due(k)).as_secs_f64() * 1e6);
            let bits = &reqs[k % reqs.len()];
            let handle = span("open.submit", first_id + k as u64, || runtime.submit(bits));
            tx.send((k, handle.ok())).expect("collector alive");
        }
        drop(tx);
        let (latencies, outs) = collector.join().expect("collector thread");
        (latencies, lateness, outs)
    })
}

/// Times the runtime's flush path piece by piece at `rows.len()` lanes:
/// pack (`Lanes::pack_rows_into`), kernel (`run_batch_packed_with`) and
/// unpack (`Lanes::unpack_rows`).
fn marshalling_probe(flow: &Flow, rows: &[Vec<bool>]) -> Metrics {
    let engine = flow.engine().expect("engine builds");
    let mut scratch = EngineScratch::default();
    let mut packed = Vec::new();
    for _ in 0..PROBE_ITERS {
        span("pack", 0, || {
            Lanes::pack_rows_into(rows, FANIN, &mut packed)
        });
        let run = span("kernel.l8", 0, || {
            engine.run_batch_packed_with(&mut scratch, &packed, FANIN, rows.len())
        })
        .expect("kernel runs");
        std::hint::black_box(span("unpack", 0, || Lanes::unpack_rows(&run.outputs)));
    }
    let per_sample = |name| trace::agg(name).total_ns as f64 / (PROBE_ITERS * rows.len()) as f64;
    let mut m = Metrics::default();
    m.put("pack.ns_per_sample", per_sample("pack"), "ns");
    m.put(
        "kernel.l8_packed_ns_per_sample",
        per_sample("kernel.l8"),
        "ns",
    );
    m.put("unpack.ns_per_sample", per_sample("unpack"), "ns");
    m
}
