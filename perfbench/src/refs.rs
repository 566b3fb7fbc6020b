//! Seeded inputs and the references every output is checked against.
//!
//! The references are computed here with plain integer and word
//! operations, apart from the synthesis, compilation and execution code
//! under test:
//!
//! * VGG16[2:13] blocks: each layer's source BNN is rebuilt from the
//!   seed rule of `lbnn_models::workload::layer_workload`
//!   (`BinaryDense::random(2023 × 0x9E3779B9 + i, 6, min(neurons, 256))`)
//!   and evaluated as `agreement ≥ threshold`. With fan-in 6 the
//!   extraction is exact, so the FFCL must equal the BNN on every input;
//!   a 64-row table per layer holds all of them. Layers chain by the
//!   `chain_inputs` rule: input `k` of layer `i+1` is output
//!   `k mod outputs` of layer `i`.
//! * The banded DAG: gate `(l, j)` applies `OPS[(31 l + j) mod 6]` to
//!   columns `j` and `(j + 16) mod 8192` of the previous level; output
//!   `k` is column `32 k` of the last level.

use lbnn_netlist::{Lanes, Netlist, Op};
use lbnn_nullanet::bnn::BinaryDense;

/// Seed of the VGG16 block weights (`bench_workload_options().seed`).
pub const MODEL_SEED: u64 = 2023;
/// Per-neuron fan-in after the cap (`bench_workload_options().max_fanin`).
pub const FANIN: usize = 6;
/// Neurons per sampled block (`bench_workload_options().block_neurons`).
pub const BLOCK_NEURONS: usize = 256;

/// splitmix64: the benchmark's only source of input bits.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `lanes` random samples of one input, packed.
    pub fn lanes(&mut self, lanes: usize) -> Lanes {
        Lanes::from_words(
            (0..lanes.div_ceil(64)).map(|_| self.next()).collect(),
            lanes,
        )
    }

    /// One request of `width` random bits.
    pub fn bits(&mut self, width: usize) -> Vec<bool> {
        let word = self.next();
        assert!(width <= 64, "requests are at most 64 bits wide");
        (0..width).map(|k| word >> k & 1 != 0).collect()
    }
}

/// Every output of one BNN block for each of its 64 possible inputs.
pub struct LayerTable {
    /// Output count (block neurons).
    pub outputs: usize,
    /// `rows[x]` = output bits (bit `j` = neuron `j`) for input index
    /// `x` (bit `k` = input `k`).
    pub rows: Vec<[u64; 4]>,
}

impl LayerTable {
    /// The table of VGG16[2:13] layer `index` with `neurons` neurons.
    pub fn vgg16_layer(index: usize, neurons: usize) -> LayerTable {
        let outputs = neurons.min(BLOCK_NEURONS);
        let seed = MODEL_SEED
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(index as u64);
        let bnn = BinaryDense::random(seed, FANIN, outputs);
        let rows = (0..1usize << FANIN)
            .map(|x| {
                let mut row = [0u64; 4];
                for (j, word) in (0..outputs).map(|j| (j, j / 64)) {
                    let agree = bnn
                        .weights_of(j)
                        .iter()
                        .enumerate()
                        .filter(|&(k, &w)| w == (x >> k & 1 != 0))
                        .count() as i32;
                    if agree >= bnn.threshold_of(j) {
                        row[word] |= 1 << (j % 64);
                    }
                }
                row
            })
            .collect();
        LayerTable { outputs, rows }
    }

    /// Output `j` for input index `x`.
    pub fn bit(&self, x: usize, j: usize) -> bool {
        self.rows[x][j / 64] >> (j % 64) & 1 != 0
    }

    /// The next layer's input index under the `chain_inputs` rule.
    pub fn chain(&self, x: usize) -> usize {
        (0..FANIN).fold(0, |acc, k| {
            acc | (self.bit(x, k % self.outputs) as usize) << k
        })
    }

    /// The outputs for input index `x`, one bool per neuron.
    pub fn row_bits(&self, x: usize) -> Vec<bool> {
        (0..self.outputs).map(|j| self.bit(x, j)).collect()
    }
}

/// The input index (bit `k` = input `k`) of one request.
pub fn index_of(bits: &[bool]) -> usize {
    bits.iter()
        .enumerate()
        .fold(0, |acc, (k, &b)| acc | (b as usize) << k)
}

/// Expected per-layer outputs of one batch through chained tables:
/// `[layer][output × words + word]`.
pub fn chained_outputs(tables: &[LayerTable], batch: &[Lanes]) -> Vec<Vec<u64>> {
    let lanes = batch[0].len();
    let words = lanes.div_ceil(64);
    let mut out: Vec<Vec<u64>> = tables
        .iter()
        .map(|t| vec![0u64; t.outputs * words])
        .collect();
    for lane in 0..lanes {
        let mut x = (0..FANIN).fold(0, |acc, k| acc | (batch[k].get(lane) as usize) << k);
        for (table, dst) in tables.iter().zip(&mut out) {
            for j in 0..table.outputs {
                if table.bit(x, j) {
                    dst[j * words + lane / 64] |= 1 << (lane % 64);
                }
            }
            x = table.chain(x);
        }
    }
    out
}

/// Number of mismatching output columns between `got` and `expected`
/// (`[output × words + word]` layout).
pub fn column_mismatches(got: &[Lanes], expected: &[u64]) -> usize {
    let words = got.first().map_or(0, |l| l.words().len());
    if got.len() * words != expected.len() {
        return got.len().max(1);
    }
    got.iter()
        .zip(expected.chunks(words.max(1)))
        .filter(|(g, e)| g.words() != *e)
        .count()
}

/// Banded DAG shape: `DAG_WIDTH` inputs, `DAG_DEPTH` levels of
/// `DAG_WIDTH` gates, 24,576 nets in all.
pub const DAG_WIDTH: usize = 8192;
const DAG_DEPTH: usize = 2;
const DAG_STRIDE: usize = 16;
const DAG_OPS: [Op; 6] = [Op::And, Op::Or, Op::Xor, Op::Nand, Op::Nor, Op::Xnor];

/// The banded DAG of the partition sweep, built through the netlist API.
pub fn dag_netlist() -> Netlist {
    let mut nl = Netlist::new("partition_sweep_band");
    let mut prev: Vec<_> = (0..DAG_WIDTH)
        .map(|j| nl.add_input(format!("i{j}")))
        .collect();
    for l in 0..DAG_DEPTH {
        prev = (0..DAG_WIDTH)
            .map(|j| {
                let op = DAG_OPS[(l * 31 + j) % DAG_OPS.len()];
                nl.add_gate2(op, prev[j], prev[(j + DAG_STRIDE) % DAG_WIDTH])
            })
            .collect();
    }
    for (k, j) in (0..DAG_WIDTH).step_by(32).enumerate() {
        nl.add_output(prev[j], format!("y{k}"));
    }
    nl
}

/// The DAG's outputs for one batch, by the formula, one word at a time:
/// `[output × words + word]`.
pub fn dag_outputs(batch: &[Lanes]) -> Vec<u64> {
    let words = batch[0].words().len();
    let outputs = DAG_WIDTH / 32;
    let mut out = vec![0u64; outputs * words];
    let mut prev = vec![0u64; DAG_WIDTH];
    let mut next = vec![0u64; DAG_WIDTH];
    for w in 0..words {
        for (p, col) in prev.iter_mut().zip(batch) {
            *p = col.words()[w];
        }
        for l in 0..DAG_DEPTH {
            for (j, n) in next.iter_mut().enumerate() {
                let (a, b) = (prev[j], prev[(j + DAG_STRIDE) % DAG_WIDTH]);
                *n = match (l * 31 + j) % 6 {
                    0 => a & b,
                    1 => a | b,
                    2 => a ^ b,
                    3 => !(a & b),
                    4 => !(a | b),
                    _ => !(a ^ b),
                };
            }
            std::mem::swap(&mut prev, &mut next);
        }
        for k in 0..outputs {
            out[k * words + w] = prev[32 * k];
        }
    }
    // Lanes past the batch length are zero in the program's outputs.
    let lanes = batch[0].len();
    if !lanes.is_multiple_of(64) {
        let mask = (1u64 << (lanes % 64)) - 1;
        for k in 0..outputs {
            out[k * words + words - 1] &= mask;
        }
    }
    out
}
