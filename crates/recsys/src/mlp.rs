//! Multi-layer perceptrons with backpropagation.
//!
//! Both paper models are built from small fully connected stacks (YouTubeDNN filtering:
//! 128-64-32; YouTubeDNN ranking: 128-1; DLRM bottom MLP: 256-128-32; DLRM top MLP:
//! 256-64-1). This module implements exactly what those stacks need: dense layers with
//! ReLU hidden activations, an optional sigmoid output, forward inference and SGD
//! backpropagation.
//!
//! # The batched kernel
//!
//! [`Mlp::forward_batch_into`] runs each layer as one GEMM over the sample dimension, in
//! register tiles of 2 weight rows × 8 samples. The batch's activations are kept in
//! *panels* of 8 samples, each stored input-major (`panel[k * 8 + j]` is input `k` of
//! the panel's sample `j`), so one step of the tile is one 8-wide load of input `k` for
//! all eight samples, multiplied by the broadcast weight of each of the two rows: every
//! weight is read once per eight samples, every input once per two rows, and the tile's
//! 64 accumulators are eight independent 8-wide add chains where the per-pair dot
//! product was one. The tiles walk the weights row pair by row pair with every panel
//! inside, so the weights stream from memory once per batch while the panels stay in
//! cache; a layer writes its outputs in panel form for the next, and the batch is packed
//! into panels once on the way in and unpacked once on the way out.
//!
//! Samples left over after the full panels are padded with zero samples into one more
//! panel when there are at least three of them. One or two go one (row, sample) pair at
//! a time through [`crate::simd::dot_f32`], the single-sample kernel, as one-wide panels
//! (which hold a sample's row-major inputs): a padded panel costs about as much per row
//! as three dot products, and a serving batch of one or two is common.
//!
//! It is bit-identical to [`Mlp::forward`] by construction. Each (output, sample) pair
//! keeps its own four-lane accumulator and adds exactly what
//! [`crate::simd::dot_f32_scalar`] adds, in its order: lane `l` sums `w[k] * x[k]` over
//! `k ≡ l (mod 4)` with `k` ascending, the lanes combine as `(a0 + a1) + (a2 + a3)`, the
//! last `inputs mod 4` products are added one by one, and every product is a separate
//! multiply and add (Rust never fuses them). A sample never meets another sample's
//! inputs, so the zero padding changes no real output, and an odd last row runs as a
//! one-row tile.
//!
//! The tile reads the layer's row-major `outputs × inputs` weights in place: the weight
//! it needs at each step is a broadcast scalar, so a repacked copy would buy nothing but
//! twice the resident weight bytes and more work to build a model. What the kernel packs
//! is the activations, a few kilobytes per batch. The samples go in the vector lanes
//! because a tile over row-major samples (weight rows × samples, four lanes per pair
//! side by side) is vectorized lane-major by the compiler, behind a shuffle per multiply,
//! and ran barely faster than one dot product per pair. The body is plain safe code
//! compiled twice, for the target's baseline and for AVX2 behind
//! [`crate::simd::active_level`], and cannot differ between the two for the reasons
//! above.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::RecsysError;
use crate::simd::{active_level, SimdLevel};

/// Activation applied to a layer's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity (no activation).
    Linear,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Linear => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Derivative with respect to the pre-activation, expressed in terms of the
    /// post-activation output `y`.
    fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Linear => 1.0,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
        }
    }
}

/// Dot product blocked over four independent accumulator lanes.
///
/// The single sequential accumulator of the naive mat-vec serializes every
/// floating-point add behind the previous one; four lanes keep the FPU pipeline full.
/// Both single-sample paths funnel through this one kernel, and the batched kernel keeps
/// its accumulation order (module documentation), so all of them stay bit-identical to
/// each other. The blocking dispatches to the SIMD kernel in [`crate::simd`], whose
/// vector path executes the same four lanes as one 128-bit op and is pinned
/// bit-identical to the scalar reference.
#[inline]
fn dot_blocked(w: &[f32], x: &[f32]) -> f32 {
    crate::simd::dot_f32(w, x)
}

/// One dense layer: `outputs = activation(W x + b)` with `W` of shape `out × in`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DenseLayer {
    inputs: usize,
    outputs: usize,
    /// Row-major `outputs × inputs` weights.
    weights: Vec<f32>,
    bias: Vec<f32>,
    activation: Activation,
}

impl DenseLayer {
    fn new(inputs: usize, outputs: usize, activation: Activation, rng: &mut StdRng) -> Self {
        // Xavier/Glorot uniform initialization.
        let bound = (6.0 / (inputs + outputs) as f32).sqrt();
        let weights = (0..inputs * outputs)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Self {
            inputs,
            outputs,
            weights,
            bias: vec![0.0; outputs],
            activation,
        }
    }

    fn forward(&self, input: &[f32]) -> Vec<f32> {
        let mut output = vec![0.0f32; self.outputs];
        self.forward_into(input, &mut output);
        output
    }

    /// Forward pass into a caller-provided output buffer of exactly `outputs` elements.
    fn forward_into(&self, input: &[f32], output: &mut [f32]) {
        for (o, out) in output.iter_mut().enumerate() {
            let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
            *out = self
                .activation
                .apply(self.bias[o] + dot_blocked(row, input));
        }
    }

    /// Batched forward pass over `count` samples in packed panels (see the module
    /// documentation), `inputs` floats per sample in `input` and `outputs` per sample in
    /// `output`. Dispatches the tiled kernel to its AVX2 instantiation when the process
    /// runs at that level.
    fn forward_panels(&self, input: &[f32], count: usize, output: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if active_level() == SimdLevel::Avx2 {
            // SAFETY: `forward_panels_avx2` is safe code whose only requirement is the
            // `avx2` target feature, which `active_level` reports only after detecting it.
            return unsafe { forward_panels_avx2(self, input, count, output) };
        }
        forward_panels_body(self, input, count, output);
    }

    /// Backward pass: given the gradient w.r.t. this layer's output, update the weights
    /// and return the gradient w.r.t. this layer's input.
    fn backward(
        &mut self,
        input: &[f32],
        output: &[f32],
        grad_output: &[f32],
        learning_rate: f32,
    ) -> Vec<f32> {
        let mut grad_input = vec![0.0f32; self.inputs];
        for o in 0..self.outputs {
            let delta = grad_output[o] * self.activation.derivative_from_output(output[o]);
            if delta == 0.0 {
                continue;
            }
            let row = &mut self.weights[o * self.inputs..(o + 1) * self.inputs];
            for (i, weight) in row.iter_mut().enumerate() {
                grad_input[i] += *weight * delta;
                *weight -= learning_rate * delta * input[i];
            }
            self.bias[o] -= learning_rate * delta;
        }
        grad_input
    }
}

/// Samples per panel of packed activations: the tile's vector width.
const PANEL: usize = 8;
/// Weight rows per register tile.
const TILE_ROWS: usize = 2;
/// The fewest samples left over after the full panels that are padded into one more
/// panel; fewer go one (row, sample) pair at a time through [`dot_blocked`]. A panel
/// costs about as much as three dot products per row.
const MIN_PADDED: usize = 3;

/// The panels a batch of `count` samples is cut into, as `(first sample, width)`: full
/// panels of [`PANEL`] samples, then the rest either as one more, zero-padded panel or,
/// below [`MIN_PADDED`] samples, as one-sample panels (a one-wide panel is the sample's
/// row-major inputs).
fn panels(count: usize) -> impl Iterator<Item = (usize, usize)> {
    let full = count - count % PANEL;
    let (padded, singles) = if count - full >= MIN_PADDED {
        (full + PANEL, full..full)
    } else {
        (full, full..count)
    };
    (0..padded)
        .step_by(PANEL)
        .map(|first| (first, PANEL))
        .chain(singles.map(|first| (first, 1)))
}

/// The register tile: `[r][j]` is the dot product of weight row `w[r]` with sample `j`
/// of `panel` (`w[r].len()` inputs, packed input-major), each one bit-identical to
/// [`crate::simd::dot_f32_scalar`] (see the module documentation).
#[inline(always)]
fn dot_tile<const R: usize>(w: [&[f32]; R], panel: &[f32]) -> [[f32; PANEL]; R] {
    let n = w[0].len();
    let body = n - n % 4;
    let (blocks, tail) = panel[..n * PANEL].split_at(body * PANEL);
    let w_blocks = w.map(|row| row[..body].as_chunks::<4>().0);
    // acc[r][l][j]: lane `l` of the pair (row r, sample j).
    let mut acc = [[[0.0f32; PANEL]; 4]; R];
    for (b, inputs) in blocks.as_chunks::<PANEL>().0.chunks_exact(4).enumerate() {
        for (acc, w) in acc.iter_mut().zip(&w_blocks) {
            let w = w[b];
            for ((acc, x), w) in acc.iter_mut().zip(inputs).zip(w) {
                for (a, x) in acc.iter_mut().zip(x) {
                    *a += w * x;
                }
            }
        }
    }
    let mut dots = [[0.0f32; PANEL]; R];
    for ((dots, acc), w) in dots.iter_mut().zip(&acc).zip(&w) {
        let [a0, a1, a2, a3] = *acc;
        for j in 0..PANEL {
            dots[j] = (a0[j] + a1[j]) + (a2[j] + a3[j]);
        }
        for (x, w) in tail.as_chunks::<PANEL>().0.iter().zip(&w[body..n]) {
            for (dot, x) in dots.iter_mut().zip(x) {
                *dot += w * x;
            }
        }
    }
    dots
}

/// Rows `o..o + R` (weights `w`) of `layer` over the panel `(first, width)`: the
/// dot products, then bias and activation into the output panel.
#[inline(always)]
fn panel_into<const R: usize>(
    layer: &DenseLayer,
    o: usize,
    w: [&[f32]; R],
    (first, width): (usize, usize),
    input: &[f32],
    output: &mut [f32],
) {
    let x = &input[first * layer.inputs..(first + width) * layer.inputs];
    let mut store = |r: usize, dots: &[f32]| {
        let start = first * layer.outputs + (o + r) * width;
        for (out, &dot) in output[start..start + width].iter_mut().zip(dots) {
            *out = layer.activation.apply(layer.bias[o + r] + dot);
        }
    };
    if width == PANEL {
        for (r, dots) in dot_tile(w, x).iter().enumerate() {
            store(r, dots);
        }
    } else {
        for (r, w) in w.iter().enumerate() {
            store(r, &[dot_blocked(w, x)]);
        }
    }
}

/// [`DenseLayer::forward_panels`], written once: row pairs outside, panels inside, so
/// the weights stream once per call; an odd last row runs as a one-row tile.
#[inline(always)]
fn forward_panels_body(layer: &DenseLayer, input: &[f32], count: usize, output: &mut [f32]) {
    let inputs = layer.inputs;
    let row = |o: usize| &layer.weights[o * inputs..(o + 1) * inputs];
    let full = layer.outputs - layer.outputs % TILE_ROWS;
    for o in (0..full).step_by(TILE_ROWS) {
        let w: [&[f32]; TILE_ROWS] = std::array::from_fn(|r| row(o + r));
        for panel in panels(count) {
            panel_into(layer, o, w, panel, input, output);
        }
    }
    for o in full..layer.outputs {
        for panel in panels(count) {
            panel_into(layer, o, [row(o)], panel, input, output);
        }
    }
}

/// [`forward_panels_body`] compiled for AVX2: the same safe loops, eight lanes wide.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn forward_panels_avx2(layer: &DenseLayer, input: &[f32], count: usize, output: &mut [f32]) {
    forward_panels_body(layer, input, count, output);
}

/// A multi-layer perceptron.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
}

/// Reusable ping-pong activation buffers for allocation-free forward passes. Create one
/// per worker with [`Mlp::scratch`] and reuse it across every sample the worker serves.
#[derive(Debug, Clone)]
pub struct MlpScratch {
    front: Vec<f32>,
    back: Vec<f32>,
}

/// Reusable ping-pong activation buffers for the batched (GEMM-over-samples) forward
/// pass, holding the packed panels of the module documentation. Create one per worker
/// with [`Mlp::batch_scratch`] and reuse it across blocks.
#[derive(Debug, Clone)]
pub struct MlpBatchScratch {
    front: Vec<f32>,
    back: Vec<f32>,
    /// Largest per-sample layer width, so `front`/`back` hold `capacity` samples.
    width: usize,
    /// Maximum number of samples per block.
    capacity: usize,
}

impl MlpBatchScratch {
    /// Maximum number of samples one [`Mlp::forward_batch_into`] call can process.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A scratch that holds nothing yet, for [`MlpBatchScratch::grow_for`] to size on
    /// first use.
    pub(crate) fn empty() -> Self {
        Self {
            front: Vec::new(),
            back: Vec::new(),
            width: 0,
            capacity: 0,
        }
    }

    /// Grow, never shrink, until this scratch serves `mlp` at `capacity` samples.
    pub(crate) fn grow_for(&mut self, mlp: &Mlp, capacity: usize) {
        let width = self.width.max(mlp.max_width());
        let capacity = self.capacity.max(capacity);
        if (width, capacity) != (self.width, self.capacity) {
            *self = Self::sized(width, capacity);
        }
    }

    fn sized(width: usize, capacity: usize) -> Self {
        let floats = width * capacity.div_ceil(PANEL) * PANEL;
        Self {
            front: vec![0.0; floats],
            back: vec![0.0; floats],
            width,
            capacity,
        }
    }
}

impl Mlp {
    /// Build an MLP with the given layer sizes. `sizes[0]` is the input width; every
    /// hidden layer uses ReLU; the output layer uses `output_activation`.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::InvalidConfig`] if fewer than two sizes are given or any
    /// size is zero.
    pub fn new(
        sizes: &[usize],
        output_activation: Activation,
        seed: u64,
    ) -> Result<Self, RecsysError> {
        if sizes.len() < 2 {
            return Err(RecsysError::InvalidConfig {
                reason: format!(
                    "an MLP needs at least input and output sizes, got {}",
                    sizes.len()
                ),
            });
        }
        if sizes.contains(&0) {
            return Err(RecsysError::InvalidConfig {
                reason: "layer sizes must be nonzero".to_string(),
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(index, pair)| {
                let activation = if index + 2 == sizes.len() {
                    output_activation
                } else {
                    Activation::Relu
                };
                DenseLayer::new(pair[0], pair[1], activation, &mut rng)
            })
            .collect();
        Ok(Self { layers })
    }

    /// Input width expected by the first layer.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.inputs)
    }

    /// Output width produced by the last layer.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.outputs)
    }

    /// Number of dense layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The `(inputs, outputs)` shape of every layer, in order. This is what the hardware
    /// mapper uses to tile the stack over crossbar arrays.
    pub fn layer_shapes(&self) -> Vec<(usize, usize)> {
        self.layers.iter().map(|l| (l.inputs, l.outputs)).collect()
    }

    /// Total trainable parameter count (weights plus biases).
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.len() + l.bias.len())
            .sum()
    }

    /// The widest layer side: what one sample's activations need in a scratch buffer.
    fn max_width(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.inputs.max(l.outputs))
            .max()
            .unwrap_or(0)
    }

    /// Build scratch buffers sized for this network, for use with [`Mlp::forward_into`].
    pub fn scratch(&self) -> MlpScratch {
        MlpScratch {
            front: vec![0.0; self.max_width()],
            back: vec![0.0; self.max_width()],
        }
    }

    /// Forward inference.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::ShapeMismatch`] if the input width is wrong.
    pub fn forward(&self, input: &[f32]) -> Result<Vec<f32>, RecsysError> {
        let mut scratch = self.scratch();
        Ok(self.forward_into(input, &mut scratch)?.to_vec())
    }

    /// Allocation-free forward inference into reusable scratch buffers: the batched
    /// serving hot path. Returns the output activations as a borrow of the scratch.
    /// Bit-identical to [`Mlp::forward`] (same per-layer arithmetic).
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::ShapeMismatch`] if the input width is wrong or the scratch
    /// was built for a narrower network.
    pub fn forward_into<'s>(
        &self,
        input: &[f32],
        scratch: &'s mut MlpScratch,
    ) -> Result<&'s [f32], RecsysError> {
        if input.len() != self.input_dim() {
            return Err(RecsysError::ShapeMismatch {
                what: "mlp input",
                expected: self.input_dim(),
                actual: input.len(),
            });
        }
        let width = scratch.front.len().min(scratch.back.len());
        if width < self.max_width() {
            return Err(RecsysError::ShapeMismatch {
                what: "mlp scratch width",
                expected: self.max_width(),
                actual: width,
            });
        }
        let mut src: &mut Vec<f32> = &mut scratch.front;
        let mut dst: &mut Vec<f32> = &mut scratch.back;
        src[..input.len()].copy_from_slice(input);
        let mut width = input.len();
        for layer in &self.layers {
            layer.forward_into(&src[..width], &mut dst[..layer.outputs]);
            width = layer.outputs;
            std::mem::swap(&mut src, &mut dst);
        }
        Ok(&src[..width])
    }

    /// Build scratch buffers for batched inference of up to `max_batch` samples per call,
    /// for use with [`Mlp::forward_batch_into`].
    pub fn batch_scratch(&self, max_batch: usize) -> MlpBatchScratch {
        MlpBatchScratch::sized(self.max_width(), max_batch.max(1))
    }

    /// Batched allocation-free forward inference: `inputs` holds a whole number of
    /// samples packed row-major at the input width; the return value is the output
    /// activations packed row-major at the output width.
    ///
    /// Each layer runs as one register-tiled GEMM over the sample dimension that streams
    /// the weights once per call (see the module documentation). Per sample the results
    /// are bit-identical to [`Mlp::forward`] and [`Mlp::forward_into`]: all three add the
    /// same products in the same order.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::ShapeMismatch`] if `inputs` is not a whole number of
    /// input-width rows, holds more samples than the scratch was built for, or the
    /// scratch was built for a narrower network.
    pub fn forward_batch_into<'s>(
        &self,
        inputs: &[f32],
        scratch: &'s mut MlpBatchScratch,
    ) -> Result<&'s [f32], RecsysError> {
        let input_dim = self.input_dim();
        if input_dim == 0 || !inputs.len().is_multiple_of(input_dim) {
            return Err(RecsysError::ShapeMismatch {
                what: "mlp batch input",
                expected: input_dim,
                actual: inputs.len() % input_dim.max(1),
            });
        }
        let count = inputs.len() / input_dim;
        if count > scratch.capacity {
            return Err(RecsysError::ShapeMismatch {
                what: "mlp batch capacity",
                expected: scratch.capacity,
                actual: count,
            });
        }
        if scratch.width < self.max_width() {
            return Err(RecsysError::ShapeMismatch {
                what: "mlp batch scratch width",
                expected: self.max_width(),
                actual: scratch.width,
            });
        }
        let mut src: &mut Vec<f32> = &mut scratch.front;
        let mut dst: &mut Vec<f32> = &mut scratch.back;
        // Pack: sample `first + j` becomes column `j` of its panel, and the columns
        // past the last sample are zero.
        for (first, width) in panels(count) {
            let panel = &mut src[first * input_dim..(first + width) * input_dim];
            panel.fill(0.0);
            for (j, sample) in inputs[first * input_dim..]
                .chunks_exact(input_dim)
                .take(width)
                .enumerate()
            {
                for (k, &x) in sample.iter().enumerate() {
                    panel[k * width + j] = x;
                }
            }
        }
        for layer in &self.layers {
            layer.forward_panels(src, count, dst);
            std::mem::swap(&mut src, &mut dst);
        }
        // Unpack into the other buffer, row-major.
        let output_dim = self.output_dim();
        for (first, width) in panels(count) {
            let panel = &src[first * output_dim..(first + width) * output_dim];
            for (j, out) in dst[first * output_dim..count * output_dim]
                .chunks_exact_mut(output_dim)
                .take(width)
                .enumerate()
            {
                for (o, out) in out.iter_mut().enumerate() {
                    *out = panel[o * width + j];
                }
            }
        }
        Ok(&dst[..count * output_dim])
    }

    /// Forward pass keeping every intermediate activation (needed for backpropagation).
    fn forward_trace(&self, input: &[f32]) -> Vec<Vec<f32>> {
        let mut trace = Vec::with_capacity(self.layers.len() + 1);
        trace.push(input.to_vec());
        for layer in &self.layers {
            let next = layer.forward(trace.last().expect("trace starts with the input"));
            trace.push(next);
        }
        trace
    }

    /// One SGD training step. `grad_output` is the gradient of the loss with respect to
    /// the network output; the method updates every layer in place and returns the
    /// gradient with respect to the input (useful for propagating into embeddings).
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::ShapeMismatch`] if `input` or `grad_output` have the wrong
    /// width.
    pub fn backward(
        &mut self,
        input: &[f32],
        grad_output: &[f32],
        learning_rate: f32,
    ) -> Result<Vec<f32>, RecsysError> {
        if input.len() != self.input_dim() {
            return Err(RecsysError::ShapeMismatch {
                what: "mlp input",
                expected: self.input_dim(),
                actual: input.len(),
            });
        }
        if grad_output.len() != self.output_dim() {
            return Err(RecsysError::ShapeMismatch {
                what: "mlp output gradient",
                expected: self.output_dim(),
                actual: grad_output.len(),
            });
        }
        let trace = self.forward_trace(input);
        let mut grad = grad_output.to_vec();
        for (index, layer) in self.layers.iter_mut().enumerate().rev() {
            grad = layer.backward(&trace[index], &trace[index + 1], &grad, learning_rate);
        }
        Ok(grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_sizes() {
        assert!(Mlp::new(&[4], Activation::Linear, 0).is_err());
        assert!(Mlp::new(&[4, 0], Activation::Linear, 0).is_err());
        let mlp = Mlp::new(&[128, 64, 32], Activation::Linear, 0).unwrap();
        assert_eq!(mlp.input_dim(), 128);
        assert_eq!(mlp.output_dim(), 32);
        assert_eq!(mlp.layer_count(), 2);
        assert_eq!(mlp.layer_shapes(), vec![(128, 64), (64, 32)]);
        assert_eq!(mlp.parameter_count(), 128 * 64 + 64 + 64 * 32 + 32);
    }

    #[test]
    fn forward_validates_input_width() {
        let mlp = Mlp::new(&[4, 2], Activation::Linear, 0).unwrap();
        assert!(mlp.forward(&[1.0; 3]).is_err());
        assert!(mlp.forward(&[1.0; 4]).is_ok());
    }

    #[test]
    fn sigmoid_output_is_a_probability() {
        let mlp = Mlp::new(&[8, 4, 1], Activation::Sigmoid, 1).unwrap();
        let out = mlp.forward(&[0.5; 8]).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0] > 0.0 && out[0] < 1.0);
    }

    #[test]
    fn relu_hidden_layers_clamp_negative_values() {
        // With a linear output and ReLU hidden layers, an input of zeros produces the
        // output biases (zero at init).
        let mlp = Mlp::new(&[4, 4, 2], Activation::Linear, 2).unwrap();
        let out = mlp.forward(&[0.0; 4]).unwrap();
        assert_eq!(out, vec![0.0, 0.0]);
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a = Mlp::new(&[8, 4, 2], Activation::Linear, 9).unwrap();
        let b = Mlp::new(&[8, 4, 2], Activation::Linear, 9).unwrap();
        assert_eq!(a.forward(&[0.3; 8]).unwrap(), b.forward(&[0.3; 8]).unwrap());
    }

    #[test]
    fn forward_into_matches_forward_bit_for_bit() {
        let mlp = Mlp::new(&[6, 16, 4, 2], Activation::Sigmoid, 77).unwrap();
        let mut scratch = mlp.scratch();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let input: Vec<f32> = (0..6).map(|_| rng.gen_range(-2.0..2.0f32)).collect();
            let expected = mlp.forward(&input).unwrap();
            let got = mlp.forward_into(&input, &mut scratch).unwrap();
            assert_eq!(got, expected.as_slice());
        }
        assert!(mlp.forward_into(&[0.0; 5], &mut scratch).is_err());
    }

    #[test]
    fn forward_batch_matches_forward_bit_for_bit() {
        let mlp = Mlp::new(&[6, 16, 4, 2], Activation::Sigmoid, 77).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        for batch in [1usize, 3, 8, 17] {
            let inputs: Vec<f32> = (0..batch * 6)
                .map(|_| rng.gen_range(-2.0..2.0f32))
                .collect();
            let mut scratch = mlp.batch_scratch(batch);
            let out = mlp.forward_batch_into(&inputs, &mut scratch).unwrap();
            assert_eq!(out.len(), batch * 2);
            for s in 0..batch {
                let expected = mlp.forward(&inputs[s * 6..(s + 1) * 6]).unwrap();
                assert_eq!(&out[s * 2..(s + 1) * 2], expected.as_slice());
            }
        }

        // Shapes on both sides of every tile edge — inputs around the four-lane blocks,
        // outputs around the row pairs, batches around the panels and the DLRM's
        // 64-sample block — with inputs that hold signed zeros, infinities, NaN,
        // subnormals and values whose products overflow.
        let specials = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1e-40,
            -1e-40,
            f32::MIN_POSITIVE,
            f32::MAX,
            -f32::MAX / 3.0,
        ];
        for inputs in [1usize, 3, 4, 5, 32, 33, 383] {
            for outputs in [1usize, 2, 3, 4, 5, 8, 9] {
                let mlp = Mlp::new(&[inputs, outputs], Activation::Linear, 5).unwrap();
                let layer = &mlp.layers[0];
                let mut scratch = mlp.batch_scratch(130);
                for batch in [1usize, 2, 3, 4, 63, 64, 65, 130] {
                    let x: Vec<f32> = (0..batch * inputs)
                        .map(|_| match rng.gen_range(0..8) {
                            0 => specials[rng.gen_range(0..specials.len())],
                            _ => rng.gen_range(-2.0..2.0f32),
                        })
                        .collect();
                    // The dispatched kernel against its baseline instantiation, on the
                    // same packed panels.
                    let padded = batch.next_multiple_of(PANEL);
                    let mut packed = vec![0.0f32; padded * inputs];
                    for (first, width) in panels(batch) {
                        let samples = x[first * inputs..].chunks_exact(inputs).take(width);
                        for (j, sample) in samples.enumerate() {
                            for (k, &v) in sample.iter().enumerate() {
                                packed[first * inputs + k * width + j] = v;
                            }
                        }
                    }
                    let mut dispatched = vec![0.0f32; padded * outputs];
                    let mut baseline = dispatched.clone();
                    layer.forward_panels(&packed, batch, &mut dispatched);
                    forward_panels_body(layer, &packed, batch, &mut baseline);
                    assert_eq!(
                        bits(&dispatched),
                        bits(&baseline),
                        "{inputs}x{outputs} batch {batch}"
                    );
                    // The batched pass against one forward pass per sample.
                    let out = mlp.forward_batch_into(&x, &mut scratch).unwrap();
                    for (s, sample) in x.chunks_exact(inputs).enumerate() {
                        assert_eq!(
                            bits(&out[s * outputs..(s + 1) * outputs]),
                            bits(&mlp.forward(sample).unwrap()),
                            "{inputs}x{outputs} batch {batch} sample {s}"
                        );
                    }
                }
            }
        }
    }

    /// The bits of `values`, every NaN as one: IEEE 754 leaves a NaN's payload to the
    /// order of an add's operands, which the compiler may swap; every other value,
    /// signed zeros included, is compared exactly.
    fn bits(values: &[f32]) -> Vec<u32> {
        values
            .iter()
            .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
            .collect()
    }

    #[test]
    fn forward_into_rejects_a_scratch_from_a_narrower_network() {
        let mlp = Mlp::new(&[4, 2], Activation::Linear, 0).unwrap();
        let mut narrow = Mlp::new(&[2, 2], Activation::Linear, 0).unwrap().scratch();
        assert!(matches!(
            mlp.forward_into(&[1.0; 4], &mut narrow),
            Err(RecsysError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn forward_batch_into_rejects_a_scratch_from_a_narrower_network() {
        let mlp = Mlp::new(&[4, 2], Activation::Linear, 0).unwrap();
        let narrow = Mlp::new(&[2, 2], Activation::Linear, 0).unwrap();
        let mut scratch = narrow.batch_scratch(2);
        assert!(matches!(
            mlp.forward_batch_into(&[1.0; 8], &mut scratch),
            Err(RecsysError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn forward_batch_validates_shape_and_capacity() {
        let mlp = Mlp::new(&[4, 2], Activation::Linear, 0).unwrap();
        let mut scratch = mlp.batch_scratch(2);
        assert_eq!(scratch.capacity(), 2);
        assert!(mlp.forward_batch_into(&[0.0; 7], &mut scratch).is_err());
        assert!(mlp.forward_batch_into(&[0.0; 12], &mut scratch).is_err());
        assert!(mlp.forward_batch_into(&[0.0; 8], &mut scratch).is_ok());
        let empty = mlp.forward_batch_into(&[], &mut scratch).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn dot_blocked_matches_sequential_sum_closely() {
        // The blocked kernel reorders additions; it must stay a correct dot product.
        let w: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();
        let x: Vec<f32> = (0..37).map(|i| (i as f32 * 0.73).cos()).collect();
        let sequential: f32 = w.iter().zip(x.iter()).map(|(a, b)| a * b).sum();
        assert!((dot_blocked(&w, &x) - sequential).abs() < 1e-4);
    }

    #[test]
    fn training_reduces_regression_loss() {
        // Learn y = sum(x) on random inputs; squared-error loss must drop substantially.
        let mut mlp = Mlp::new(&[4, 16, 1], Activation::Linear, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let samples: Vec<(Vec<f32>, f32)> = (0..200)
            .map(|_| {
                let x: Vec<f32> = (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let y = x.iter().sum::<f32>();
                (x, y)
            })
            .collect();
        let loss = |mlp: &Mlp| -> f32 {
            samples
                .iter()
                .map(|(x, y)| {
                    let p = mlp.forward(x).unwrap()[0];
                    (p - y) * (p - y)
                })
                .sum::<f32>()
                / samples.len() as f32
        };
        let before = loss(&mlp);
        for _ in 0..30 {
            for (x, y) in &samples {
                let p = mlp.forward(x).unwrap()[0];
                // d(MSE)/dp = 2 (p - y)
                mlp.backward(x, &[2.0 * (p - y)], 0.01).unwrap();
            }
        }
        let after = loss(&mlp);
        assert!(after < before * 0.2, "loss {before} -> {after}");
    }

    #[test]
    fn training_learns_binary_classification() {
        // Separate points by the sign of the first coordinate with a sigmoid output.
        let mut mlp = Mlp::new(&[2, 8, 1], Activation::Sigmoid, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(123);
        let samples: Vec<(Vec<f32>, f32)> = (0..200)
            .map(|_| {
                let x = vec![rng.gen_range(-1.0..1.0f32), rng.gen_range(-1.0..1.0)];
                let label = if x[0] > 0.0 { 1.0 } else { 0.0 };
                (x, label)
            })
            .collect();
        for _ in 0..40 {
            for (x, y) in &samples {
                let p = mlp.forward(x).unwrap()[0];
                // For BCE with sigmoid output, dL/d(output) simplifies via the backward's
                // sigmoid derivative; using (p - y)/(p(1-p)) keeps the composition exact,
                // but the standard shortcut dL/dz = p - y works through the chain rule if
                // we divide out the derivative; here we pass dL/dp directly.
                let eps = 1e-4;
                let grad = (p - y) / (p * (1.0 - p) + eps);
                mlp.backward(x, &[grad], 0.05).unwrap();
            }
        }
        let accuracy = samples
            .iter()
            .filter(|(x, y)| {
                let p = mlp.forward(x).unwrap()[0];
                (p > 0.5) == (*y > 0.5)
            })
            .count() as f32
            / samples.len() as f32;
        assert!(accuracy > 0.9, "accuracy {accuracy}");
    }

    #[test]
    fn backward_validates_shapes() {
        let mut mlp = Mlp::new(&[3, 2], Activation::Linear, 0).unwrap();
        assert!(mlp.backward(&[1.0; 3], &[1.0; 2], 0.1).is_ok());
        assert!(mlp.backward(&[1.0; 2], &[1.0; 2], 0.1).is_err());
        assert!(mlp.backward(&[1.0; 3], &[1.0; 3], 0.1).is_err());
    }

    #[test]
    fn backward_returns_input_gradient_of_right_size() {
        let mut mlp = Mlp::new(&[5, 4, 2], Activation::Linear, 0).unwrap();
        let grad = mlp.backward(&[0.1; 5], &[1.0, -1.0], 0.0).unwrap();
        assert_eq!(grad.len(), 5);
    }
}
