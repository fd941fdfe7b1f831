//! Crossbar arrays and crossbar banks executing the fully connected DNN stacks.
//!
//! iMARS dedicates two crossbar banks to the DNN stacks of the filtering and ranking
//! stages (Fig. 3(a), bottom). A bank tiles each fully connected layer over as many
//! `rows × cols` crossbar arrays as the layer's weight matrix needs; the tiles of one
//! layer operate in parallel (they are distinct arrays) while consecutive layers are
//! sequential.
//!
//! The functional model keeps the weights in floating point — quantization effects on
//! accuracy are studied at the algorithm level in `imars-recsys` — while the cost model
//! charges one crossbar MatMul figure of merit per occupied tile.

use imars_device::characterization::ArrayFom;

#[cfg(test)]
use crate::cost::{Cost, CostBreakdown, CostComponent, Outcome};
#[cfg(test)]
use crate::error::FabricError;

/// One crossbar array holding a `rows × cols` tile of a layer's weight matrix.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CrossbarArray {
    rows: usize,
    cols: usize,
    fom: ArrayFom,
    /// Row-major weights; dimensions `rows × cols`.
    weights: Vec<Vec<f32>>,
}

#[cfg(test)]
impl CrossbarArray {
    /// Create an array with all-zero weights.
    pub fn new(rows: usize, cols: usize, fom: ArrayFom) -> Self {
        Self {
            rows,
            cols,
            fom,
            weights: vec![vec![0.0; cols]; rows],
        }
    }

    /// Number of input rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of output columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Program a weight tile. Tiles smaller than the array are zero-padded.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::DimensionMismatch`] if the tile is larger than the array.
    pub(crate) fn program_weights(
        &mut self,
        tile: &[Vec<f32>],
    ) -> Result<Outcome<()>, FabricError> {
        if tile.len() > self.rows {
            return Err(FabricError::DimensionMismatch {
                expected: self.rows,
                actual: tile.len(),
                what: "weight tile rows",
            });
        }
        for row in tile {
            if row.len() > self.cols {
                return Err(FabricError::DimensionMismatch {
                    expected: self.cols,
                    actual: row.len(),
                    what: "weight tile columns",
                });
            }
        }
        for (r, row) in self.weights.iter_mut().enumerate() {
            for (c, weight) in row.iter_mut().enumerate() {
                *weight = tile.get(r).and_then(|t| t.get(c)).copied().unwrap_or(0.0);
            }
        }
        // Programming the array costs one CMA-class write per occupied row (the crossbar
        // write path is the same FeFET program pulse).
        let cost = Cost::from_fom(self.fom.cma.write).repeat(tile.len().max(1));
        Ok(Outcome::single((), CostComponent::CmaWrite, cost))
    }

    /// Analog matrix-vector multiplication: `y[c] = Σ_r w[r][c] · x[r]`.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::DimensionMismatch`] if the input length exceeds the rows.
    pub fn matvec(&self, input: &[f32]) -> Result<Outcome<Vec<f32>>, FabricError> {
        if input.len() > self.rows {
            return Err(FabricError::DimensionMismatch {
                expected: self.rows,
                actual: input.len(),
                what: "crossbar input",
            });
        }
        let mut output = vec![0.0f32; self.cols];
        for (r, &x) in input.iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            for (c, out) in output.iter_mut().enumerate() {
                *out += self.weights[r][c] * x;
            }
        }
        Ok(Outcome::single(
            output,
            CostComponent::CrossbarMatMul,
            Cost::from_fom(self.crossbar_matmul_fom()),
        ))
    }

    fn crossbar_matmul_fom(&self) -> imars_device::characterization::OperationFom {
        self.fom.crossbar_matmul
    }
}

/// A bank of crossbar arrays executing one DNN stack layer by layer.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossbarBank {
    array_rows: usize,
    array_cols: usize,
    fom: ArrayFom,
}

impl CrossbarBank {
    /// Create a crossbar bank whose arrays have the geometry of the characterized design
    /// point (256×128 in the paper).
    pub fn new(fom: ArrayFom) -> Self {
        Self {
            array_rows: fom.crossbar_geometry.rows,
            array_cols: fom.crossbar_geometry.cols,
            fom,
        }
    }

    /// Geometry of one array in the bank.
    #[cfg(test)]
    pub(crate) fn array_geometry(&self) -> (usize, usize) {
        (self.array_rows, self.array_cols)
    }

    /// Number of crossbar tiles a `inputs × outputs` layer occupies.
    pub fn tiles_for_layer(&self, inputs: usize, outputs: usize) -> usize {
        inputs.div_ceil(self.array_rows).max(1) * outputs.div_ceil(self.array_cols).max(1)
    }

    /// Execute one fully connected layer `y = W^T x` (weights `inputs × outputs`,
    /// row-major) and return the pre-activation outputs.
    ///
    /// All tiles of the layer run in parallel on distinct arrays: the layer latency is one
    /// MatMul (plus a small digital accumulation per extra row-tile) and the energy is one
    /// MatMul per tile.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::DimensionMismatch`] if `input` does not have `inputs`
    /// elements or the weight matrix is ragged.
    #[cfg(test)]
    pub(crate) fn forward_layer(
        &self,
        weights: &[Vec<f32>],
        input: &[f32],
    ) -> Result<Outcome<Vec<f32>>, FabricError> {
        let inputs = weights.len();
        if inputs == 0 {
            return Err(FabricError::EmptySelection {
                operation: "forward_layer",
            });
        }
        let outputs = weights[0].len();
        if weights.iter().any(|row| row.len() != outputs) {
            return Err(FabricError::DimensionMismatch {
                expected: outputs,
                actual: weights
                    .iter()
                    .map(Vec::len)
                    .find(|&l| l != outputs)
                    .unwrap_or(0),
                what: "weight matrix columns",
            });
        }
        if input.len() != inputs {
            return Err(FabricError::DimensionMismatch {
                expected: inputs,
                actual: input.len(),
                what: "layer input",
            });
        }
        let mut output = vec![0.0f32; outputs];
        for (r, &x) in input.iter().enumerate() {
            for (c, out) in output.iter_mut().enumerate() {
                *out += weights[r][c] * x;
            }
        }
        let tiles = self.tiles_for_layer(inputs, outputs);
        let row_tiles = inputs.div_ceil(self.array_rows).max(1);
        let matmul = Cost::from_fom(self.fom.crossbar_matmul);
        // Parallel tiles: energy scales with tiles, latency is one MatMul plus a small
        // partial-sum accumulation per extra row tile (digital adder, ~1 ns each).
        let cost = Cost::new(
            matmul.energy_pj * tiles as f64,
            matmul.latency_ns + (row_tiles as f64 - 1.0) * 1.0,
        );
        let mut breakdown = CostBreakdown::new();
        breakdown.charge(CostComponent::CrossbarMatMul, cost);
        Ok(Outcome::with_breakdown(output, cost, breakdown))
    }

    /// Execute a whole multi-layer perceptron with ReLU activations between layers (no
    /// activation after the last layer). `layers[i]` is the weight matrix of layer `i`.
    ///
    /// # Errors
    ///
    /// Propagates layer-level shape errors.
    #[cfg(test)]
    pub(crate) fn forward_mlp(
        &self,
        layers: &[Vec<Vec<f32>>],
        input: &[f32],
    ) -> Result<Outcome<Vec<f32>>, FabricError> {
        let mut activations = input.to_vec();
        let mut cost = Cost::ZERO;
        let mut breakdown = CostBreakdown::new();
        let layer_count = layers.len();
        for (index, weights) in layers.iter().enumerate() {
            let outcome = self.forward_layer(weights, &activations)?;
            cost = cost.serial(outcome.cost);
            breakdown.merge(&outcome.breakdown);
            activations = outcome.value;
            if index + 1 < layer_count {
                for value in &mut activations {
                    *value = value.max(0.0);
                }
            }
        }
        Ok(Outcome::with_breakdown(activations, cost, breakdown))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fom() -> ArrayFom {
        ArrayFom::paper_reference()
    }

    #[test]
    fn array_matvec_matches_reference() {
        let mut array = CrossbarArray::new(4, 3, fom());
        array
            .program_weights(&[
                vec![1.0, 0.0, 2.0],
                vec![0.0, 1.0, 0.0],
                vec![1.0, 1.0, 1.0],
            ])
            .unwrap();
        let out = array.matvec(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(out.value, vec![4.0, 5.0, 5.0]);
        assert_eq!(out.cost, Cost::new(13.8, 225.0));
    }

    #[test]
    fn array_rejects_oversized_tiles_and_inputs() {
        let mut array = CrossbarArray::new(2, 2, fom());
        assert!(array.program_weights(&vec![vec![0.0; 2]; 3]).is_err());
        assert!(array.program_weights(&vec![vec![0.0; 3]; 2]).is_err());
        assert!(array.matvec(&[0.0; 3]).is_err());
        assert_eq!(array.rows(), 2);
        assert_eq!(array.cols(), 2);
    }

    #[test]
    fn bank_tiles_match_layer_dimensions() {
        let bank = CrossbarBank::new(fom());
        assert_eq!(bank.array_geometry(), (256, 128));
        // The paper's YouTubeDNN filtering stack 128-64-32: a 128x64 layer fits in 1 tile.
        assert_eq!(bank.tiles_for_layer(128, 64), 1);
        // DLRM bottom MLP 256-128-32: 256x128 exactly one tile.
        assert_eq!(bank.tiles_for_layer(256, 128), 1);
        // A 512x256 layer needs 2 row tiles x 2 column tiles.
        assert_eq!(bank.tiles_for_layer(512, 256), 4);
    }

    #[test]
    fn bank_forward_layer_matches_reference() {
        let bank = CrossbarBank::new(fom());
        let weights = vec![vec![0.5, -1.0], vec![2.0, 1.0], vec![0.0, 3.0]];
        let out = bank.forward_layer(&weights, &[1.0, 2.0, -1.0]).unwrap();
        assert_eq!(out.value, vec![4.5, -2.0]);
        assert_eq!(out.cost, Cost::new(13.8, 225.0));
    }

    #[test]
    fn bank_forward_layer_cost_scales_with_tiles() {
        let bank = CrossbarBank::new(fom());
        let small = bank
            .forward_layer(&vec![vec![0.0; 32]; 128], &vec![0.0; 128])
            .unwrap();
        let large = bank
            .forward_layer(&vec![vec![0.0; 256]; 512], &vec![0.0; 512])
            .unwrap();
        assert!(large.cost.energy_pj > small.cost.energy_pj);
        assert!(large.cost.latency_ns > small.cost.latency_ns);
        // Parallel tiles keep the latency near one MatMul even for the big layer.
        assert!(large.cost.latency_ns < 2.0 * small.cost.latency_ns);
    }

    #[test]
    fn bank_rejects_shape_mismatches() {
        let bank = CrossbarBank::new(fom());
        assert!(bank.forward_layer(&[], &[]).is_err());
        assert!(bank
            .forward_layer(&[vec![0.0, 1.0], vec![0.0]], &[1.0, 1.0])
            .is_err());
        assert!(bank.forward_layer(&[vec![0.0, 1.0]], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn mlp_applies_relu_between_layers_only() {
        let bank = CrossbarBank::new(fom());
        // Layer 1 produces a negative value which ReLU clamps; layer 2 is identity-like.
        let layers = vec![
            vec![vec![1.0, -1.0]],      // 1 input -> 2 outputs
            vec![vec![1.0], vec![1.0]], // 2 inputs -> 1 output
        ];
        let out = bank.forward_mlp(&layers, &[2.0]).unwrap();
        // Pre-ReLU layer 1: [2, -2] -> ReLU -> [2, 0]; layer 2: 2 + 0 = 2 (no ReLU after).
        assert_eq!(out.value, vec![2.0]);
        // Two layers = two sequential MatMuls.
        assert!((out.cost.latency_ns - 450.0).abs() < 1e-9);
        assert!((out.cost.energy_pj - 27.6).abs() < 1e-9);
    }

    #[test]
    fn mlp_final_layer_keeps_negative_outputs() {
        let bank = CrossbarBank::new(fom());
        let layers = vec![vec![vec![-1.0]]];
        let out = bank.forward_mlp(&layers, &[3.0]).unwrap();
        assert_eq!(out.value, vec![-3.0]);
    }
}
