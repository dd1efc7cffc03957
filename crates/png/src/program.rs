//! One compiled phase: the PNG program and PE configuration-register
//! image of one layer (Fig. 4's "compile into state machine descriptions"
//! step). [`compile_graph`](crate::compile_graph) emits one per executable
//! graph node.

use crate::error::CompileError;
use neurocube_fixed::{Activation, Q88};
use neurocube_nn::{ConvConnectivity, LayerSpec, Shape};
use neurocube_pe::{PeLayerConfig, StateMode, WeightMode};

/// The cube-wide mapping parameters the host chooses for a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mapping {
    /// PE/vault grid width (4 for the 16-vault HMC).
    pub grid_w: usize,
    /// PE/vault grid height.
    pub grid_h: usize,
    /// Duplicate inputs (halos for conv layers, full vectors for FC layers,
    /// Fig. 10(c)/(d)) to eliminate lateral NoC traffic at a memory cost.
    pub duplicate: bool,
    /// MACs per PE.
    pub n_mac: u32,
}

impl Mapping {
    /// The paper's design point: 4×4 grid, 16 MACs.
    pub fn paper(duplicate: bool) -> Mapping {
        Mapping {
            grid_w: 4,
            grid_h: 4,
            duplicate,
            n_mac: 16,
        }
    }

    /// Vault count.
    pub fn vaults(&self) -> usize {
        self.grid_w * self.grid_h
    }
}

/// Everything the 16 PNGs and PEs need to execute one layer — the result of
/// the host's per-layer programming step (§IV-C). Shared behind an
/// [`Arc`](std::sync::Arc).
#[derive(Clone, Debug)]
pub struct LayerProgram {
    /// Index of the phase in its compiled program.
    pub layer_index: usize,
    /// The layer description.
    pub layer: LayerSpec,
    /// Input volume shape.
    pub in_shape: Shape,
    /// Output volume shape.
    pub out_shape: Shape,
    /// Placement of the input volume.
    pub in_vol: crate::layout::VolumeLayout,
    /// Placement of the output volume (including the copies the *next*
    /// layer's duplication requires).
    pub out_vol: crate::layout::VolumeLayout,
    /// Per-vault base of the transposed streamed-weight region, if the
    /// layer's weights stream from DRAM.
    pub weight_base: Option<Vec<u64>>,
    /// Activation applied by the PNG LUT on write-back.
    pub activation: Activation,
    /// The mapping this program was compiled for.
    pub mapping: Mapping,
}

impl LayerProgram {
    /// `true` when this layer uses the fully connected dataflow (shared
    /// state broadcast + streamed weights).
    pub fn is_fc(&self) -> bool {
        self.layer.weights_stream()
    }

    /// Groups (MAC-array firings per connection sweep) PE `p` executes.
    pub fn groups_of(&self, p: u8) -> u64 {
        let per_map = self.out_vol.assigned_per_map(p);
        per_map.div_ceil(u64::from(self.mapping.n_mac)) * self.out_vol.maps()
    }

    /// The maximum group count over all PEs — the length of the global
    /// lockstep schedule.
    pub fn max_groups(&self) -> u64 {
        (0..self.mapping.vaults() as u8)
            .map(|p| self.groups_of(p))
            .max()
            .unwrap_or(0)
    }

    /// Connections per output neuron.
    pub fn conns(&self) -> u32 {
        self.layer.connections_per_neuron(self.in_shape) as u32
    }

    /// The PE configuration registers for vault `p`, or `None` when that PE
    /// owns no neurons of this layer and idles.
    pub fn pe_config(&self, p: u8) -> Option<PeLayerConfig> {
        let per_map = self.out_vol.assigned_per_map(p);
        if per_map == 0 {
            return None;
        }
        let (states, weights) = if self.is_fc() {
            (StateMode::Shared, WeightMode::Stream)
        } else {
            let (wpn, rows) = match self.layer {
                LayerSpec::Conv2d {
                    kernel,
                    connectivity,
                    ..
                } => {
                    let wpn = match connectivity {
                        ConvConnectivity::SingleMap => kernel * kernel,
                        ConvConnectivity::AllMaps => kernel * kernel * self.in_shape.channels,
                    };
                    (wpn as u32, self.out_shape.channels as u32)
                }
                LayerSpec::AvgPool { size } => ((size * size) as u32, 1),
                // A residual add is a 1x1 "kernel" of `terms` unit weights,
                // identical in every map (like the pooling constant row).
                LayerSpec::Eltwise { terms, .. } => (terms as u32, 1),
                LayerSpec::FullyConnected { .. } => unreachable!("handled above"),
            };
            (
                StateMode::PerMac,
                WeightMode::Local {
                    weights_per_neuron: wpn,
                    rows,
                },
            )
        };
        Some(PeLayerConfig {
            n_mac: self.mapping.n_mac,
            conns_per_neuron: self.conns(),
            neurons_per_map: per_map,
            maps: self.out_vol.maps() as u32,
            states,
            weights,
        })
    }

    /// The PE weight-memory image for layers with
    /// [`WeightMode::Local`]: the layer's
    /// kernels (identical in every PE — "the weights are duplicated in the
    /// weight memory of all PEs", §V-A-1), or the pooling constant row.
    pub fn pe_weight_image(&self, params: &[Q88]) -> Vec<Q88> {
        match self.layer {
            LayerSpec::Conv2d { .. } => params.to_vec(),
            LayerSpec::AvgPool { size } => {
                vec![Q88::from_f64(1.0 / (size * size) as f64); size * size]
            }
            LayerSpec::Eltwise { terms, .. } => vec![Q88::ONE; terms],
            LayerSpec::FullyConnected { .. } => Vec::new(),
        }
    }

    /// Copies of output neuron `n` beyond its owner: the vaults whose
    /// stored region includes it.
    pub(crate) fn copy_vaults(&self, n: usize, owner: u8) -> Vec<u8> {
        (0..self.mapping.vaults() as u8)
            .filter(|&u| u != owner && self.out_vol.local_addr(u, n).is_some())
            .collect()
    }

    /// Total write-backs vault `v` will receive from *other* vaults'
    /// PEs (its stored-but-not-owned copies of the output volume).
    pub(crate) fn expected_foreign_writebacks(&self, v: u8) -> u64 {
        let stored = self.out_vol.bytes_in_vault(v) / 2;
        stored - self.out_vol.assigned_count(v)
    }
}

/// Loads a volume's values into every vault that stores a copy of it
/// (the host's untimed "map all data structures of NN into the physical
/// address space of the cube" step, §IV-C).
///
/// # Errors
///
/// Returns [`CompileError::VolumeSize`] when `values` does not match the
/// volume's shape; nothing is written in that case.
pub fn load_volume(
    vol: &crate::layout::VolumeLayout,
    values: &[Q88],
    vaults: usize,
    storage: &mut neurocube_dram::Storage,
) -> Result<(), CompileError> {
    if values.len() != vol.shape.len() {
        return Err(CompileError::VolumeSize {
            expected: vol.shape.len(),
            got: values.len(),
        });
    }
    for v in 0..vaults as u8 {
        for (n, &q) in values.iter().enumerate() {
            if let Some(addr) = vol.local_addr(v, n) {
                storage.write_u16(addr, q.to_bits() as u16);
            }
        }
    }
    Ok(())
}

/// Reads a volume's canonical values back out of DRAM from each neuron's
/// owning vault (the host's read-out of results).
pub fn read_volume(
    vol: &crate::layout::VolumeLayout,
    storage: &neurocube_dram::Storage,
) -> Vec<Q88> {
    (0..vol.shape.len())
        .map(|n| {
            let owner = vol.owner(n);
            let addr = vol
                .local_addr(owner, n)
                .expect("owner stores its own neurons");
            Q88::from_bits(storage.read_u16(addr) as i16)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{compile_graph, phase_fc_weight_addr, MultiLayerProgram};
    use neurocube_dram::MemoryConfig;
    use neurocube_nn::NetworkSpec;

    fn compile(net: &NetworkSpec, duplicate: bool) -> MultiLayerProgram {
        let map = MemoryConfig::hmc_int().address_map();
        compile_graph(&net.to_graph(), Mapping::paper(duplicate), &map).unwrap()
    }

    fn build(duplicate: bool) -> (NetworkSpec, MultiLayerProgram) {
        let net = NetworkSpec::new(
            Shape::new(1, 16, 16),
            vec![
                LayerSpec::conv(2, 3, Activation::Tanh),
                LayerSpec::fc(8, Activation::Sigmoid),
            ],
        )
        .unwrap();
        let prog = compile(&net, duplicate);
        (net, prog)
    }

    #[test]
    fn conv_pe_config() {
        let (_, prog) = build(false);
        let cfg = prog.phases[0].pe_config(0).unwrap();
        assert_eq!(cfg.conns_per_neuron, 9);
        assert_eq!(cfg.maps, 2);
        // 14x14 output over a 4x4 grid: corner tile is 3x3 = 9 pixels...
        // grid_rect(14,14,4,4,0,0) = rows 0..3, cols 0..3.
        assert_eq!(cfg.neurons_per_map, 9);
        assert_eq!(cfg.states, StateMode::PerMac);
        assert!(matches!(
            cfg.weights,
            WeightMode::Local {
                weights_per_neuron: 9,
                rows: 2
            }
        ));
    }

    #[test]
    fn fc_pe_config() {
        let (_, prog) = build(false);
        let fc = &prog.phases[1];
        let cfg = fc.pe_config(3).unwrap();
        assert_eq!(cfg.states, StateMode::Shared);
        assert_eq!(cfg.weights, WeightMode::Stream);
        assert_eq!(cfg.conns_per_neuron, 2 * 14 * 14);
        assert_eq!(cfg.maps, 1);
        // 8 outputs over 16 vaults: half the vaults idle.
        let total: u64 = (0..16u8)
            .filter_map(|p| fc.pe_config(p))
            .map(|c| c.total_neurons())
            .sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn copy_vaults_empty_without_duplication() {
        let (_, prog) = build(false);
        let conv = &prog.phases[0];
        for n in (0..conv.out_shape.len()).step_by(37) {
            let owner = conv.out_vol.owner(n);
            assert!(conv.copy_vaults(n, owner).is_empty());
        }
        for v in 0..16 {
            assert_eq!(conv.expected_foreign_writebacks(v), 0);
        }
    }

    #[test]
    fn copy_vaults_present_with_duplication() {
        // A conv layer feeding another conv layer: the output volume
        // carries halo copies, so boundary neurons are written to
        // neighbouring vaults too.
        let net = NetworkSpec::new(
            Shape::new(1, 20, 20),
            vec![
                LayerSpec::conv(2, 3, Activation::Tanh),
                LayerSpec::conv(2, 3, Activation::Tanh),
            ],
        )
        .unwrap();
        let compiled = compile(&net, true);
        let prog = &compiled.phases[0];
        let foreign: u64 = (0..16).map(|v| prog.expected_foreign_writebacks(v)).sum();
        assert!(foreign > 0, "halo duplication must require copies");
        let copies: usize = (0..prog.out_shape.len())
            .map(|n| prog.copy_vaults(n, prog.out_vol.owner(n)).len())
            .sum();
        assert_eq!(copies as u64, foreign);
        // FC-consumed spatial volumes are NOT replicated (see layout docs):
        let (_, fc_compiled) = build(true);
        for v in 0..16 {
            assert_eq!(fc_compiled.phases[0].expected_foreign_writebacks(v), 0);
        }
    }

    #[test]
    fn weight_image_pooling_constant() {
        let net =
            NetworkSpec::new(Shape::new(1, 8, 8), vec![LayerSpec::AvgPool { size: 2 }]).unwrap();
        let img = compile(&net, false).phases[0].pe_weight_image(&[]);
        assert_eq!(img, vec![Q88::from_f64(0.25); 4]);
    }

    #[test]
    fn load_and_read_volume_roundtrip() {
        let (net, prog) = build(true);
        let mut storage = neurocube_dram::Storage::new();
        let values: Vec<Q88> = (0..net.input_shape().len())
            .map(|i| Q88::from_bits(i as i16))
            .collect();
        load_volume(&prog.input_vol, &values, 16, &mut storage).unwrap();
        assert_eq!(read_volume(&prog.input_vol, &storage), values);
    }

    #[test]
    fn weight_layer_count_is_typed_and_writes_nothing() {
        let (_, prog) = build(false);
        let mut storage = neurocube_dram::Storage::new();
        let err = prog.write_weights(&[], &mut storage).unwrap_err();
        assert_eq!(
            err,
            CompileError::WeightLayerCount {
                expected: 2,
                got: 0
            }
        );
        let addr = phase_fc_weight_addr(&prog.phases[1], 0, 0, 0);
        assert_eq!(storage.read_u16(addr), 0);
    }

    #[test]
    fn weight_image_size_is_typed_and_checked_before_writes() {
        let (net, prog) = build(false);
        let mut params = net.init_params(1, 0.5);
        params[1].push(Q88::ZERO); // FC image too long; conv image [0] intact
        let mut storage = neurocube_dram::Storage::new();
        let err = prog.write_weights(&params, &mut storage).unwrap_err();
        assert!(matches!(
            err,
            CompileError::WeightImageSize { layer: 1, .. }
        ));
        // Nothing was written: validation precedes all writes.
        let addr = phase_fc_weight_addr(&prog.phases[1], 0, 0, 0);
        assert_eq!(storage.read_u16(addr), 0);
    }

    #[test]
    fn volume_size_is_typed() {
        let (_, prog) = build(false);
        let mut storage = neurocube_dram::Storage::new();
        let err = load_volume(&prog.input_vol, &[Q88::ONE], 16, &mut storage).unwrap_err();
        assert_eq!(
            err,
            CompileError::VolumeSize {
                expected: 16 * 16,
                got: 1
            }
        );
    }

    #[test]
    fn load_weights_places_transposed_rows() {
        let net = NetworkSpec::new(
            Shape::flat(4),
            vec![LayerSpec::fc(16, Activation::Identity)],
        )
        .unwrap();
        let prog = compile(&net, false);
        let params: Vec<Vec<Q88>> = vec![(0..64).map(Q88::from_bits).collect()];
        let mut storage = neurocube_dram::Storage::new();
        prog.write_weights(&params, &mut storage).unwrap();
        // Vault 0 owns output neuron 0 only; its weight for k=2 is
        // params[0][0*4+2] = 2, stored at phase_fc_weight_addr(fc, 0, 0, 2).
        let addr = phase_fc_weight_addr(&prog.phases[0], 0, 0, 2);
        assert_eq!(storage.read_u16(addr), 2);
    }
}
