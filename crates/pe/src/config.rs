//! Per-layer PE configuration, loaded by the global controller before a
//! layer starts (§IV-C).

/// Where each operation's input states come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateMode {
    /// One state packet per MAC per operation (conv/pool dataflow).
    PerMac,
    /// One broadcast state shared by all MACs per operation (fully
    /// connected dataflow).
    Shared,
}

/// Where each operation's weights come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightMode {
    /// Weights live in the PE weight register file, duplicated across all
    /// PEs (§III-B-2: "if the size of synaptic weights matrix is small all
    /// weights are stored in PE weight memory"). At operation `k` of a
    /// neuron group in weight row `r`, every MAC reads
    /// `weights[r * weights_per_neuron + k]`.
    Local {
        /// Weights per output neuron (kernel² for conv).
        weights_per_neuron: u32,
        /// Rows in the weight memory (output maps for conv; 1 if all maps
        /// share one row, as pooling's constant does).
        rows: u32,
    },
    /// One weight packet per MAC per operation (fully connected dataflow —
    /// the weight matrix streams from the vault).
    Stream,
}

/// The registers the host programs into a PE for one layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeLayerConfig {
    /// MAC units in this PE (the paper's design point is 16).
    pub n_mac: u32,
    /// Connections per output neuron — operations per neuron group.
    pub conns_per_neuron: u32,
    /// Output neurons assigned to this PE, per output map.
    pub neurons_per_map: u64,
    /// Output maps this PE computes (each map advances the weight row).
    pub maps: u32,
    /// State sourcing.
    pub states: StateMode,
    /// Weight sourcing.
    pub weights: WeightMode,
}

impl PeLayerConfig {
    /// Total output neurons this PE computes for the layer.
    pub fn total_neurons(&self) -> u64 {
        self.neurons_per_map * u64::from(self.maps)
    }

    /// Neuron groups (MAC-array firings × connections) per output map.
    pub(crate) fn groups_per_map(&self) -> u64 {
        self.neurons_per_map.div_ceil(u64::from(self.n_mac))
    }

    /// Total neuron groups for the layer.
    pub(crate) fn total_groups(&self) -> u64 {
        self.groups_per_map() * u64::from(self.maps)
    }

    /// Active MACs in group `group` (the last group of each map may be
    /// partial).
    pub fn active_macs(&self, group: u64) -> u32 {
        debug_assert!(group < self.total_groups());
        let gpm = self.groups_per_map();
        if (group + 1).is_multiple_of(gpm) {
            let rem = self.neurons_per_map - (gpm - 1) * u64::from(self.n_mac);
            rem as u32
        } else {
            self.n_mac
        }
    }

    /// The weight row used by group `group` (output map index, clamped to
    /// the available rows).
    pub(crate) fn weight_row(&self, group: u64) -> u32 {
        let map = (group / self.groups_per_map()) as u32;
        match self.weights {
            WeightMode::Local { rows, .. } => map.min(rows.saturating_sub(1)),
            WeightMode::Stream => map,
        }
    }

    /// Total MAC operations this PE will perform for the layer.
    pub fn total_macs(&self) -> u64 {
        self.total_neurons() * u64::from(self.conns_per_neuron)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a zero MAC count, zero connections or zero neurons.
    pub fn validate(&self) {
        assert!(self.n_mac > 0, "n_mac must be nonzero");
        assert!(self.conns_per_neuron > 0, "connections must be nonzero");
        assert!(self.total_neurons() > 0, "a configured PE must own neurons");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(neurons_per_map: u64, maps: u32) -> PeLayerConfig {
        PeLayerConfig {
            n_mac: 16,
            conns_per_neuron: 9,
            neurons_per_map,
            maps,
            states: StateMode::PerMac,
            weights: WeightMode::Local {
                weights_per_neuron: 9,
                rows: maps,
            },
        }
    }

    #[test]
    fn group_math_exact_multiple() {
        let c = cfg(32, 2);
        assert_eq!(c.total_neurons(), 64);
        assert_eq!(c.groups_per_map(), 2);
        assert_eq!(c.total_groups(), 4);
        for g in 0..4 {
            assert_eq!(c.active_macs(g), 16);
        }
        assert_eq!(c.total_macs(), 64 * 9);
    }

    #[test]
    fn partial_last_group_per_map() {
        let c = cfg(20, 2);
        assert_eq!(c.groups_per_map(), 2);
        assert_eq!(c.active_macs(0), 16);
        assert_eq!(c.active_macs(1), 4); // last group of map 0
        assert_eq!(c.active_macs(2), 16);
        assert_eq!(c.active_macs(3), 4); // last group of map 1
    }

    #[test]
    fn weight_rows_advance_per_map() {
        let c = cfg(20, 3);
        assert_eq!(c.weight_row(0), 0);
        assert_eq!(c.weight_row(1), 0);
        assert_eq!(c.weight_row(2), 1);
        assert_eq!(c.weight_row(5), 2);
    }

    #[test]
    fn single_row_weight_memory_clamps() {
        let mut c = cfg(16, 4);
        c.weights = WeightMode::Local {
            weights_per_neuron: 4,
            rows: 1,
        };
        assert_eq!(c.weight_row(3), 0);
    }

    #[test]
    #[should_panic(expected = "neurons")]
    fn zero_neurons_rejected() {
        cfg(0, 1).validate();
    }
}
