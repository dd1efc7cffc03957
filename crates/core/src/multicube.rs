//! Multi-cube scaling — the paper's concluding "next steps": *"scaling
//! this implementation across multiple cubes to support much larger
//! networks than can be feasibly supported today."*
//!
//! Mapping: data-parallel banding. Each layer's output rows are split into
//! one horizontal band per cube; every cube runs its band of the layer on
//! its own full Neurocube (16 vaults, 16 PEs), and between layers the
//! *halo rows* a neighbour's band needs travel over the HMC external
//! SERDES links (Table I's HMC-Ext interface). Fully connected layers are
//! split by output neuron, which requires all-gathering the input vector
//! across cubes first — the links, not the MACs, are the scaling hazard
//! the harness quantifies.
//!
//! The implementation is value-accurate like everything else: each band
//! executes on the cycle-level simulator, the host gathers real band
//! outputs, and the combined result is bit-identical to a single-cube run
//! (and to the functional reference).

use crate::config::SystemConfig;
use crate::report::LayerReport;
use crate::system::Neurocube;
use neurocube_dram::REF_CLOCK_HZ;
use neurocube_fixed::Q88;
use neurocube_nn::{LayerSpec, NetworkSpec, Shape, Tensor};
use neurocube_png::layout::{input_rect_for, Rect};
use neurocube_png::CompileError;
use neurocube_sim::BatchRunner;
use std::fmt;

/// Inter-cube link model: the HMC external interface (Table I HMC-Ext:
/// 40 GB/s per link, 4 links per cube; we model the aggregate neighbour
/// bandwidth and a fixed per-layer synchronization latency).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkModel {
    /// Aggregate neighbour-to-neighbour bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Per-layer synchronization/SerDes latency in nanoseconds.
    pub latency_ns: f64,
}

impl LinkModel {
    /// The HMC-Ext default: one 40 GB/s link per neighbour direction and
    /// ~100 ns of SerDes/synchronization latency per exchange.
    pub fn hmc_ext() -> LinkModel {
        LinkModel {
            bandwidth_gbps: 40.0,
            latency_ns: 100.0,
        }
    }

    /// Reference cycles to move `bytes` over the link: pacing and flight
    /// ceiled independently in per-ns units (GB/s = bytes/ns), the form of
    /// `neurocube_golden::timing::link_transfer_cycles` at one hop.
    /// Ceiling their float sum instead charged a cycle too many whenever
    /// the sum's rounding error crossed an integer (8 B at 40 GB/s + 100 ns
    /// is 1 + 500 cycles, not 502).
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let cycles_per_ns = REF_CLOCK_HZ / 1e9;
        let pacing = (bytes as f64 * cycles_per_ns / self.bandwidth_gbps).ceil() as u64;
        let flight = (self.latency_ns * cycles_per_ns).ceil() as u64;
        pacing + flight
    }
}

/// One layer's multi-cube execution record.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiLayerReport {
    /// Layer index.
    pub layer_index: usize,
    /// Layer kind.
    pub kind: &'static str,
    /// Per-cube compute reports for this layer's band.
    pub per_cube: Vec<LayerReport>,
    /// Inter-cube link cycles charged before this layer (halo exchange or
    /// FC input all-gather).
    pub link_cycles: u64,
}

impl MultiLayerReport {
    /// The layer's critical-path cycles: the slowest cube plus the link
    /// exchange preceding it.
    pub fn cycles(&self) -> u64 {
        self.link_cycles + self.per_cube.iter().map(|r| r.cycles).max().unwrap_or(0)
    }

    /// Total useful arithmetic operations across cubes.
    pub fn ops(&self) -> u64 {
        self.per_cube.iter().map(LayerReport::ops).sum()
    }
}

/// A whole run's record.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MultiCubeReport {
    /// Per-layer breakdown.
    pub layers: Vec<MultiLayerReport>,
    /// Cube count.
    pub cubes: usize,
}

impl MultiCubeReport {
    /// End-to-end critical-path cycles.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(MultiLayerReport::cycles).sum()
    }

    /// Total arithmetic operations (including halo recompute, if any).
    pub fn total_ops(&self) -> u64 {
        self.layers.iter().map(MultiLayerReport::ops).sum()
    }

    /// Aggregate throughput in GOPs/s at the reference clock.
    pub fn throughput_gops(&self) -> f64 {
        let c = self.total_cycles();
        if c == 0 {
            return 0.0;
        }
        self.total_ops() as f64 / (c as f64 / REF_CLOCK_HZ) / 1e9
    }

    /// Cycles spent on inter-cube links.
    pub fn link_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.link_cycles).sum()
    }

    /// Scaling efficiency against a single-cube run of the same workload:
    /// `(single_cycles / cubes) / multi_cycles`.
    pub fn scaling_efficiency(&self, single_cycles: u64) -> f64 {
        if self.total_cycles() == 0 {
            return 0.0;
        }
        single_cycles as f64 / self.cubes as f64 / self.total_cycles() as f64
    }
}

impl fmt::Display for MultiCubeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for l in &self.layers {
            writeln!(
                f,
                "L{} {:<5} {:>12} compute cycles (max of {}), {:>9} link cycles",
                l.layer_index + 1,
                l.kind,
                l.cycles() - l.link_cycles,
                l.per_cube.len(),
                l.link_cycles
            )?;
        }
        writeln!(
            f,
            "total: {} cycles ({} on links), {:.1} GOPs/s aggregate",
            self.total_cycles(),
            self.link_cycles(),
            self.throughput_gops()
        )
    }
}

/// A cluster of Neurocubes executing one network data-parallel.
#[derive(Clone, Debug)]
pub struct MultiCube {
    cfg: SystemConfig,
    cubes: usize,
    link: LinkModel,
}

impl MultiCube {
    /// Builds a cluster of `cubes` cubes, each configured with `cfg`,
    /// linked by `link`.
    ///
    /// # Panics
    ///
    /// Panics if `cubes` is zero.
    pub fn new(cfg: SystemConfig, cubes: usize, link: LinkModel) -> MultiCube {
        match MultiCube::try_new(cfg, cubes, link) {
            Ok(mc) => mc,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`MultiCube::new`] with the zero-cube case surfaced as a typed
    /// error.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::EmptyPool`] when `cubes` is zero.
    pub fn try_new(
        cfg: SystemConfig,
        cubes: usize,
        link: LinkModel,
    ) -> Result<MultiCube, CompileError> {
        if cubes == 0 {
            return Err(CompileError::EmptyPool);
        }
        cfg.validate();
        Ok(MultiCube { cfg, cubes, link })
    }

    /// Cube count.
    pub fn cubes(&self) -> usize {
        self.cubes
    }

    /// The output row band of cube `b` for a plane of `rows` rows.
    fn band(&self, rows: usize, b: usize) -> (usize, usize) {
        (b * rows / self.cubes, (b + 1) * rows / self.cubes)
    }

    /// Runs one inference across the cluster. Returns the network output
    /// (bit-identical to a single-cube run) and the scaling report.
    ///
    /// # Panics
    ///
    /// Panics if any cube's band would be empty (more cubes than output
    /// rows / neurons in some layer), or if `params` does not match `spec`.
    pub fn run_inference(
        &self,
        spec: &NetworkSpec,
        params: &[Vec<Q88>],
        input: &Tensor,
    ) -> (Tensor, MultiCubeReport) {
        match self.try_run_inference(spec, params, input) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`MultiCube::run_inference`] with banding failures surfaced as
    /// typed errors.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::EmptyBand`] when some cube's output band
    /// (or FC output slice) would be empty — more cubes than output rows
    /// or neurons in some layer. Detected before any cube is dispatched,
    /// so failures are deterministic and never escape a worker thread.
    ///
    /// # Panics
    ///
    /// Still panics if `params` does not match `spec` — a caller bug, not
    /// an input.
    pub fn try_run_inference(
        &self,
        spec: &NetworkSpec,
        params: &[Vec<Q88>],
        input: &Tensor,
    ) -> Result<(Tensor, MultiCubeReport), CompileError> {
        let mut report = MultiCubeReport {
            layers: Vec::with_capacity(spec.depth()),
            cubes: self.cubes,
        };
        let mut cur = input.clone();
        for (i, layer) in spec.layers().iter().enumerate() {
            let in_shape = spec.layer_input(i);
            let out_shape = spec.layer_output(i);
            let (next, entry) = match layer {
                LayerSpec::Conv2d { kernel, stride, .. } => self.run_spatial_layer(
                    i, layer, in_shape, out_shape, *kernel, *stride, &params[i], &cur,
                ),
                LayerSpec::AvgPool { size } => self.run_spatial_layer(
                    i, layer, in_shape, out_shape, *size, *size, &params[i], &cur,
                ),
                // Element-wise sums are per-pixel: a 1×1 "kernel" with no
                // halo rows between bands.
                LayerSpec::Eltwise { .. } => {
                    self.run_spatial_layer(i, layer, in_shape, out_shape, 1, 1, &params[i], &cur)
                }
                LayerSpec::FullyConnected { .. } => {
                    self.run_fc_layer(i, layer, in_shape, out_shape, &params[i], &cur)
                }
            }?;
            cur = next;
            report.layers.push(entry);
        }
        Ok((cur, report))
    }

    #[allow(clippy::too_many_arguments)] // one call site; mirrors the layer math
    fn run_spatial_layer(
        &self,
        index: usize,
        layer: &LayerSpec,
        in_shape: Shape,
        out_shape: Shape,
        kernel: usize,
        stride: usize,
        weights: &[Q88],
        cur: &Tensor,
    ) -> Result<(Tensor, MultiLayerReport), CompileError> {
        // Validate every band before any cube is dispatched, so geometry
        // errors surface deterministically and never from a worker thread.
        for b in 0..self.cubes {
            let (oy0, oy1) = self.band(out_shape.height, b);
            if oy1 <= oy0 {
                return Err(CompileError::EmptyBand {
                    cube: b,
                    layer: index,
                });
            }
        }

        // Each band runs on its own (deterministic, single-threaded)
        // Neurocube; the cluster's cubes genuinely run concurrently.
        let bands = BatchRunner::new().run(self.cubes, |b| {
            let (oy0, oy1) = self.band(out_shape.height, b);
            // Input rows this band needs (the same arithmetic as vault
            // halos, at cube granularity).
            let need = input_rect_for(
                Rect {
                    y0: oy0,
                    y1: oy1,
                    x0: 0,
                    x1: out_shape.width,
                },
                kernel,
                stride,
                in_shape,
            );
            // Rows beyond the band's own share of the input travel over
            // the links from the neighbouring cubes' bands.
            let (own_in0, own_in1) = self.band(in_shape.height, b);
            let foreign_rows = own_in0.saturating_sub(need.y0) + need.y1.saturating_sub(own_in1);
            let halo_bytes = (foreign_rows * in_shape.width * in_shape.channels * 2) as u64;

            // Build and run the band as a single-layer network.
            let band_in = Shape::new(in_shape.channels, need.y1 - need.y0, in_shape.width);
            let band_spec = NetworkSpec::new(band_in, vec![*layer])
                .expect("band geometry follows from the full layer");
            let mut slice = Tensor::zeros(band_in.channels, band_in.height, band_in.width);
            for c in 0..band_in.channels {
                for y in 0..band_in.height {
                    for x in 0..band_in.width {
                        slice.set(c, y, x, cur.get(c, need.y0 + y, x));
                    }
                }
            }
            let mut cube = Neurocube::new(self.cfg.clone());
            let loaded = cube.load(band_spec, vec![weights.to_vec()]);
            let (band_out, band_report) = cube.run_inference(&loaded, &slice);
            (band_out, band_report, halo_bytes)
        });

        // Serial merge in band order keeps the combined result identical
        // to a serial (or single-cube) run.
        let mut out = Tensor::zeros(out_shape.channels, out_shape.height, out_shape.width);
        let mut per_cube = Vec::with_capacity(self.cubes);
        let mut halo_bytes = 0u64;
        for (b, (band_out, band_report, band_halo)) in bands.into_iter().enumerate() {
            let (oy0, oy1) = self.band(out_shape.height, b);
            halo_bytes += band_halo;
            for c in 0..out_shape.channels {
                for y in oy0..oy1 {
                    for x in 0..out_shape.width {
                        out.set(c, y, x, band_out.get(c, y - oy0, x));
                    }
                }
            }
            per_cube.push(band_report.layers.into_iter().next().expect("one layer"));
        }
        let link_cycles = if self.cubes > 1 {
            self.link.transfer_cycles(halo_bytes)
        } else {
            0
        };
        Ok((
            out,
            MultiLayerReport {
                layer_index: index,
                kind: layer.kind_name(),
                per_cube,
                link_cycles,
            },
        ))
    }

    fn run_fc_layer(
        &self,
        index: usize,
        layer: &LayerSpec,
        in_shape: Shape,
        out_shape: Shape,
        weights: &[Q88],
        cur: &Tensor,
    ) -> Result<(Tensor, MultiLayerReport), CompileError> {
        let n_in = in_shape.len();
        let n_out = out_shape.len();
        // Validate every slice before dispatch (see run_spatial_layer).
        for b in 0..self.cubes {
            let (o0, o1) = self.band(n_out, b);
            if o1 <= o0 {
                return Err(CompileError::EmptyBand {
                    cube: b,
                    layer: index,
                });
            }
        }
        // Each cube computes a slice of the output neurons over the full
        // input vector, which must first be all-gathered across cubes.
        let slices = BatchRunner::new().run(self.cubes, |b| {
            let (o0, o1) = self.band(n_out, b);
            let slice_spec = NetworkSpec::new(
                Shape::flat(n_in),
                vec![LayerSpec::FullyConnected {
                    outputs: o1 - o0,
                    activation: layer.activation(),
                }],
            )
            .expect("slice geometry is valid");
            let w = weights[o0 * n_in..o1 * n_in].to_vec();
            let mut cube = Neurocube::new(self.cfg.clone());
            let loaded = cube.load(slice_spec, vec![w]);
            let flat_in = Tensor::from_flat(cur.as_slice().to_vec());
            cube.run_inference(&loaded, &flat_in)
        });
        let mut out_values = vec![Q88::ZERO; n_out];
        let mut per_cube = Vec::with_capacity(self.cubes);
        for (b, (slice_out, slice_report)) in slices.into_iter().enumerate() {
            let (o0, o1) = self.band(n_out, b);
            out_values[o0..o1].copy_from_slice(slice_out.as_slice());
            per_cube.push(slice_report.layers.into_iter().next().expect("one layer"));
        }
        // All-gather: every cube must receive the input rows it does not
        // hold — (cubes − 1)/cubes of the vector, per cube, ring-style.
        let gather_bytes = if self.cubes > 1 {
            (n_in * 2) as u64 * (self.cubes as u64 - 1)
        } else {
            0
        };
        Ok((
            Tensor::from_flat(out_values),
            MultiLayerReport {
                layer_index: index,
                kind: layer.kind_name(),
                per_cube,
                link_cycles: self.link.transfer_cycles(gather_bytes),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurocube_fixed::Activation;
    use neurocube_nn::Executor;

    fn workload() -> (NetworkSpec, Vec<Vec<Q88>>, Tensor) {
        let spec = NetworkSpec::new(
            Shape::new(1, 26, 20),
            vec![
                LayerSpec::conv(4, 3, Activation::Tanh),
                LayerSpec::AvgPool { size: 2 },
                LayerSpec::fc(8, Activation::Sigmoid),
            ],
        )
        .unwrap();
        let params = spec.init_params(3, 0.25);
        let s = spec.input_shape();
        let input = Tensor::from_vec(
            s.channels,
            s.height,
            s.width,
            (0..s.len())
                .map(|i| Q88::from_bits(((i * 97) % 500) as i16))
                .collect(),
        );
        (spec, params, input)
    }

    #[test]
    fn multicube_output_is_bit_exact() {
        let (spec, params, input) = workload();
        let reference = Executor::new(spec.clone(), params.clone()).predict(&input);
        for cubes in [1, 2, 4] {
            let cluster = MultiCube::new(SystemConfig::paper(true), cubes, LinkModel::hmc_ext());
            let (out, report) = cluster.run_inference(&spec, &params, &input);
            assert_eq!(out, reference, "{cubes}-cube output differs");
            assert_eq!(report.cubes, cubes);
            assert_eq!(report.layers.len(), spec.depth());
        }
    }

    #[test]
    fn more_cubes_cut_critical_path() {
        // Large enough that band compute dominates pipeline fill and the
        // per-layer link latency (tiny workloads do not scale — measured
        // honestly by the scaling harness).
        let spec = NetworkSpec::new(
            Shape::new(1, 64, 64),
            vec![LayerSpec::conv(16, 5, Activation::Tanh)],
        )
        .unwrap();
        let params = spec.init_params(5, 0.25);
        let input = Tensor::zeros(1, 64, 64);
        let one = MultiCube::new(SystemConfig::paper(true), 1, LinkModel::hmc_ext());
        let (_, r1) = one.run_inference(&spec, &params, &input);
        let two = MultiCube::new(SystemConfig::paper(true), 2, LinkModel::hmc_ext());
        let (_, r2) = two.run_inference(&spec, &params, &input);
        assert!(
            r2.total_cycles() < r1.total_cycles(),
            "2 cubes {} vs 1 cube {}",
            r2.total_cycles(),
            r1.total_cycles()
        );
        assert_eq!(r1.link_cycles(), 0, "a single cube never uses links");
        assert!(r2.link_cycles() > 0, "banding must exchange halos");
        let eff = r2.scaling_efficiency(r1.total_cycles());
        assert!(eff > 0.4 && eff <= 1.2, "efficiency {eff}");
    }

    #[test]
    fn link_model_transfer_times() {
        let link = LinkModel::hmc_ext();
        assert_eq!(link.transfer_cycles(0), 0);
        // 40 GB at 40 GB/s = 1 s = 5e9 cycles (+latency).
        let c = link.transfer_cycles(40_000_000_000);
        assert!((c as f64 - 5.0e9).abs() < 1e6);
        // Latency floor.
        assert!(link.transfer_cycles(2) >= 500);
    }

    #[test]
    #[should_panic(expected = "empty band")]
    fn too_many_cubes_rejected() {
        let (spec, params, input) = workload();
        // Pool output has 12 rows; 16 cubes cannot all get a row of conv
        // output at 24 rows? 24 rows / 16 cubes is fine, but the pooled
        // 12 rows over 16 cubes is not.
        let cluster = MultiCube::new(SystemConfig::paper(true), 16, LinkModel::hmc_ext());
        let _ = cluster.run_inference(&spec, &params, &input);
    }

    #[test]
    fn empty_band_is_a_typed_error_naming_the_cube_and_layer() {
        let (spec, params, input) = workload();
        let cluster = MultiCube::new(SystemConfig::paper(true), 16, LinkModel::hmc_ext());
        let err = cluster
            .try_run_inference(&spec, &params, &input)
            .unwrap_err();
        // The pool layer (index 1) has 12 output rows, so 16 cubes cannot
        // all receive one; the first empty band is found deterministically
        // before any dispatch.
        match err {
            CompileError::EmptyBand { cube, layer } => {
                assert_eq!(layer, 1, "the 12-row pool layer is the one that thins out");
                assert!(cube < 16);
            }
            other => panic!("expected EmptyBand, got {other}"),
        }
    }

    #[test]
    fn zero_cubes_is_a_typed_error() {
        assert_eq!(
            MultiCube::try_new(SystemConfig::paper(true), 0, LinkModel::hmc_ext()).unwrap_err(),
            CompileError::EmptyPool
        );
        assert_eq!(
            MultiCube::try_new(SystemConfig::paper(true), 2, LinkModel::hmc_ext())
                .unwrap()
                .cubes(),
            2
        );
    }
}
