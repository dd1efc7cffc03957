//! The lane-kernel half of the cube == `Executor` contract: the PE's one
//! fire path accumulates through `neurocube_fixed`'s batch lane kernels,
//! while the functional executor accumulates through the scalar
//! [`MacUnit`]. Here the kernels are driven against [`MacUnit`]
//! step-for-step across the saturation and rounding boundaries pinned by
//! `q88_boundary.rs` (representable midpoints, `>> 8` truncation
//! direction, both clamp edges), the `..active` lane masking the PE relies
//! on is checked to leave parked lanes untouched, and zero-operand lanes —
//! the ones `pe.lanes_gated` counts — are checked to leave every
//! accumulator bit alone. A density ladder checks that the `sparsity.*`
//! counters observe without moving the paper's timing. The system-level
//! half is `bit_exactness.rs`.

use neurocube::{Neurocube, RunReport, SystemConfig};
use neurocube_fixed::{
    accumulate_narrow_lanes, accumulate_wide_lanes, wide_result_bits, AccumulatorWidth, Activation,
    MacUnit, Q88,
};
use neurocube_nn::{LayerSpec, NetworkSpec, Shape, Tensor};
use neurocube_sim::StatsRegistry;
use proptest::prelude::*;

/// One inference of `net` with the given parameters and input on a fresh
/// paper cube (with duplication): its report and final registry.
fn run_sparse(
    net: &NetworkSpec,
    params: Vec<Vec<Q88>>,
    input: &Tensor,
) -> (RunReport, StatsRegistry) {
    let mut cube = Neurocube::new(SystemConfig::paper(true));
    let loaded = cube.load(net.clone(), params);
    let (_, report) = cube.run_inference(&loaded, input);
    (report, cube.stats_registry())
}

/// The always-on `sparsity.*` counters are live and only observe.
///
/// Anchor: an MLP seeded with real zeros (every third weight, every other
/// input pixel) classifies gated lanes, and not every lane.
///
/// Ladder: one 1x64x64 ReLU conv layer (8 maps, k=3) at operand density
/// 1/keep for keep in {1, 2, 4, 8, 16}, both inputs and weights thinned.
/// Cycles and MAC ops do not move with density; gated lanes and zero
/// DRAM reads never fall as density drops, and do grow over the ladder.
#[test]
fn sparsity_classification_is_not_vacuous() {
    let net = neurocube_nn::workloads::mnist_mlp(64);
    let mut params = net.init_params(11, 0.25);
    for layer in &mut params {
        for w in layer.iter_mut().step_by(3) {
            *w = Q88::ZERO;
        }
    }
    let s = net.input_shape();
    let data = (0..s.len())
        .map(|i| {
            if i % 2 == 0 {
                Q88::ZERO
            } else {
                Q88::from_f64(((i % 64) as f64 - 32.0) / 32.0)
            }
        })
        .collect();
    let input = Tensor::from_vec(s.channels, s.height, s.width, data);
    let (_, stats) = run_sparse(&net, params, &input);
    let gated = stats.counter("sparsity.pe.lanes_gated");
    assert!(gated > 0, "zeroed weights/input fired no gated lanes");
    let mac_ops = stats.sum_suffix(".mac_ops");
    assert!(
        gated < mac_ops,
        "every MAC lane gated — the workload degenerated to all-zero"
    );

    let net = NetworkSpec::new(
        Shape::new(1, 64, 64),
        vec![LayerSpec::conv(8, 3, Activation::ReLU)],
    )
    .expect("geometry fits");
    let s = net.input_shape();
    // (keep, cycles, MAC ops, gated lanes, zero DRAM words read)
    let ladder: Vec<(usize, u64, u64, u64, u64)> = [1, 2, 4, 8, 16]
        .into_iter()
        .map(|keep| {
            // One nonzero operand per `keep`; the input ramp skips 0.
            let data = (0..s.len())
                .map(|i| {
                    if i % keep == 0 {
                        Q88::from_f64(((i % 63) as f64 + 1.0) / 64.0)
                    } else {
                        Q88::ZERO
                    }
                })
                .collect();
            let input = Tensor::from_vec(s.channels, s.height, s.width, data);
            let mut params = net.init_params(9, 0.25);
            for layer in &mut params {
                for (i, w) in layer.iter_mut().enumerate() {
                    if i % keep != 0 {
                        *w = Q88::ZERO;
                    }
                }
            }
            let (report, stats) = run_sparse(&net, params, &input);
            (
                keep,
                report.total_cycles(),
                stats.sum_suffix(".mac_ops"),
                stats.counter("sparsity.pe.lanes_gated"),
                stats.counter("sparsity.dram.zero_words_read"),
            )
        })
        .collect();
    for w in ladder.windows(2) {
        let ((ka, ca, ma, ga, za), (kb, cb, mb, gb, zb)) = (w[0], w[1]);
        assert!(
            (cb, mb) == (ca, ma),
            "operand density moved the timing: {ca} cycles / {ma} MACs (1/{ka}) -> {cb} / {mb} (1/{kb})"
        );
        assert!(
            gb >= ga && zb >= za,
            "gated lanes / zero DRAM reads fell as density dropped: {ga} / {za} (1/{ka}) -> {gb} / {zb} (1/{kb})"
        );
    }
    let (_, _, _, gated_first, zeros_first) = ladder[0];
    let (keep, _, macs, gated_last, zeros_last) = ladder[ladder.len() - 1];
    assert!(
        gated_last > gated_first && zeros_last > zeros_first,
        "the ladder never classified any sparsity: {ladder:?}"
    );
    assert!(
        gated_last < macs,
        "every MAC lane gated at 1/{keep}: {ladder:?}"
    );
}

// ---------------------------------------------------------------------------
// Kernel-level boundary pinning: lane kernels vs MacUnit, step for step.
// ---------------------------------------------------------------------------

/// Raw `Q1.7.8` operands biased hard toward the boundaries the scalar
/// unit's clamps and shifts act on: both clamp edges, the values around
/// one LSB and one integer unit, and the representable midpoints pinned by
/// `q88_boundary.rs` (`k + 0.5` LSB inputs quantize to `k`/`k+1`, so raw
/// patterns adjacent to every `k` boundary appear here via `k ± 1`).
fn boundary_operand() -> impl Strategy<Value = i16> {
    const EDGES: [i16; 19] = [
        i16::MAX,
        i16::MIN,
        i16::MAX - 1,
        i16::MIN + 1,
        0,
        1,
        -1,
        127,
        -127,
        128,
        -128,
        129,
        -129,
        255,
        256,
        257,
        -255,
        -256,
        -257,
    ];
    // Three in four draws land on an edge value; the rest are raw i16s.
    (any::<i16>(), any::<u8>()).prop_map(|(raw, pick)| {
        if pick < 192 {
            EDGES[usize::from(pick) % EDGES.len()]
        } else {
            raw
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `accumulate_wide_lanes` matches `MacUnit::accumulate` (Wide32) bit
    /// for bit after *every* step of a boundary-biased operand sequence —
    /// including deep in the i32 clamp and back out of it.
    #[test]
    fn wide_lanes_match_mac_unit_at_boundaries(
        pairs in proptest::collection::vec((boundary_operand(), boundary_operand()), 1..200)
    ) {
        let mut mac = MacUnit::new(AccumulatorWidth::Wide32);
        let mut acc = [0i32; 1];
        for (step, &(w, x)) in pairs.iter().enumerate() {
            mac.accumulate(Q88::from_bits(w), Q88::from_bits(x));
            accumulate_wide_lanes(&mut acc, &[w], &[x]);
            prop_assert_eq!(
                mac.result().to_bits(), wide_result_bits(acc[0]),
                "wide lane diverged from MacUnit at step {} on ({}, {})", step, w, x
            );
        }
    }

    /// `accumulate_narrow_lanes` matches `MacUnit::accumulate` (Narrow16)
    /// bit for bit — the per-step renormalization (`>> 8` toward -inf,
    /// saturate) and the 16-bit saturating add both pinned.
    #[test]
    fn narrow_lanes_match_mac_unit_at_boundaries(
        pairs in proptest::collection::vec((boundary_operand(), boundary_operand()), 1..200)
    ) {
        let mut mac = MacUnit::new(AccumulatorWidth::Narrow16);
        let mut acc = [0i16; 1];
        for (step, &(w, x)) in pairs.iter().enumerate() {
            mac.accumulate(Q88::from_bits(w), Q88::from_bits(x));
            accumulate_narrow_lanes(&mut acc, &[w], &[x]);
            prop_assert_eq!(
                mac.result().to_bits(), acc[0],
                "narrow lane diverged from MacUnit at step {} on ({}, {})", step, w, x
            );
        }
    }

    /// Lane masking: accumulating into the `..active` prefix of a lane
    /// bank (exactly what the PE does when a layer parks trailing lanes)
    /// leaves the parked tail bitwise untouched and drives every active
    /// lane exactly as an independent scalar unit would.
    #[test]
    fn lane_masking_leaves_parked_lanes_untouched(
        weights in proptest::collection::vec(boundary_operand(), 16),
        states in proptest::collection::vec(boundary_operand(), 16),
        park in proptest::collection::vec(any::<i32>(), 16),
        active in 0usize..=16,
        steps in 1usize..8,
    ) {
        let mut acc: Vec<i32> = park.clone();
        acc[..active].fill(0);
        for _ in 0..steps {
            accumulate_wide_lanes(&mut acc[..active], &weights[..active], &states[..active]);
        }
        for lane in active..16 {
            prop_assert_eq!(
                acc[lane], park[lane],
                "parked lane {} was clobbered by a masked accumulate", lane
            );
        }
        for lane in 0..active {
            let mut mac = MacUnit::new(AccumulatorWidth::Wide32);
            for _ in 0..steps {
                mac.accumulate(Q88::from_bits(weights[lane]), Q88::from_bits(states[lane]));
            }
            prop_assert_eq!(
                mac.result().to_bits(), wide_result_bits(acc[lane]),
                "active lane {} diverged from its scalar unit", lane
            );
        }
    }

    /// Zero-weight lane purity: a lane whose weight operand is zero never
    /// perturbs any accumulator bit, no matter what its state operand
    /// holds — so counting such lanes as gated (the MACs a gated-update
    /// array would not have clocked) describes the same arithmetic, at
    /// both accumulator widths and from any starting accumulator value.
    #[test]
    fn zero_weight_lanes_never_perturb_accumulator_bits(
        weights in proptest::collection::vec(boundary_operand(), 16),
        states in proptest::collection::vec(boundary_operand(), 16),
        start in proptest::collection::vec(any::<i32>(), 16),
        zero_mask in any::<u16>(),
        steps in 1usize..6,
    ) {
        let mut w = weights.clone();
        for (m, w) in w.iter_mut().enumerate() {
            if zero_mask >> m & 1 == 1 {
                *w = 0;
            }
        }
        let mut wide: Vec<i32> = start.clone();
        let start16: Vec<i16> = start.iter().map(|&v| v as i16).collect();
        let mut narrow = start16.clone();
        for _ in 0..steps {
            accumulate_wide_lanes(&mut wide, &w, &states);
            accumulate_narrow_lanes(&mut narrow, &w, &states);
        }
        for m in (0..16).filter(|m| zero_mask >> m & 1 == 1) {
            prop_assert_eq!(
                wide[m], start[m],
                "wide: zero-weight lane {} perturbed its accumulator", m
            );
            prop_assert_eq!(
                narrow[m], start16[m],
                "narrow: zero-weight lane {} perturbed its accumulator", m
            );
        }
    }
}
