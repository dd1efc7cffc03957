//! Quickstart: load a small network into the Neurocube, run one inference
//! cycle-accurately, and check the result against the functional reference.
//!
//! ```sh
//! cargo run --release -p neurocube --example quickstart
//! ```

use neurocube::{Neurocube, SystemConfig};
use neurocube_fixed::{Activation, Q88};
use neurocube_nn::{Executor, LayerSpec, NetworkSpec, Shape, Tensor};

fn main() {
    // 1. Describe a network, exactly as the host would: a 16x16 image,
    //    one conv layer, average pooling, a small classifier.
    let spec = NetworkSpec::new(
        Shape::new(1, 16, 16),
        vec![
            LayerSpec::conv(4, 3, Activation::ReLU),
            LayerSpec::AvgPool { size: 2 },
            LayerSpec::fc(10, Activation::Sigmoid),
        ],
    )
    .expect("valid geometry");
    let params = spec.init_params(42, 0.25);
    println!("network:\n{spec}");

    // 2. Build the paper's design point: 16-vault HMC, 4x4 mesh NoC,
    //    16 MACs per PE, input duplication on.
    let mut cube = Neurocube::new(SystemConfig::paper(true));
    let loaded = cube.load(spec.clone(), params.clone());

    // 3. Make an input and run it through the cube, cycle by cycle.
    let input = Tensor::from_vec(
        1,
        16,
        16,
        (0..256)
            .map(|i| Q88::from_f64(((i % 16) as f64 - 8.0) / 8.0))
            .collect(),
    );
    let (output, report) = cube.run_inference(&loaded, &input);

    // 4. The timing simulator is value-accurate: its output is
    //    bit-identical to the functional fixed-point executor.
    let reference = Executor::new(spec, params).predict(&input);
    assert_eq!(output, reference, "simulator must match the reference");
    println!("cycle-accurate output matches the functional reference bit-for-bit");
    println!("predicted class: {}", output.argmax());

    // 5. Performance statistics, per layer and total.
    println!("\n{report}");
    println!(
        "at the 15nm/5GHz design point this run takes {:.2} µs ({:.0} inferences/s)",
        report.seconds_at(5.0e9) * 1e6,
        report.frames_per_second_at(5.0e9)
    );
    println!(
        "\nnext: `cargo run --release -p neurocube-serve --example serve_demo` serves a\n\
         multi-tenant request stream over a pool of cubes — dynamic batching,\n\
         model-affinity placement, and deadline-aware load shedding."
    );
}
