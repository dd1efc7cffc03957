//! Developer profiling driver: drains all 16 vault operand streams of one
//! layer standalone, isolating the PNG address-generation FSM from the
//! rest of the simulator. Usage:
//!
//! ```sh
//! cargo run --release -p neurocube-bench --example profile_stream [dup]
//! ```

use neurocube::SystemConfig;
use neurocube_fixed::Activation;
use neurocube_nn::{LayerSpec, NetworkSpec, Shape};
use neurocube_png::compile_graph;
use neurocube_png::schedule::OperandStream;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let dup = std::env::args().nth(1).as_deref() == Some("dup");
    let net = NetworkSpec::new(
        Shape::new(1, 128, 128),
        vec![LayerSpec::conv(16, 7, Activation::Tanh)],
    )
    .unwrap();
    let cfg = SystemConfig::paper(dup);
    let compiled = compile_graph(&net.to_graph(), cfg.mapping(), &cfg.memory.address_map())
        .expect("the layer fits");
    let prog = Arc::clone(&compiled.phases[0]);
    let t0 = Instant::now();
    let mut total = 0u64;
    for v in 0..16u8 {
        let mut s = OperandStream::new(Arc::clone(&prog), v);
        while s.next().is_some() {
            total += 1;
        }
    }
    eprintln!(
        "dup={dup}: {total} operands across 16 streams in {:.2}s",
        t0.elapsed().as_secs_f64()
    );
}
