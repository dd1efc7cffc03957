//! Serving demo: multi-tenant inference over a pool of Neurocubes with
//! dynamic batching, model-affinity placement and deadline-aware
//! load shedding.
//!
//! ```sh
//! cargo run --release -p neurocube-serve --example serve_demo
//! ```
//!
//! The trace seed, arrival profile and pool size are plain values in
//! step 2 of `main`; edit them to explore other loads.

use neurocube::SystemConfig;
use neurocube_nn::workloads;
use neurocube_serve::{
    execute, generate, serve, ExecMode, LoadProfile, ModelCatalog, ServeConfig, TrafficSpec,
};

fn main() {
    // 1. Register the tenants' models: profiling one inference each
    //    captures exact service times (timing is input-independent).
    let mut catalog = ModelCatalog::new(SystemConfig::paper(true));
    catalog.register("mnist-mlp", workloads::mnist_mlp(128), 42);
    catalog.register("tiny-conv", workloads::tiny_convnet(), 43);
    for e in catalog.entries() {
        println!(
            "model {:<10} service {:>8} cycles  reprogram {:>6} cycles",
            e.name, e.service_cycles, e.reprogram_cycles
        );
    }

    // 2. Generate a deterministic open-loop trace around the pool's
    //    saturation rate: same seed, same trace, bit for bit.
    let seed = 7;
    let profile = LoadProfile::Bursty;
    let cfg = ServeConfig::new(4);
    let avg_service =
        catalog.entries().map(|e| e.service_cycles).sum::<u64>() as f64 / catalog.len() as f64;
    let mean_gap = avg_service / cfg.pool as f64 * 1.1;
    let spec = TrafficSpec {
        profile,
        ..TrafficSpec::poisson(
            seed,
            mean_gap,
            400,
            vec![("mnist-mlp".to_string(), 3), ("tiny-conv".to_string(), 1)],
        )
    };
    let trace = generate(&catalog, &spec);
    println!(
        "\ntrace: {} requests, {profile:?} arrivals, mean gap {mean_gap:.0} cycles, seed {seed}",
        trace.len()
    );
    println!(
        "pool: {} cubes, max batch {}, batching window {} cycles\n",
        cfg.pool, cfg.max_batch, cfg.max_delay
    );

    // 3. Schedule in virtual time and print the summary the registry
    //    exports (p50/p90/p99 latency, batch sizes, shed rate, ...).
    let report = serve(&catalog, &cfg, &trace);
    let window = (report.makespan / 8).max(1);
    println!("timeline (completions per {window}-cycle window):");
    let mut completions = [0u64; 8];
    for rec in &report.records {
        let w = ((rec.completes_at - 1) / window).min(7) as usize;
        completions[w] += rec.requests.len() as u64;
    }
    for (w, c) in completions.iter().enumerate() {
        let bar: String = "#".repeat((*c as usize).min(60));
        println!("  [{w}] {bar} {c}");
    }
    println!();
    print!("{}", report.stats.dump());

    let lat = report.latency();
    println!(
        "\ncompleted {} of {} offered; latency p50 {} p90 {} p99 {} cycles; \
         affinity hit rate {:.0}%; shed rate {:.1}%",
        report.completed(),
        report.stats.counter("serve.requests.offered"),
        lat.percentile(0.50).unwrap_or(0),
        lat.percentile(0.90).unwrap_or(0),
        lat.percentile(0.99).unwrap_or(0),
        report.stats.gauge("serve.rate.affinity_hit") * 100.0,
        report.stats.gauge("serve.rate.shed") * 100.0,
    );

    // 4. Replay the schedule on real cubes — serial and threaded runs
    //    must export identical registries (the determinism contract).
    let serial = execute(&catalog, &trace, &report.records, ExecMode::Serial);
    let batched = execute(&catalog, &trace, &report.records, ExecMode::Batched);
    assert_eq!(
        serial.first_difference(&batched),
        None,
        "serial and threaded execution must agree bitwise"
    );
    println!(
        "\nexecuted {} requests in {} batches on real cubes; serial and \
         BatchRunner replays agree bitwise (checksum {:#018x})",
        serial.counter("serve.exec.requests"),
        serial.counter("serve.exec.batches"),
        serial.counter("serve.exec.output_checksum"),
    );
}
