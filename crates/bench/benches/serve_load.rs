//! Serving-layer load benchmark: offered load vs goodput, latency
//! percentiles, affinity hit rate and shed rate across the knee.
//!
//! Two tenant mixes — the MNIST MLP pair and the Fig. 14 conv shapes —
//! are swept from deep underload (0.25× the pool's saturation rate) to
//! 2× saturation. Every sweep number is *virtual-time*: the scheduler
//! plans in simulated cycles, so the printed table is identical on every
//! rerun of the same build (no wall-clock, no timestamps). Before
//! reporting, the harness replays a small slice of each mix's schedule
//! on real cubes twice — serially and on `BatchRunner` threads — and
//! asserts the merged `serve.exec.*` registries agree bitwise, so the
//! numbers always describe a schedule real hardware-model execution
//! reproduces.
//!
//! Built-in sanity gates: the underload point must complete requests
//! with a finite p99 and shed nothing; the 2× point must shed (graceful
//! overload degradation).

use neurocube::SystemConfig;
use neurocube_bench::header;
use neurocube_fixed::Activation;
use neurocube_nn::{workloads, LayerSpec, NetworkSpec, Shape};
use neurocube_serve::{
    execute, generate, serve_mode, ExecMode, ModelCatalog, ServeConfig, TrafficSpec,
};

struct Mix {
    name: &'static str,
    catalog: ModelCatalog,
    mix: Vec<(String, u32)>,
}

fn conv_net(input: usize, maps: usize, kernel: usize) -> NetworkSpec {
    NetworkSpec::new(
        Shape::new(1, input, input),
        vec![LayerSpec::conv(maps, kernel, Activation::Tanh)],
    )
    .expect("geometry fits")
}

/// The two tenant mixes: MNIST MLPs at two widths, and the Fig. 14 conv
/// sweep's kernel end points (input scaled down so the real-execution
/// verification slice stays in benchmark-friendly wall time — the sweep
/// itself is virtual either way).
fn mixes() -> Vec<Mix> {
    let mut mlp = ModelCatalog::new(SystemConfig::paper(true));
    mlp.register("mnist_mlp_32", workloads::mnist_mlp(32), 41);
    mlp.register("mnist_mlp_128", workloads::mnist_mlp(128), 42);
    let mut conv = ModelCatalog::new(SystemConfig::paper(true));
    conv.register("fig14_conv_k3", conv_net(32, 8, 3), 43);
    conv.register("fig14_conv_k7", conv_net(32, 8, 7), 44);
    vec![
        Mix {
            name: "mnist_mlp",
            catalog: mlp,
            mix: vec![
                ("mnist_mlp_32".to_string(), 3),
                ("mnist_mlp_128".to_string(), 1),
            ],
        },
        Mix {
            name: "fig14_conv",
            catalog: conv,
            mix: vec![
                ("fig14_conv_k3".to_string(), 1),
                ("fig14_conv_k7".to_string(), 1),
            ],
        },
    ]
}

/// Offered-load factors relative to the pool's saturation rate.
const LOAD_FACTORS: [f64; 5] = [0.25, 0.5, 1.0, 1.5, 2.0];
const REQUESTS_PER_POINT: u64 = 600;
const POOL: usize = 4;

struct Row {
    factor: f64,
    mean_gap: u64,
    offered: u64,
    completed: u64,
    shed: u64,
    rejected: u64,
    p50: u64,
    p90: u64,
    p99: u64,
    mean_batch: f64,
    affinity_hit_rate: f64,
    shed_rate: f64,
    offered_per_mcycle: f64,
    goodput_per_mcycle: f64,
    makespan: u64,
}

fn main() {
    header(
        "Serving load",
        "offered load vs goodput across the saturation knee (virtual time, deterministic)",
    );
    let mut rows: Vec<Row> = Vec::new();
    for m in &mixes() {
        let avg_service = m.catalog.entries().map(|e| e.service_cycles).sum::<u64>() as f64
            / m.catalog.len() as f64;
        let cfg = ServeConfig {
            pool: POOL,
            max_batch: 8,
            max_delay: avg_service as u64,
            queue_cap: 64,
        };
        // Saturation: the pool serves one request every avg_service/POOL
        // cycles once queues never run dry (reprogramming amortized away
        // by affinity). `factor` scales the offered rate against that.
        let sat_gap = avg_service / POOL as f64;

        println!(
            "\nmix {}: avg service {:.0} cycles, pool {}, batching window {} cycles, \
             {} requests per point",
            m.name, avg_service, POOL, cfg.max_delay, REQUESTS_PER_POINT
        );
        println!(
            "{:>6} {:>6} {:>7} {:>6} {:>5} {:>5} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} \
             {:>10} {:>10} {:>9}",
            "load",
            "gap",
            "offered",
            "done",
            "shed",
            "rej",
            "shed r",
            "p50",
            "p90",
            "p99",
            "batch",
            "affin",
            "offered/Mc",
            "goodput/Mc",
            "makespan"
        );
        for (pt, &factor) in LOAD_FACTORS.iter().enumerate() {
            let mean_gap = sat_gap / factor;
            let spec = TrafficSpec::poisson(
                0x5e1_0000 + pt as u64,
                mean_gap,
                REQUESTS_PER_POINT,
                m.mix.clone(),
            );
            let trace = generate(&m.catalog, &spec);
            let report = serve_mode(&m.catalog, &cfg, &trace, Some(true));
            if pt == 0 {
                // One naive-loop cross-check per mix: fast-forward must
                // not change the schedule the sweep reports.
                let naive = serve_mode(&m.catalog, &cfg, &trace, Some(false));
                assert_eq!(
                    report.stats.first_difference(&naive.stats),
                    None,
                    "{}: fast-forward scheduling diverged from the naive loop",
                    m.name
                );
            }
            let lat = report.latency();
            let makespan = report.makespan.max(1);
            let row = Row {
                factor,
                mean_gap: mean_gap as u64,
                offered: report.stats.counter("serve.requests.offered"),
                completed: report.completed(),
                shed: report.shed(),
                rejected: report.rejected(),
                p50: lat.percentile(0.50).unwrap_or(0),
                p90: lat.percentile(0.90).unwrap_or(0),
                p99: lat.percentile(0.99).unwrap_or(0),
                mean_batch: report
                    .stats
                    .histogram("serve.batch_size")
                    .and_then(|h| h.mean())
                    .unwrap_or(0.0),
                affinity_hit_rate: report.stats.gauge("serve.rate.affinity_hit"),
                shed_rate: report.stats.gauge("serve.rate.shed"),
                offered_per_mcycle: report.stats.counter("serve.requests.offered") as f64 * 1e6
                    / makespan as f64,
                goodput_per_mcycle: report.completed() as f64 * 1e6 / makespan as f64,
                makespan: report.makespan,
            };
            println!(
                "{:>5.2}x {:>6} {:>7} {:>6} {:>5} {:>5} {:>7.4} {:>7} {:>7} {:>7} {:>7.4} {:>7.4} \
                 {:>10.4} {:>10.4} {:>9}",
                row.factor,
                row.mean_gap,
                row.offered,
                row.completed,
                row.shed,
                row.rejected,
                row.shed_rate,
                row.p50,
                row.p90,
                row.p99,
                row.mean_batch,
                row.affinity_hit_rate,
                row.offered_per_mcycle,
                row.goodput_per_mcycle,
                row.makespan,
            );
            rows.push(row);
        }

        // Sanity gates — deterministic, so always on.
        let under = &rows[rows.len() - LOAD_FACTORS.len()];
        assert!(
            under.completed > 0 && under.p99 > 0,
            "{}: underload must complete requests with a finite p99",
            m.name
        );
        assert_eq!(
            under.shed, 0,
            "{}: a pool 4x over-provisioned for the load must not shed",
            m.name
        );
        let over = rows.last().expect("rows pushed");
        assert!(
            over.shed > 0,
            "{}: 2x saturation must shed (graceful overload degradation)",
            m.name
        );
        assert!(
            over.goodput_per_mcycle <= over.offered_per_mcycle,
            "{}: goodput cannot exceed offered load",
            m.name
        );

        // Real-execution verification slice: a short underload trace's
        // schedule replayed on real cubes, serially and threaded — the
        // registries must agree bitwise before this mix's numbers stand.
        let verify_spec = TrafficSpec::poisson(0xbead, sat_gap * 3.0, 10, m.mix.clone());
        let verify_trace = generate(&m.catalog, &verify_spec);
        let verify = serve_mode(&m.catalog, &cfg, &verify_trace, Some(true));
        let serial = execute(&m.catalog, &verify_trace, &verify.records, ExecMode::Serial);
        let threaded = execute(
            &m.catalog,
            &verify_trace,
            &verify.records,
            ExecMode::Batched,
        );
        assert_eq!(
            serial.first_difference(&threaded),
            None,
            "{}: serial and BatchRunner execution registries diverged",
            m.name
        );
        assert_eq!(
            serial.counter("serve.exec.requests"),
            verify.completed(),
            "{}: executor and schedule disagree on request count",
            m.name
        );
        println!(
            "(verified: {} real inferences replay bitwise-identically serial vs threaded)",
            serial.counter("serve.exec.requests")
        );
    }

    println!(
        "\nreading: goodput tracks offered load until the knee at 1.0x, then\n\
         flattens at pool capacity while the shed rate absorbs the excess;\n\
         affinity keeps reprogramming off the critical path, so batch sizes\n\
         grow with pressure instead of service times."
    );
}
