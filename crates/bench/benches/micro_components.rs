//! Criterion micro-benchmarks for the individual substrates: fixed-point
//! arithmetic, activation LUTs, NoC routing, DRAM channel streaming, PNG
//! address generation and the functional executor.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use neurocube_dram::{Channel, ChannelConfig, MemoryConfig, Request, RequestKind, Storage};
use neurocube_fixed::{Activation, ActivationLut, MacUnit, Q88};
use neurocube_nn::{workloads, Executor, Tensor};
use neurocube_noc::{Network, Packet, PacketKind, Topology};
use neurocube_png::schedule::OperandStream;
use neurocube_png::{compile_graph, Mapping};
use std::hint::black_box;
use std::sync::Arc;

fn bench_fixed(c: &mut Criterion) {
    let mut g = c.benchmark_group("fixed");
    let a = Q88::from_f64(1.217);
    let b = Q88::from_f64(-0.493);
    g.bench_function("q88_mul", |bench| {
        bench.iter(|| black_box(a) * black_box(b))
    });
    g.bench_function("mac_accumulate_64", |bench| {
        bench.iter(|| {
            let mut mac = MacUnit::new(Default::default());
            for _ in 0..64 {
                mac.accumulate(black_box(a), black_box(b));
            }
            mac.result()
        })
    });
    let lut = ActivationLut::new(Activation::Sigmoid);
    g.bench_function("lut_apply", |bench| bench.iter(|| lut.apply(black_box(a))));
    g.finish();
}

fn bench_noc(c: &mut Criterion) {
    let mut g = c.benchmark_group("noc");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("mesh_1000_packets_corner_to_corner", |bench| {
        bench.iter(|| {
            let mut net = Network::new(Topology::mesh4x4());
            let pkt = Packet {
                dst: 15,
                src: 0,
                mac_id: 0,
                op_id: 0,
                kind: PacketKind::State,
                data: 1,
            };
            let mut sent = 0u32;
            let mut recv = 0u32;
            let mut now = 0u64;
            while recv < 1000 {
                if sent < 1000 && net.try_inject_from_mem(0, pkt, now) {
                    sent += 1;
                }
                net.tick(now);
                if net.pop_for_pe(15, now).is_some() {
                    recv += 1;
                }
                now += 1;
            }
            now
        })
    });
    g.finish();
}

fn bench_dram(c: &mut Criterion) {
    let mut g = c.benchmark_group("dram");
    g.throughput(Throughput::Bytes(4 * 512));
    g.bench_function("hmc_channel_stream_512_words", |bench| {
        bench.iter(|| {
            let mut ch = Channel::new(ChannelConfig::hmc_int());
            let mut storage = Storage::new();
            let mut issued = 0u64;
            let mut done = 0u32;
            let mut now = 0u64;
            while done < 512 {
                while issued < 512
                    && ch.try_enqueue(Request {
                        addr: issued * 4,
                        tag: issued,
                        kind: RequestKind::Read,
                    })
                {
                    issued += 1;
                }
                if ch.tick(now, &mut storage).is_some() {
                    done += 1;
                }
                now += 1;
            }
            now
        })
    });
    g.finish();
}

fn bench_png(c: &mut Criterion) {
    let mut g = c.benchmark_group("png");
    let net = workloads::scene_labeling(60, 80).expect("geometry fits");
    let map = MemoryConfig::hmc_int().address_map();
    let compiled =
        compile_graph(&net.to_graph(), Mapping::paper(true), &map).expect("the network fits");
    let prog = Arc::clone(&compiled.phases[0]);
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("operand_stream_10k_events", |bench| {
        bench.iter(|| {
            let mut s = OperandStream::new(Arc::clone(&prog), 5);
            let mut n = 0u32;
            while n < 10_000 {
                if s.next().is_none() {
                    break;
                }
                n += 1;
            }
            n
        })
    });
    g.finish();
}

fn bench_functional(c: &mut Criterion) {
    let mut g = c.benchmark_group("functional");
    let spec = workloads::tiny_convnet();
    let params = spec.init_params(1, 0.25);
    let exec = Executor::new(spec, params);
    let input = Tensor::zeros(1, 12, 12);
    g.bench_function("tiny_convnet_forward", |bench| {
        bench.iter(|| exec.forward(black_box(&input)))
    });
    g.finish();
}

fn bench_cycle_sim(c: &mut Criterion) {
    use neurocube::{Neurocube, SystemConfig};
    let mut g = c.benchmark_group("cycle_sim");
    g.sample_size(10);
    g.bench_function("tiny_convnet_full_inference", |bench| {
        let spec = workloads::tiny_convnet();
        let params = spec.init_params(1, 0.25);
        let input = Tensor::zeros(1, 12, 12);
        bench.iter(|| {
            let mut cube = Neurocube::new(SystemConfig::paper(true));
            let loaded = cube.load(spec.clone(), params.clone());
            cube.run_inference(&loaded, &input)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fixed,
    bench_noc,
    bench_dram,
    bench_png,
    bench_functional,
    bench_cycle_sim
);
criterion_main!(benches);
