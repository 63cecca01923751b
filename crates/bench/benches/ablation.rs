//! Ablations of the design choices DESIGN.md calls out.
//!
//! Wall-clock ablation: rayon fan-out on/off (simulation throughput).
//! Model ablations (CM-5 contention factor rho, GCel drift threshold,
//! sample-sort oversampling) change *simulated* time, not wall time, so
//! they are reported once to stderr alongside the wall benchmarks.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pcm_algos::sort::sample::{self, SampleVariant};
use pcm_core::rng::seeded;
use pcm_machines::{Cm5Costs, Cm5Network, GcelCosts, GcelNetwork, Platform};
use pcm_sim::{with_sequential, Machine, MsgKind, NetworkModel, SendRecord, UniformCompute};

const SEED: u64 = 31;

/// Rayon fan-out ablation: the same superstep workload executed with the
/// parallel and the sequential processor loop.
fn bench_rayon(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_rayon");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));

    // A raw machine with a compute-heavy superstep, built inside or
    // outside the sequential scope.
    for parallel in [true, false] {
        let label = if parallel { "parallel" } else { "sequential" };
        g.bench_with_input(
            BenchmarkId::new("busy_superstep_p64", label),
            &parallel,
            |b, &parallel| {
                let build = || {
                    Machine::new(
                        Box::new(pcm_sim::IdealNetwork),
                        Arc::new(UniformCompute::test_model()),
                        vec![vec![0.0f64; 64 * 64]; 64],
                        1,
                    )
                };
                let mut m = if parallel {
                    build()
                } else {
                    with_sequential(build)
                };
                m.set_tracing(false);
                b.iter(|| {
                    m.superstep(|ctx| {
                        // A small dense kernel per processor.
                        let v = &mut ctx.state;
                        let mut acc = 0.0;
                        for i in 0..v.len() {
                            acc += (i as f64).sqrt();
                        }
                        v[0] = acc;
                        ctx.charge(1.0);
                    })
                });
            },
        );
    }
    g.finish();
}

/// Reports simulated-time ablations to stderr (rho sweep, drift threshold,
/// oversampling) — these are model-shape studies, not wall-clock ones.
fn report_model_ablations() {
    eprintln!("\n-- model ablations (simulated microseconds) --");

    // CM-5 contention factor rho: price of the unstaggered one-hot round.
    for rho in [0.0, 0.05, 0.117, 0.25, 0.5] {
        let mut net = Cm5Network::with_costs(
            64,
            Cm5Costs {
                rho,
                ..Cm5Costs::default()
            },
        );
        let sends: Vec<Vec<SendRecord>> = (0..4)
            .map(|_| {
                vec![SendRecord {
                    dst: 8,
                    words: 100,
                    bytes: 800,
                    kind: MsgKind::Words,
                }]
            })
            .chain((4..64).map(|_| Vec::new()))
            .collect();
        let t = net.route(&pcm_sim::CommPattern { p: 64, sends }, &mut seeded(SEED));
        eprintln!("  cm5 rho={rho:>5}: 4-into-1 round = {t}");
    }

    // GCel drift threshold: per-message cost of a 1200-message stream.
    for threshold in [100usize, 300, 600, 1200] {
        let mut net = GcelNetwork::with_costs(
            64,
            GcelCosts {
                drift_threshold: threshold,
                ..GcelCosts::default()
            },
        );
        let sends: Vec<Vec<SendRecord>> = (0..64)
            .map(|i| {
                vec![SendRecord {
                    dst: (i + 1) % 64,
                    words: 1200,
                    bytes: 4800,
                    kind: MsgKind::Words,
                }]
            })
            .collect();
        let t = net.route(&pcm_sim::CommPattern { p: 64, sends }, &mut seeded(SEED));
        eprintln!("  gcel drift_threshold={threshold:>5}: 1200-message stream = {t}");
    }

    // Oversampling S: bucket expansion vs splitter-phase cost.
    for s in [4usize, 16, 64, 256] {
        let r = sample::run(
            &Platform::gcel(),
            512,
            s,
            SampleVariant::BpramStaggered,
            SEED,
        );
        assert!(r.verified);
        eprintln!(
            "  sample sort S={s:>4}: max bucket {} / 512, total {}",
            r.stats.max_bucket, r.time
        );
    }
}

fn bench_ablation(c: &mut Criterion) {
    report_model_ablations();
    bench_rayon(c);
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
