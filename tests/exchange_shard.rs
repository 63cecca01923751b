//! Sharded-exchange equivalence: the destination-sharded parallel
//! exchange engine must be a pure execution strategy, bit-identical to
//! the sequential delivery path for *any* shard count. These tests pin
//! that contract (with the worker pool forced to width 4 so the lane
//! fan-out really dispatches):
//!
//! * every algorithm family × machine × shard count ∈ {1, 2, 7, p}
//!   produces the same simulated time and run digest as the forced
//!   sequential reference, hands a detail-taking observer the same
//!   per-step detail, and yields the same extracted plans;
//! * a heap-payload-heavy raw machine run matches sequentially bit-for-bit
//!   across shard counts, and recycled (sender-affine) payload buffers
//!   never leak stale bytes into later supersteps;
//! * the shard-count plumbing (default heuristic, one shard on pool
//!   workers, clamped thread-local override) resolves as documented.

// Tests assert exact simulated values and cast small pids freely.
#![allow(clippy::cast_possible_truncation)]

use std::cell::RefCell;
use std::fmt::Write;
use std::rc::Rc;
use std::sync::{Arc, Once};

use pcm::algos::apsp::{self, ApspVariant};
use pcm::algos::lu::{self, LuVariant};
use pcm::algos::matmul::{self, MatmulVariant};
use pcm::algos::sort::bitonic::{self, ExchangeMode};
use pcm::algos::sort::parallel_radix::{self, RadixVariant};
use pcm::algos::sort::sample::{self, SampleVariant};
use pcm::algos::vendor;
use pcm::algos::RunResult;
use pcm::experiments::map_ordered;
use pcm::Platform;
use pcm_check::Digest;
use pcm_sim::{
    extract_plans, with_exchange_shards, with_probe, with_sequential, IdealNetwork, Machine,
    RunReport, StepObs, SuperstepProbe, UniformCompute, MAX_SHARDS,
};

const SEED: u64 = 2026;

/// Pins the pool width before the rayon shim latches it, so the lane
/// fan-out dispatches across real workers even on a single-core runner.
fn force_pool() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        if std::env::var_os("RAYON_NUM_THREADS").is_none() {
            std::env::set_var("RAYON_NUM_THREADS", "4");
        }
    });
}

/// The three simulated machines, scaled to `p` processors.
fn machines(p: usize) -> Vec<Platform> {
    vec![
        Platform::maspar_with(p),
        Platform::gcel_with(p),
        Platform::cm5_with(p),
    ]
}

/// Folds everything an algorithm run produced into a state digest
/// (mirrors `tests/golden.rs`).
fn digest_run(r: &RunResult) -> u64 {
    let mut d = Digest::new();
    d.push_f64(r.time.as_micros());
    d.push_u64(u64::from(r.verified));
    d.push_f64(r.breakdown.compute.as_micros());
    d.push_f64(r.breakdown.comm.as_micros());
    d.push_usize(r.breakdown.supersteps);
    d.push_usize(r.breakdown.messages);
    d.push_usize(r.breakdown.bytes);
    d.push_usize(r.stats.max_bucket);
    d.push_f64(r.stats.mflops);
    d.finish()
}

/// Writes every observed step's full detail (costs, pattern, inbox
/// counts, per-processor flags, shadow events and send metadata) and the
/// drop report as one text line each, for line-by-line comparison.
struct DetailRecorder {
    log: Rc<RefCell<Vec<String>>>,
}

impl SuperstepProbe for DetailRecorder {
    fn wants_detail(&self) -> bool {
        true
    }

    fn observe(&mut self, obs: &StepObs<'_>) {
        let d = obs.detail.as_ref().expect("detail requested");
        let mut line = format!(
            "step {} compute {:#x} comm {:#x} clock {:#x} records {} pattern {:?} inbox {:?}",
            obs.step,
            obs.compute.as_micros().to_bits(),
            obs.comm.as_micros().to_bits(),
            obs.clock.as_micros().to_bits(),
            obs.records,
            d.pattern.sends,
            d.inbox_count,
        );
        for pid in 0..d.p {
            write!(
                line,
                " | {pid}: {:#x} {} {} {:?} {:?} {:?}",
                d.compute_us(pid).to_bits(),
                d.charge_ok(pid),
                d.inbox_read(pid),
                d.oob_sends(pid),
                d.events(pid),
                d.sends(pid),
            )
            .expect("write to a String");
        }
        self.log.borrow_mut().push(line);
    }

    fn finish(&mut self, r: &RunReport<'_>) {
        self.log.borrow_mut().push(format!(
            "finish after {} pending {:?}",
            r.supersteps, r.pending_inbox
        ));
    }
}

/// Runs `run` with a [`DetailRecorder`] on every machine it creates.
fn record_detail<R>(run: impl FnOnce() -> R) -> Vec<String> {
    let log: Rc<RefCell<Vec<String>>> = Rc::default();
    let sink = log.clone();
    with_probe(
        move |_p| Box::new(DetailRecorder { log: sink.clone() }),
        run,
    );
    log.take()
}

type KernelRun<'a> = Box<dyn Fn() -> RunResult + 'a>;

/// One representative point per algorithm family at `p = 16` (the golden
/// grid): words, blocks and xnet exchange modes, inline and heap
/// payloads, vendor schedules.
fn family_runs(plat: &Platform) -> Vec<(&'static str, KernelRun<'_>)> {
    vec![
        (
            "matmul staggered n=16",
            Box::new(|| matmul::run(plat, 16, MatmulVariant::BspStaggered, SEED)),
        ),
        (
            "bitonic words m=32",
            Box::new(|| bitonic::run(plat, 32, ExchangeMode::Words, SEED)),
        ),
        (
            "samplesort bpram m=32",
            Box::new(|| sample::run(plat, 32, 4, SampleVariant::Bpram, SEED)),
        ),
        (
            "radix blocks m=32",
            Box::new(|| parallel_radix::run(plat, 32, RadixVariant::Blocks, SEED)),
        ),
        (
            "apsp words n=16",
            Box::new(|| apsp::run(plat, 16, ApspVariant::Words, SEED)),
        ),
        (
            "lu blocks n=16",
            Box::new(|| lu::run(plat, 16, LuVariant::Blocks, SEED)),
        ),
        (
            "vendor maspar_matmul n=8",
            Box::new(|| vendor::maspar_matmul(plat, 8, SEED)),
        ),
        (
            "vendor cmssl_matmul n=8",
            Box::new(|| vendor::cmssl_matmul(plat, 8, SEED)),
        ),
    ]
}

/// Every algorithm family × machine × shard count produces the same
/// simulated time and digest as the forced sequential reference, the same
/// per-step detail for a detail-taking observer, and the same extracted
/// plans. Shard count 1 keeps the fused sweep (control), 2 and 7 cut the
/// 16-processor machines unevenly, and `p` puts every processor in its
/// own shard.
#[test]
fn sharded_exchange_is_bit_identical_across_families() {
    force_pool();
    let p = 16;
    for plat in machines(p) {
        for (label, run) in family_runs(&plat) {
            let reference = with_sequential(&run);
            assert!(
                reference.verified,
                "{label} on {}: sequential reference failed",
                plat.name()
            );
            let ref_digest = digest_run(&reference);
            let ref_detail = with_sequential(|| record_detail(&run));
            let ref_plans = format!("{:?}", with_sequential(|| extract_plans(&run).1));
            for shards in [1usize, 2, 7, p] {
                let sharded = with_exchange_shards(shards, &run);
                assert_eq!(
                    sharded.time.as_micros().to_bits(),
                    reference.time.as_micros().to_bits(),
                    "{label} on {} shards={shards}: simulated time diverged",
                    plat.name()
                );
                assert_eq!(
                    digest_run(&sharded),
                    ref_digest,
                    "{label} on {} shards={shards}: run digest diverged",
                    plat.name()
                );
                let detail = with_exchange_shards(shards, || record_detail(&run));
                assert_eq!(detail.len(), ref_detail.len(), "{label}: step count");
                for (got, want) in detail.iter().zip(&ref_detail) {
                    assert_eq!(
                        got,
                        want,
                        "{label} on {} shards={shards}: step detail diverged",
                        plat.name()
                    );
                }
                let plans = with_exchange_shards(shards, || extract_plans(&run).1);
                assert_eq!(
                    format!("{plans:?}"),
                    ref_plans,
                    "{label} on {} shards={shards}: extracted plans diverged",
                    plat.name()
                );
            }
        }
    }
}

/// Raw machine with mixed inline/heap payloads and per-processor RNG
/// draws: `(time, states)` bit-identical to sequential for shard counts
/// that divide `p`, leave a remainder, and exceed [`MAX_SHARDS`].
#[test]
fn sharded_machine_matches_forced_sequential() {
    force_pool();
    let p = 64;
    let workload = |m: &mut Machine<u64>| {
        for round in 0..10u32 {
            m.superstep(move |ctx| {
                ctx.charge(f64::from(round) + ctx.pid() as f64 * 0.25);
                let dst = (ctx.pid() * 7 + 3) % ctx.nprocs();
                ctx.send_word_u32(dst, round * 1000 + ctx.pid() as u32);
                // 32 u32s: heap payload drawn from the sender's pool.
                let block: Vec<u32> = (0..32).map(|i| i + round).collect();
                ctx.send_block_u32((ctx.pid() + 1) % ctx.nprocs(), &block);
            });
            m.superstep(|ctx| {
                let mut acc = *ctx.state;
                for msg in ctx.msgs() {
                    for b in msg.data() {
                        acc = acc.wrapping_mul(31).wrapping_add(u64::from(*b));
                    }
                }
                *ctx.state = acc;
            });
        }
    };
    let run = || {
        let mut m = Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![0u64; p],
            SEED,
        );
        workload(&mut m);
        (m.time().as_micros().to_bits(), m.into_states())
    };
    let sequential = with_sequential(run);
    for shards in [2usize, 7, 64, 1000] {
        assert_eq!(
            with_exchange_shards(shards, run),
            sequential,
            "shards={shards} diverged from sequential"
        );
    }
}

/// Sender-affine recycled payload buffers must never surface stale
/// bytes under the sharded exchange: after long heap payloads are
/// consumed and recycled shard-parallel, later (shorter) messages carry
/// exactly their own data and quiet supersteps observe empty inboxes.
#[test]
fn sharded_recycle_never_leaks_stale_data() {
    force_pool();
    let p = 64;
    let mut m = with_exchange_shards(7, || {
        Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![0u32; p],
            SEED,
        )
    });
    assert_eq!(m.exchange_shards(), 7);
    // Round 1: long, distinctive heap payloads (128 bytes each) crossing
    // shard boundaries (the +1 ring wraps through every shard cut).
    m.superstep(|ctx| {
        let pid = ctx.pid() as u32;
        let vals: Vec<u32> = (0..32).map(|i| pid * 100 + i).collect();
        ctx.send_block_u32((ctx.pid() + 1) % ctx.nprocs(), &vals);
    });
    m.superstep(|ctx| {
        let prev = ((ctx.pid() + ctx.nprocs() - 1) % ctx.nprocs()) as u32;
        assert_eq!(ctx.msgs().len(), 1);
        let expected: Vec<u32> = (0..32).map(|i| prev * 100 + i).collect();
        assert_eq!(ctx.msgs()[0].as_u32s(), expected);
        // Round 2: shorter payloads reusing the recycled buffers. Any
        // stale suffix from the 128-byte round would change the length
        // or the decoded values.
        let pid = ctx.pid() as u32;
        let vals: Vec<u32> = (0..10).map(|i| pid * 7 + i).collect();
        ctx.send_block_u32((ctx.pid() + 1) % ctx.nprocs(), &vals);
    });
    m.superstep(|ctx| {
        let prev = ((ctx.pid() + ctx.nprocs() - 1) % ctx.nprocs()) as u32;
        assert_eq!(ctx.msgs().len(), 1);
        assert_eq!(ctx.msgs()[0].data().len(), 40, "stale bytes leaked");
        let expected: Vec<u32> = (0..10).map(|i| prev * 7 + i).collect();
        assert_eq!(ctx.msgs()[0].as_u32s(), expected);
    });
    // Quiet round: lanes and inboxes must come back empty.
    m.superstep(|ctx| {
        assert!(ctx.msgs().is_empty(), "stale messages survived delivery");
    });
}

/// The shard-count plumbing: the default heuristic follows the pool
/// width on big machines, stays on the fused sweep on small ones and on
/// machines built on a pool worker; the thread-local override wins over
/// the heuristic everywhere and clamps to `[1, min(p, MAX_SHARDS)]`.
#[test]
fn shard_count_resolution_is_documented_behavior() {
    force_pool();
    let machine = |p: usize| {
        Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![0u8; p],
            SEED,
        )
    };
    // Heuristic: pool width (4) on machines with p >= 64, 1 below.
    assert_eq!(machine(64).exchange_shards(), 4);
    assert_eq!(machine(16).exchange_shards(), 1);
    // The override wins over the heuristic, clamped to [1, min(p, MAX_SHARDS)].
    with_exchange_shards(7, || {
        assert_eq!(machine(64).exchange_shards(), 7);
        assert_eq!(machine(3).exchange_shards(), 3);
    });
    with_exchange_shards(1000, || {
        assert_eq!(machine(64).exchange_shards(), MAX_SHARDS);
        assert_eq!(machine(8).exchange_shards(), 8);
    });
    with_exchange_shards(0, || assert_eq!(machine(64).exchange_shards(), 1));
    // Outside the scope the heuristic applies again.
    assert_eq!(machine(16).exchange_shards(), 1);
    // On a pool worker `scoped_join` runs inline, so machines built there
    // keep one shard unless forced; sweep units the caller runs itself
    // follow the heuristic.
    let default_on = map_ordered(vec![(); 8], |_, ()| {
        (rayon::in_pool_worker(), machine(64).exchange_shards())
    });
    for (on_worker, shards) in default_on {
        assert_eq!(shards, if on_worker { 1 } else { 4 });
    }
    let forced_on = map_ordered(vec![(); 8], |_, ()| {
        with_exchange_shards(7, || machine(64).exchange_shards())
    });
    assert_eq!(forced_on, vec![7; 8]);
}
