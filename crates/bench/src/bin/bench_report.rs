//! `bench-report`: the workspace's microbenchmark harness — pinned-size
//! simulator-throughput benchmarks with a machine-readable JSON report
//! (`pcm-bench-report/v2`).
//!
//! It runs a fixed suite — superstep dispatch, a compute-heavy superstep,
//! word exchange, per-machine route pricing, the delta router, an
//! exchange-phase microbench family, and two figure kernels — at pinned
//! sizes and writes `BENCH_simulator.json` with median ns/iter, message
//! throughput, the commit hash and the run configuration. Passing
//! `--baseline <old.json>` (v1 or v2) embeds the old numbers and the
//! per-bench speedup, so the perf trajectory of the superstep hot path is
//! tracked in-repo instead of in commit messages. Whole figures are timed
//! end to end by `perfbench`, not here.
//!
//! The v2 schema additionally records *scaling curves*: because the rayon
//! shim latches its pool width once per process, the binary re-executes
//! itself (`--child <bench>`) with `RAYON_NUM_THREADS` pinned to each
//! rung of a {1, 2, 4, host} ladder and collects the children's medians.
//! The 1-thread rung is the sequential baseline: at pool width 1 the
//! machine runs its compute loop inline and takes the fused exchange.
//! Every row reports the pool width the process *actually* used
//! (`rayon::current_num_threads()`), with the host's core count kept
//! separately as `host_parallelism` — a single-thread run no longer
//! claims the host count.
//!
//! Usage:
//!   bench-report [--smoke] [--out FILE] [--baseline FILE]
//!   bench-report --child BENCH [--smoke]   (internal: one bench, stdout)
//!
//! `--smoke` runs a tiny pinned subset and a short ladder (CI keeps it
//! under a few seconds); it writes no file unless `--out` is given
//! explicitly.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pcm_algos::matmul::{self, MatmulVariant};
use pcm_algos::sort::bitonic::{self, ExchangeMode};
use pcm_core::rng::{random_permutation, seeded};
use pcm_machines::maspar::router::DeltaRouter;
use pcm_machines::Platform;
use pcm_sim::pattern::{CommPattern, SendRecord};
use pcm_sim::{IdealNetwork, Machine, Message, MsgKind, UniformCompute};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 77;

/// One recorded measurement.
struct BenchResult {
    name: String,
    ns_per_iter: f64,
    samples: usize,
    /// Logical messages simulated per iteration (0 when not meaningful).
    msgs_per_iter: usize,
    /// Additional named metrics for this row (e.g. a memo hit rate).
    extra: Vec<(&'static str, f64)>,
}

impl Default for BenchResult {
    fn default() -> Self {
        BenchResult {
            name: String::new(),
            ns_per_iter: 0.0,
            samples: 0,
            msgs_per_iter: 0,
            extra: Vec::new(),
        }
    }
}

impl BenchResult {
    fn msgs_per_sec(&self) -> f64 {
        if self.msgs_per_iter == 0 || self.ns_per_iter <= 0.0 {
            0.0
        } else {
            self.msgs_per_iter as f64 * 1e9 / self.ns_per_iter
        }
    }
}

struct Config {
    smoke: bool,
    samples: usize,
    warmup_iters: usize,
    /// Target wall-clock per sample, in ns.
    sample_target_ns: u128,
}

impl Config {
    fn new(smoke: bool) -> Self {
        if smoke {
            Config {
                smoke,
                samples: 3,
                warmup_iters: 2,
                sample_target_ns: 2_000_000, // 2 ms
            }
        } else {
            Config {
                smoke,
                samples: 9,
                warmup_iters: 5,
                sample_target_ns: 40_000_000, // 40 ms
            }
        }
    }
}

/// Measures `f` and returns the median ns per iteration: warmup, then
/// `samples` batches sized so each batch runs ~`sample_target_ns`.
fn measure<F: FnMut()>(cfg: &Config, mut f: F) -> (f64, usize) {
    for _ in 0..cfg.warmup_iters {
        f();
    }
    // Size the batch from a single timed iteration.
    let t0 = Instant::now();
    f();
    let one = t0.elapsed().as_nanos().max(1);
    let batch = ((cfg.sample_target_ns / one).clamp(1, 100_000)) as usize;

    let mut medians: Vec<f64> = Vec::with_capacity(cfg.samples);
    for _ in 0..cfg.samples {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        medians.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    medians.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    (medians[medians.len() / 2], cfg.samples)
}

fn noop_superstep(cfg: &Config, p: usize) -> BenchResult {
    let mut m = Machine::new(
        Box::new(IdealNetwork),
        Arc::new(UniformCompute::test_model()),
        vec![0u64; p],
        1,
    );
    m.set_tracing(false);
    let (ns, samples) = measure(cfg, || m.superstep(|ctx| ctx.charge(1.0)));
    BenchResult {
        name: format!("noop_superstep/{p}"),
        ns_per_iter: ns,
        samples,
        msgs_per_iter: 0,
        ..Default::default()
    }
}

/// A compute-heavy superstep: every processor sweeps a 64×64 `f64` state
/// with a `sqrt` loop and exchanges nothing, so the per-processor compute
/// closure dominates and the pool's fan-out has work to amortize.
fn busy_superstep(cfg: &Config, p: usize) -> BenchResult {
    let mut m = Machine::new(
        Box::new(IdealNetwork),
        Arc::new(UniformCompute::test_model()),
        vec![vec![0.0f64; 64 * 64]; p],
        1,
    );
    m.set_tracing(false);
    let (ns, samples) = measure(cfg, || {
        m.superstep(|ctx| {
            let v = &mut ctx.state;
            v[0] = (0..v.len()).map(|i| (i as f64).sqrt()).sum();
            ctx.charge(1.0);
        });
    });
    BenchResult {
        name: format!("busy_superstep/{p}"),
        ns_per_iter: ns,
        samples,
        msgs_per_iter: 0,
        ..Default::default()
    }
}

/// Every processor sends one 4-word `u32` message (16 bytes — the inline
/// payload boundary) to a fixed permutation partner and reads its inbox.
fn word_exchange(cfg: &Config, p: usize) -> BenchResult {
    let mut m = Machine::new(
        Box::new(IdealNetwork),
        Arc::new(UniformCompute::test_model()),
        vec![0u32; p],
        1,
    );
    m.set_tracing(false);
    let (ns, samples) = measure(cfg, || {
        m.superstep(|ctx| {
            let dst = (ctx.pid() * 7 + 3) % ctx.nprocs();
            let v = *ctx.state;
            ctx.send_words_u32(dst, &[v, v + 1, v + 2, v + 3]);
            *ctx.state = ctx.msgs().iter().map(Message::word_u32).sum();
        });
    });
    BenchResult {
        name: format!("word_exchange/{p}"),
        ns_per_iter: ns,
        samples,
        msgs_per_iter: p * 4,
        ..Default::default()
    }
}

/// End-to-end priced superstep on a real machine model (default sizes:
/// MasPar 1024, GCel 64, CM-5 64) — the per-machine route cost.
fn priced_superstep(cfg: &Config, plat: &Platform) -> BenchResult {
    let p = plat.p();
    let mut m = plat.machine(vec![0u8; p], 2);
    m.set_tracing(false);
    let (ns, samples) = measure(cfg, || {
        m.superstep(|ctx| {
            let dst = (ctx.pid() * 7 + 3) % ctx.nprocs();
            ctx.send_words_u32(dst, &[1, 2, 3, 4]);
        });
    });
    BenchResult {
        name: format!("priced_superstep/{}", plat.name()),
        ns_per_iter: ns,
        samples,
        msgs_per_iter: p * 4,
        ..Default::default()
    }
}

fn delta_router(cfg: &Config, p: usize) -> BenchResult {
    let mut router = DeltaRouter::new(p);
    let perm = random_permutation(p, &mut seeded(3));
    let sends: Vec<(usize, usize)> = perm.into_iter().enumerate().collect();
    let (ns, samples) = measure(cfg, || {
        std::hint::black_box(router.route(&sends));
    });
    BenchResult {
        name: format!("delta_router_permutation/{p}"),
        ns_per_iter: ns,
        samples,
        msgs_per_iter: p,
        ..Default::default()
    }
}

/// The fixed shifted permutation the pricing benches price: one 4-word
/// message per processor to `(pid * 7 + 3) % p` — the same traffic the
/// `priced_superstep` rows simulate, minus the superstep machinery.
fn pricing_pattern(plat: &Platform) -> CommPattern {
    let p = plat.p();
    let w = plat.word();
    let sends = (0..p)
        .map(|src| {
            vec![SendRecord {
                dst: (src * 7 + 3) % p,
                words: 4,
                bytes: 4 * w,
                kind: MsgKind::Words,
            }]
        })
        .collect();
    CommPattern { p, sends }
}

/// Prices the fixed pattern through the machine's network model alone,
/// with the route memo warm: the steady-state pricing fast path (pattern
/// fingerprint, memo probe, live jitter draw). Also records the memo hit
/// rate the model saw across warmup and all samples.
fn pricing_route(cfg: &Config, plat: &Platform, memo: bool) -> BenchResult {
    let pattern = pricing_pattern(plat);
    let mut net = plat.network();
    net.set_route_memo(memo);
    let mut rng = StdRng::seed_from_u64(SEED);
    let (ns, samples) = measure(cfg, || {
        std::hint::black_box(net.route(&pattern, &mut rng));
    });
    let mut extra = Vec::new();
    if memo {
        if let Some(stats) = net.route_memo_stats() {
            let total = stats.hits + stats.misses;
            if total > 0 {
                #[allow(clippy::cast_precision_loss)]
                extra.push(("memo_hit_rate", stats.hits as f64 / total as f64));
            }
            // Full counter set, uniform across all three machines: the
            // hit rate alone hides eviction churn and length-cap bypasses.
            #[allow(clippy::cast_precision_loss)]
            extra.extend([
                ("memo_hits", stats.hits as f64),
                ("memo_misses", stats.misses as f64),
                ("memo_evictions", stats.evictions as f64),
                ("memo_bypasses", stats.bypasses as f64),
            ]);
        }
    }
    BenchResult {
        name: format!(
            "pricing/route_{}/{}",
            if memo { "warm" } else { "cold" },
            plat.name()
        ),
        ns_per_iter: ns,
        samples,
        msgs_per_iter: plat.p(),
        extra,
    }
}

/// The delta router's two regimes with the round memo disabled: a
/// uniform XOR-mask permutation resolves through the closed-form
/// conflict-free fast path, while a random permutation falls back to the
/// greedy pass-by-pass circuit simulation.
fn pricing_router_paths(cfg: &Config, p: usize) -> Vec<BenchResult> {
    let mut out = Vec::new();
    let mut router = DeltaRouter::new(p);
    router.set_memo(false);
    let xor: Vec<(usize, usize)> = (0..p).map(|i| (i, i ^ 21)).collect();
    let (ns, samples) = measure(cfg, || {
        std::hint::black_box(router.route(&xor));
    });
    out.push(BenchResult {
        name: format!("pricing/router_fastpath/{p}"),
        ns_per_iter: ns,
        samples,
        msgs_per_iter: p,
        ..Default::default()
    });
    let perm = random_permutation(p, &mut seeded(SEED));
    let sends: Vec<(usize, usize)> = perm.into_iter().enumerate().collect();
    let (ns, samples) = measure(cfg, || {
        std::hint::black_box(router.route(&sends));
    });
    out.push(BenchResult {
        name: format!("pricing/router_slowpath/{p}"),
        ns_per_iter: ns,
        samples,
        msgs_per_iter: p,
        ..Default::default()
    });
    out
}

/// Exchange-phase microbenches: negligible compute, traffic shaped to
/// stress the delivery engine itself — a seeded random word permutation,
/// a heap-block ring shift (payload pools + recycle lanes), and an
/// all-to-one fan-in (maximally skewed lane loads).
fn exchange_word_permutation(cfg: &Config, p: usize) -> BenchResult {
    let perm = random_permutation(p, &mut seeded(5));
    let mut m = Machine::new(
        Box::new(IdealNetwork),
        Arc::new(UniformCompute::test_model()),
        vec![0u32; p],
        3,
    );
    m.set_tracing(false);
    let (ns, samples) = measure(cfg, || {
        m.superstep(|ctx| {
            let v = *ctx.state;
            ctx.send_word_u32(perm[ctx.pid()], v);
            *ctx.state = ctx.msgs().iter().map(Message::word_u32).sum();
        });
    });
    BenchResult {
        name: format!("exchange/word_permutation/{p}"),
        ns_per_iter: ns,
        samples,
        msgs_per_iter: p,
        ..Default::default()
    }
}

fn exchange_heap_block_shift(cfg: &Config, p: usize) -> BenchResult {
    let mut m = Machine::new(
        Box::new(IdealNetwork),
        Arc::new(UniformCompute::test_model()),
        vec![0u64; p],
        4,
    );
    m.set_tracing(false);
    let (ns, samples) = measure(cfg, || {
        m.superstep(|ctx| {
            let mut acc = 0u64;
            for msg in ctx.msgs() {
                acc = acc.wrapping_add(msg.data().len() as u64);
            }
            *ctx.state = acc;
            // 128 bytes: a pooled heap payload, recycled sender-affine.
            let block = [u32::try_from(ctx.pid()).expect("pid fits u32"); 32];
            ctx.send_block_u32((ctx.pid() + 1) % ctx.nprocs(), &block);
        });
    });
    BenchResult {
        name: format!("exchange/heap_block_shift/{p}"),
        ns_per_iter: ns,
        samples,
        msgs_per_iter: p,
        ..Default::default()
    }
}

fn exchange_fanin_skew(cfg: &Config, p: usize) -> BenchResult {
    let mut m = Machine::new(
        Box::new(IdealNetwork),
        Arc::new(UniformCompute::test_model()),
        vec![0u32; p],
        6,
    );
    m.set_tracing(false);
    let (ns, samples) = measure(cfg, || {
        m.superstep(|ctx| {
            let v = *ctx.state;
            ctx.send_word_u32(0, v);
            if ctx.pid() == 0 {
                *ctx.state = u32::try_from(ctx.msgs().len()).expect("inbox fits u32");
            }
        });
    });
    BenchResult {
        name: format!("exchange/fanin_skew/{p}"),
        ns_per_iter: ns,
        samples,
        msgs_per_iter: p,
        ..Default::default()
    }
}

fn figure_bitonic_maspar_words(cfg: &Config, keys: usize) -> BenchResult {
    let maspar = Platform::maspar();
    let (ns, samples) = measure(cfg, || {
        std::hint::black_box(bitonic::run(&maspar, keys, ExchangeMode::Words, SEED));
    });
    BenchResult {
        name: format!("figure_kernel/bitonic_maspar_words/{keys}"),
        ns_per_iter: ns,
        samples,
        msgs_per_iter: 0,
        ..Default::default()
    }
}

fn figure_matmul_cm5_naive(cfg: &Config, n: usize) -> BenchResult {
    let cm5 = Platform::cm5();
    let (ns, samples) = measure(cfg, || {
        std::hint::black_box(matmul::run(&cm5, n, MatmulVariant::BspNaive, SEED));
    });
    BenchResult {
        name: format!("figure_kernel/matmul_cm5_naive/{n}"),
        ns_per_iter: ns,
        samples,
        msgs_per_iter: 0,
        ..Default::default()
    }
}

fn figure_kernels(cfg: &Config) -> Vec<BenchResult> {
    let (keys, n) = if cfg.smoke { (16, 32) } else { (64, 128) };
    vec![
        figure_bitonic_maspar_words(cfg, keys),
        figure_matmul_cm5_naive(cfg, n),
    ]
}

fn run_suite(cfg: &Config) -> Vec<BenchResult> {
    let mut results = Vec::new();
    let sizes: &[usize] = if cfg.smoke { &[64] } else { &[64, 256, 1024] };
    for &p in sizes {
        eprintln!("  noop_superstep/{p} ...");
        results.push(noop_superstep(cfg, p));
    }
    eprintln!("  busy_superstep/64 ...");
    results.push(busy_superstep(cfg, 64));
    for &p in sizes {
        eprintln!("  word_exchange/{p} ...");
        results.push(word_exchange(cfg, p));
    }
    let platforms = if cfg.smoke {
        vec![Platform::cm5()]
    } else {
        vec![Platform::maspar(), Platform::gcel(), Platform::cm5()]
    };
    for plat in &platforms {
        eprintln!("  priced_superstep/{} ...", plat.name());
        results.push(priced_superstep(cfg, plat));
    }
    let router_p = if cfg.smoke { 64 } else { 1024 };
    eprintln!("  delta_router_permutation/{router_p} ...");
    results.push(delta_router(cfg, router_p));
    for plat in &platforms {
        eprintln!("  pricing/route_{{warm,cold}}/{} ...", plat.name());
        results.push(pricing_route(cfg, plat, true));
        results.push(pricing_route(cfg, plat, false));
    }
    eprintln!("  pricing/router_{{fastpath,slowpath}}/{router_p} ...");
    results.extend(pricing_router_paths(cfg, router_p));
    let ep = if cfg.smoke { 64 } else { 1024 };
    eprintln!("  exchange microbenches (p={ep}) ...");
    results.push(exchange_word_permutation(cfg, ep));
    results.push(exchange_heap_block_shift(cfg, ep));
    results.push(exchange_fanin_skew(cfg, ep));
    eprintln!("  figure kernels ...");
    results.extend(figure_kernels(cfg));
    results
}

/// Runs a single bench by its report name — the `--child` protocol used
/// by the scaling ladder (each child process latches its own pool width
/// from `RAYON_NUM_THREADS` before running).
fn run_named(cfg: &Config, name: &str) -> Option<BenchResult> {
    let (prefix, tail) = name.rsplit_once('/')?;
    match prefix {
        "noop_superstep" => Some(noop_superstep(cfg, tail.parse().ok()?)),
        "busy_superstep" => Some(busy_superstep(cfg, tail.parse().ok()?)),
        "word_exchange" => Some(word_exchange(cfg, tail.parse().ok()?)),
        "delta_router_permutation" => Some(delta_router(cfg, tail.parse().ok()?)),
        "exchange/word_permutation" => Some(exchange_word_permutation(cfg, tail.parse().ok()?)),
        "exchange/heap_block_shift" => Some(exchange_heap_block_shift(cfg, tail.parse().ok()?)),
        "exchange/fanin_skew" => Some(exchange_fanin_skew(cfg, tail.parse().ok()?)),
        "priced_superstep" => {
            let plat = [Platform::maspar(), Platform::gcel(), Platform::cm5()]
                .into_iter()
                .find(|pl| pl.name() == tail)?;
            Some(priced_superstep(cfg, &plat))
        }
        "pricing/route_warm" | "pricing/route_cold" => {
            let plat = [Platform::maspar(), Platform::gcel(), Platform::cm5()]
                .into_iter()
                .find(|pl| pl.name() == tail)?;
            Some(pricing_route(cfg, &plat, prefix.ends_with("warm")))
        }
        "pricing/router_fastpath" => pricing_router_paths(cfg, tail.parse().ok()?)
            .into_iter()
            .next(),
        "pricing/router_slowpath" => pricing_router_paths(cfg, tail.parse().ok()?)
            .into_iter()
            .nth(1),
        "figure_kernel/bitonic_maspar_words" => {
            Some(figure_bitonic_maspar_words(cfg, tail.parse().ok()?))
        }
        "figure_kernel/matmul_cm5_naive" => Some(figure_matmul_cm5_naive(cfg, tail.parse().ok()?)),
        _ => None,
    }
}

// ---- scaling curves (multi-process thread ladder) -----------------------

/// The pool widths of the scaling ladder: {1, 2, 4, host}, deduplicated.
/// Widths above the host's core count still measure correctness overhead
/// (oversubscription), which is the honest number on small hosts.
fn scaling_ladder() -> Vec<usize> {
    let host = host_parallelism();
    let mut ladder = vec![1, 2, 4, host];
    ladder.sort_unstable();
    ladder.dedup();
    ladder
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The benches whose scaling the v2 report records: the exchange-bound
/// rows (the slowest-improving ones in the v1 history), the
/// dispatch-bound noop row as a control, and the compute-bound busy row,
/// where the parallel compute loop has work to win on.
fn scaling_bench_names(cfg: &Config) -> Vec<String> {
    if cfg.smoke {
        vec![
            String::from("busy_superstep/64"),
            String::from("word_exchange/64"),
            String::from("exchange/word_permutation/64"),
        ]
    } else {
        [
            "noop_superstep/1024",
            "busy_superstep/64",
            "word_exchange/64",
            "word_exchange/256",
            "word_exchange/1024",
            "delta_router_permutation/1024",
            "exchange/word_permutation/1024",
            "exchange/heap_block_shift/1024",
            "exchange/fanin_skew/1024",
        ]
        .into_iter()
        .map(String::from)
        .collect()
    }
}

/// One bench's medians across the thread ladder, in ladder order.
struct ScalingCurve {
    name: String,
    ns_by_thread: Vec<f64>,
    /// Pool width each child actually latched (sanity echo).
    threads_used: Vec<usize>,
}

impl ScalingCurve {
    /// Speedup of the widest rung over the single-thread rung.
    fn speedup_max_vs_1(&self) -> f64 {
        match (self.ns_by_thread.first(), self.ns_by_thread.last()) {
            (Some(&one), Some(&max)) if max > 0.0 => one / max,
            _ => 0.0,
        }
    }
}

/// Re-executes this binary once per (bench, width) with
/// `RAYON_NUM_THREADS` pinned — the pool width is latched once per
/// process, so an in-process ladder is impossible by design.
fn run_scaling(cfg: &Config) -> (Vec<usize>, Vec<ScalingCurve>) {
    let ladder = scaling_ladder();
    let exe = std::env::current_exe().expect("own executable path");
    let mut curves = Vec::new();
    for name in scaling_bench_names(cfg) {
        eprintln!("  scaling {name} across threads {ladder:?} ...");
        let mut ns_by_thread = Vec::with_capacity(ladder.len());
        let mut threads_used = Vec::with_capacity(ladder.len());
        for &k in &ladder {
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("--child").arg(&name);
            if cfg.smoke {
                cmd.arg("--smoke");
            }
            cmd.env("RAYON_NUM_THREADS", k.to_string());
            let out = cmd
                .output()
                .unwrap_or_else(|e| panic!("cannot spawn scaling child for {name}: {e}"));
            assert!(
                out.status.success(),
                "scaling child {name} threads={k} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout
                .lines()
                .find(|l| l.starts_with("child-result "))
                .unwrap_or_else(|| panic!("scaling child {name} printed no result: {stdout:?}"));
            let mut fields = line.split_whitespace().skip(1);
            let ns: f64 = fields
                .next()
                .and_then(|s| s.parse().ok())
                .expect("child ns_per_iter");
            let used: usize = fields
                .next()
                .and_then(|s| s.parse().ok())
                .expect("child thread count");
            ns_by_thread.push(ns);
            threads_used.push(used);
        }
        curves.push(ScalingCurve {
            name,
            ns_by_thread,
            threads_used,
        });
    }
    (ladder, curves)
}

/// The benches whose median speedup defines the simulator-throughput
/// acceptance number: ns/superstep at p in {64, 256, 1024}.
fn is_throughput_bench(name: &str) -> bool {
    name.starts_with("noop_superstep/") || name.starts_with("word_exchange/")
}

// ---- minimal JSON output (the workspace has no serde) -------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Extracts `"key": <number>` from our own flat report format, scanning
/// forward from `from`. Good enough to read back a file this binary wrote.
fn find_number(text: &str, key: &str, from: usize) -> Option<(f64, usize)> {
    let needle = format!("\"{key}\":");
    let at = text[from..].find(&needle)? + from + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse::<f64>().ok().map(|v| (v, at))
}

fn find_string(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": \"");
    let at = text.find(&needle)? + needle.len();
    let end = text[at..].find('"')?;
    Some(text[at..at + end].to_string())
}

struct Baseline {
    commit: String,
    benches: Vec<(String, f64)>,
}

fn parse_baseline(text: &str) -> Baseline {
    let mut benches = Vec::new();
    // Every bench entry looks like: "name": { "ns_per_iter": N, ... }
    let mut cursor = match text.find("\"benches\":") {
        Some(i) => i,
        None => {
            return Baseline {
                commit: String::from("unknown"),
                benches,
            }
        }
    };
    // Stop scanning at the (optional) baseline block of the old file so we
    // don't pick up *its* grandparent numbers.
    let stop = text[cursor..]
        .find("\"baseline\":")
        .map_or(text.len(), |i| cursor + i);
    while let Some(open) = text[cursor..stop].find("\": { \"ns_per_iter\":") {
        // `entry_at` sits on the quote closing the bench name; the name
        // runs from just after the previous quote.
        let entry_at = cursor + open;
        let name_start = text[..entry_at].rfind('"').map(|i| i + 1).unwrap_or(0);
        let name = text[name_start..entry_at].to_string();
        if let Some((v, next)) = find_number(text, "ns_per_iter", entry_at) {
            benches.push((name, v));
            cursor = next;
        } else {
            break;
        }
    }
    Baseline {
        commit: find_string(text, "commit").unwrap_or_else(|| String::from("unknown")),
        benches,
    }
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| String::from("unknown"))
}

fn render_report(
    cfg: &Config,
    results: &[BenchResult],
    (ladder, curves): &(Vec<usize>, Vec<ScalingCurve>),
    baseline: Option<&Baseline>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"pcm-bench-report/v2\",\n");
    s.push_str(&format!(
        "  \"commit\": \"{}\",\n",
        json_escape(&git_commit())
    ));
    let epoch = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    s.push_str(&format!("  \"unix_time\": {epoch},\n"));
    // `threads` is the pool width this process actually latched (v1
    // wrote the host count here even for single-thread runs).
    s.push_str(&format!(
        "  \"config\": {{ \"profile\": \"release\", \"threads\": {}, \"host_parallelism\": {}, \"samples\": {}, \"warmup_iters\": {}, \"smoke\": {} }},\n",
        rayon::current_num_threads(), host_parallelism(), cfg.samples, cfg.warmup_iters, cfg.smoke
    ));
    s.push_str("  \"benches\": {\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let extra: String = r
            .extra
            .iter()
            .map(|(k, v)| format!(", \"{k}\": {v:.3}"))
            .collect();
        if r.msgs_per_iter > 0 {
            s.push_str(&format!(
                "    \"{}\": {{ \"ns_per_iter\": {:.1}, \"samples\": {}, \"msgs_per_sec\": {:.0}{extra} }}{comma}\n",
                json_escape(&r.name), r.ns_per_iter, r.samples, r.msgs_per_sec()
            ));
        } else {
            s.push_str(&format!(
                "    \"{}\": {{ \"ns_per_iter\": {:.1}, \"samples\": {}{extra} }}{comma}\n",
                json_escape(&r.name),
                r.ns_per_iter,
                r.samples
            ));
        }
    }
    s.push_str("  },\n  \"scaling\": {\n");
    s.push_str(&format!(
        "    \"threads\": [{}],\n",
        ladder
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str("    \"curves\": {\n");
    for (i, c) in curves.iter().enumerate() {
        let comma = if i + 1 == curves.len() { "" } else { "," };
        let ns = c
            .ns_by_thread
            .iter()
            .map(|v| format!("{v:.1}"))
            .collect::<Vec<_>>()
            .join(", ");
        let used = c
            .threads_used
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        s.push_str(&format!(
                "      \"{}\": {{ \"ns_by_thread\": [{ns}], \"threads_used\": [{used}], \"speedup_max_vs_1\": {:.2} }}{comma}\n",
                json_escape(&c.name),
                c.speedup_max_vs_1()
            ));
    }
    s.push_str("    }\n  }");
    if let Some(base) = baseline {
        s.push_str(",\n  \"baseline\": {\n");
        s.push_str(&format!(
            "    \"commit\": \"{}\",\n",
            json_escape(&base.commit)
        ));
        s.push_str("    \"benches\": {\n");
        for (i, (name, ns)) in base.benches.iter().enumerate() {
            let comma = if i + 1 == base.benches.len() { "" } else { "," };
            s.push_str(&format!(
                "      \"{}\": {{ \"ns_per_iter\": {ns:.1} }}{comma}\n",
                json_escape(name)
            ));
        }
        s.push_str("    }\n  },\n");
        s.push_str("  \"speedup\": {\n");
        let speedups = speedups(results, base);
        let mut throughput: Vec<f64> = Vec::new();
        for (name, factor) in &speedups {
            if is_throughput_bench(name) {
                throughput.push(*factor);
            }
            s.push_str(&format!("    \"{}\": {factor:.2},\n", json_escape(name)));
        }
        throughput.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = if throughput.is_empty() {
            0.0
        } else {
            throughput[throughput.len() / 2]
        };
        s.push_str(&format!(
            "    \"simulator_throughput_median\": {median:.2}\n  }}"
        ));
    }
    s.push_str("\n}\n");
    s
}

fn speedups(results: &[BenchResult], base: &Baseline) -> Vec<(String, f64)> {
    results
        .iter()
        .filter_map(|r| {
            base.benches
                .iter()
                .find(|(n, _)| *n == r.name)
                .map(|(_, old)| (r.name.clone(), old / r.ns_per_iter))
        })
        .collect()
}

/// Prints a one-line error with the usage and exits with status 2 (bad
/// command line).
fn fail(msg: &str) -> ! {
    eprintln!("bench-report: {msg} (usage: bench-report [--smoke] [--out FILE] [--baseline FILE])");
    std::process::exit(2);
}

fn main() {
    let mut smoke = false;
    let mut child_bench: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| fail(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--child" => child_bench = Some(value()),
            "--out" => out_path = Some(value()),
            "--baseline" => baseline_path = Some(value()),
            other => fail(&format!("unknown argument: {other}")),
        }
    }
    // Read the baseline and check the output directory before the suite
    // runs, so a bad path fails fast.
    let baseline = baseline_path.map(|p| match std::fs::read_to_string(&p) {
        Ok(text) => parse_baseline(&text),
        Err(e) => fail(&format!("cannot read baseline {p}: {e}")),
    });
    if let Some(dir) = out_path
        .as_deref()
        .and_then(|p| Path::new(p).parent())
        .filter(|d| !d.as_os_str().is_empty() && !d.is_dir())
    {
        fail(&format!("no such output directory: {}", dir.display()));
    }

    let cfg = Config::new(smoke);

    // Child protocol: run exactly one bench with whatever pool width this
    // process latched from RAYON_NUM_THREADS, report on stdout, exit.
    if let Some(name) = child_bench {
        let Some(r) = run_named(&cfg, &name) else {
            eprintln!("--child: unknown or unparsable bench name {name:?}");
            std::process::exit(2);
        };
        println!(
            "child-result {:.1} {} {}",
            r.ns_per_iter,
            rayon::current_num_threads(),
            r.msgs_per_iter
        );
        return;
    }

    eprintln!(
        "bench-report: running {} suite ...",
        if smoke { "smoke" } else { "full" }
    );
    let results = run_suite(&cfg);
    eprintln!("bench-report: recording scaling curves ...");
    let scaling = run_scaling(&cfg);

    println!("{:<44} {:>14} {:>16}", "bench", "ns/iter", "msgs/sec");
    for r in &results {
        let msgs = if r.msgs_per_iter > 0 {
            format!("{:.0}", r.msgs_per_sec())
        } else {
            String::from("-")
        };
        println!("{:<44} {:>14.1} {:>16}", r.name, r.ns_per_iter, msgs);
    }
    let (ladder, curves) = &scaling;
    println!("\nscaling (ns/iter by pool width {ladder:?}):");
    for c in curves {
        let ns = c
            .ns_by_thread
            .iter()
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join("  ");
        println!(
            "{:<44} {ns}  ({:.2}x at max width)",
            c.name,
            c.speedup_max_vs_1()
        );
    }
    if let Some(base) = &baseline {
        println!("\nspeedup vs baseline ({}):", base.commit);
        let sp = speedups(&results, base);
        let mut throughput: Vec<f64> = Vec::new();
        for (name, factor) in &sp {
            if is_throughput_bench(name) {
                throughput.push(*factor);
            }
            println!("{name:<44} {factor:>10.2}x");
        }
        throughput.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        if !throughput.is_empty() {
            println!(
                "{:<44} {:>10.2}x",
                "simulator-throughput median",
                throughput[throughput.len() / 2]
            );
        }
    }

    let report = render_report(&cfg, &results, &scaling, baseline.as_ref());
    let default_out = if smoke {
        None
    } else {
        Some(String::from("BENCH_simulator.json"))
    };
    if let Some(path) = out_path.or(default_out) {
        // Atomic (temp + fsync + rename): the committed report must never
        // be observable half-written, even if the run is interrupted.
        pcm_core::fsio::write_atomic(&path, report)
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        eprintln!("bench-report: wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row the suite records can be re-run alone under `--child`;
    /// the figure kernels are checked at their smoke sizes.
    #[test]
    fn child_protocol_resolves_figure_kernels() {
        let cfg = Config::new(true);
        for name in [
            "figure_kernel/bitonic_maspar_words/16",
            "figure_kernel/matmul_cm5_naive/32",
            "busy_superstep/64",
        ] {
            let r = run_named(&cfg, name).expect("bench resolves");
            assert_eq!(r.name, name);
            assert!(r.ns_per_iter > 0.0);
        }
        assert!(run_named(&cfg, "figure_kernel/unknown/16").is_none());
        assert!(run_named(&cfg, "figure_kernel/matmul_cm5_naive/x").is_none());
    }
}
