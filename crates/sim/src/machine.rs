//! The superstep machine.
//!
//! A [`Machine`] owns `P` virtual processors (each with a private state
//! `S`), a network model and a compute model. An *orchestrator* — ordinary
//! Rust code implementing a parallel algorithm — drives it through a
//! sequence of supersteps:
//!
//! ```
//! use pcm_sim::{Machine, IdealNetwork, UniformCompute};
//!
//! // Each processor holds one number; one superstep rotates them left.
//! let mut m = Machine::new(
//!     Box::new(IdealNetwork),
//!     std::sync::Arc::new(UniformCompute::test_model()),
//!     (0u32..8).collect::<Vec<_>>(),
//!     42,
//! );
//! m.superstep(|ctx| {
//!     let next = (ctx.pid() + 1) % ctx.nprocs();
//!     let v = *ctx.state;
//!     ctx.send_word_u32(next, v);
//! });
//! m.superstep(|ctx| {
//!     *ctx.state = ctx.msgs()[0].word_u32();
//! });
//! assert_eq!(m.states()[1], 0);
//! ```
//!
//! Within a superstep the processors are independent (the BSP contract), so
//! the machine executes them with rayon. All randomness is seeded: the same
//! seed gives bit-identical simulated times and results.

use std::sync::Arc;

use pcm_core::rng::{child_seed, seeded};
use pcm_core::SimTime;
use rand::rngs::StdRng;
use rayon::prelude::*;

use crate::compute::ComputeModel;
use crate::ctx::{Ctx, ProcAux};
use crate::exchange::{ExchangeScratch, MAX_SHARDS};
use crate::network::NetworkModel;
use crate::pattern::{CommPattern, SendRecord};
use crate::probe::{
    self, ExchangePath, PhaseNanos, RunReport, StepDetail, StepObs, SuperstepProbe,
};
use crate::shadow::SendMeta;
use crate::trace::{RunBreakdown, SuperstepTrace, TraceScratch};

/// A simulated distributed-memory parallel machine.
pub struct Machine<S> {
    p: usize,
    states: Vec<S>,
    /// Per-processor scratch (inbox, outbox, event buffers, payload pool),
    /// reused across supersteps so the hot path stops allocating.
    procs: Vec<ProcAux>,
    net: Box<dyn NetworkModel>,
    compute: Arc<dyn ComputeModel>,
    clock: SimTime,
    seed: u64,
    net_rng: StdRng,
    step_count: usize,
    traces: Vec<SuperstepTrace>,
    tracing: bool,
    parallel: bool,
    /// Dry run, set by [`crate::plan::extract_plans`] at construction:
    /// pricing and tracing are skipped and the clock stays at zero.
    dry: bool,
    /// The superstep's communication pattern, rebuilt in place each step.
    pattern: CommPattern,
    /// Reusable scratch for [`SuperstepTrace::measure`].
    trace_scratch: TraceScratch,
    /// Exchange shard count. Above 1 (on a parallel machine) the machine
    /// runs the sharded parallel exchange engine; at 1 the fused sweep.
    shards: usize,
    /// Reusable lane grid for the sharded exchange.
    exchange: ExchangeScratch,
    /// Observer installed via the [`crate::probe`] hook at construction
    /// time; observes every superstep and the final drop. `None` on the
    /// unobserved hot path — one discriminant test per superstep.
    probe: Option<Box<dyn SuperstepProbe>>,
    /// Whether the observer takes [`StepDetail`].
    detail: bool,
    /// Per-shard record scratch handed to the observer (allocated once at
    /// construction, only when an observer is installed).
    probe_shards: Vec<u64>,
    /// Per-processor inbox counts handed to the observer: captured before
    /// each exchange for [`StepDetail`], and at drop for [`RunReport`].
    inbox_counts: Vec<usize>,
}

/// Default shard count: one shard per pool worker, but only on machines
/// big enough for the lane bookkeeping to pay off; small machines keep
/// the fused sweep. A machine built on a pool worker gets one shard:
/// `scoped_join` runs inline there, so lanes would buy nothing.
fn default_shards(p: usize) -> usize {
    if p >= 64 && !rayon::in_pool_worker() {
        rayon::current_num_threads().min(MAX_SHARDS).min(p)
    } else {
        1
    }
}

impl<S: Send> Machine<S> {
    /// Creates a machine with one state per processor.
    pub fn new(
        net: Box<dyn NetworkModel>,
        compute: Arc<dyn ComputeModel>,
        states: Vec<S>,
        seed: u64,
    ) -> Self {
        let p = states.len();
        assert!(p > 0, "a machine needs at least one processor");
        let hook = probe::current();
        let probe = hook.probe.map(|factory| factory(p));
        let observed = probe.is_some();
        Machine {
            p,
            procs: (0..p).map(|_| ProcAux::default()).collect(),
            states,
            net,
            compute,
            clock: SimTime::ZERO,
            seed,
            net_rng: seeded(child_seed(seed, u64::MAX)),
            step_count: 0,
            traces: Vec::new(),
            tracing: !hook.dry,
            parallel: !hook.sequential,
            dry: hook.dry,
            pattern: CommPattern {
                p,
                sends: (0..p).map(|_| Vec::new()).collect(),
            },
            trace_scratch: TraceScratch::default(),
            shards: hook
                .shards
                .map_or_else(|| default_shards(p), |s| s.clamp(1, p.min(MAX_SHARDS))),
            exchange: ExchangeScratch::default(),
            detail: probe.as_ref().is_some_and(|o| o.wants_detail()),
            probe,
            probe_shards: if observed {
                vec![0; MAX_SHARDS]
            } else {
                Vec::new()
            },
            inbox_counts: if observed { vec![0; p] } else { Vec::new() },
        }
    }

    /// Enables or disables per-superstep tracing (off saves memory on very
    /// long runs). Dry runs never trace.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on && !self.dry;
    }

    /// The configured exchange shard count.
    pub fn exchange_shards(&self) -> usize {
        self.shards
    }

    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.p
    }

    /// Simulated time elapsed so far.
    pub fn time(&self) -> SimTime {
        self.clock
    }

    /// Resets the simulated clock and traces (keeps states and inboxes).
    pub fn reset_clock(&mut self) {
        self.clock = SimTime::ZERO;
        self.traces.clear();
    }

    /// Number of supersteps executed.
    pub fn supersteps(&self) -> usize {
        self.step_count
    }

    /// Immutable view of the processor states.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Mutable view of the processor states (for initialization).
    pub fn states_mut(&mut self) -> &mut [S] {
        &mut self.states
    }

    /// Consumes the machine, returning the final states. (The machine's
    /// `Drop` — which finalizes an installed observer — still runs, on an
    /// empty state vector.)
    pub fn into_states(mut self) -> Vec<S> {
        std::mem::take(&mut self.states)
    }

    /// The per-superstep traces collected so far.
    pub fn traces(&self) -> &[SuperstepTrace] {
        &self.traces
    }

    /// Aggregated compute/communication breakdown of the run.
    pub fn breakdown(&self) -> RunBreakdown {
        RunBreakdown::from_traces(&self.traces)
    }

    /// The platform's compute model.
    pub fn compute_model(&self) -> &dyn ComputeModel {
        &*self.compute
    }

    /// Enables or disables the network model's route memo (models without
    /// one ignore the call). Memoization caches only deterministic pricing
    /// values, so toggling it never changes a simulated time.
    pub fn set_route_memo(&mut self, enabled: bool) {
        self.net.set_route_memo(enabled);
    }

    /// Hit/miss statistics of the network model's route memo, if any.
    pub fn route_memo_stats(&self) -> Option<crate::cache::CacheStats> {
        self.net.route_memo_stats()
    }

    /// Executes one superstep: runs `f` on every processor, prices the
    /// resulting communication pattern, advances the simulated clock and
    /// delivers the messages for the next superstep.
    pub fn superstep<F>(&mut self, f: F)
    where
        F: Fn(&mut Ctx<'_, S>) + Sync,
    {
        let p = self.p;
        let step = self.step_count;
        let seed = self.seed;
        let compute: &dyn ComputeModel = &*self.compute;
        let word = compute.word_bytes();
        // Shadow events and send metadata are for the sanitizer and the
        // race analyzer; the plan recorder (the only observer of a dry
        // run) reads neither.
        let shadow = self.detail && !self.dry;

        let run_one = |pid: usize, state: &mut S, aux: &mut ProcAux| {
            let rng_seed = child_seed(seed, (step * p + pid) as u64);
            let outcome = {
                let mut ctx = Ctx::new(pid, p, state, aux, compute, word, rng_seed, shadow);
                f(&mut ctx);
                ctx.finish()
            };
            aux.compute_us = outcome.compute_us;
            aux.charge_ok = outcome.charge_ok;
            aux.read_inbox = outcome.read_inbox;
        };

        // A single-worker pool would run the par_iter pipeline inline
        // anyway; the plain loop skips its zip-chunk plumbing.
        let t_compute = probe::mark(self.timed());
        if self.parallel && p > 1 && rayon::current_num_threads() > 1 {
            self.states
                .par_iter_mut()
                .zip(self.procs.par_iter_mut())
                .enumerate()
                .for_each(|(pid, (state, aux))| run_one(pid, state, aux));
        } else {
            for (pid, (state, aux)) in self
                .states
                .iter_mut()
                .zip(self.procs.iter_mut())
                .enumerate()
            {
                run_one(pid, state, aux);
            }
        }

        let compute_ns = probe::since(t_compute);

        // The exchange drains the outboxes and replaces the inboxes, so
        // the only pre-exchange state the detail needs is captured first.
        if self.detail {
            for (aux, count) in self.procs.iter_mut().zip(&mut self.inbox_counts) {
                *count = aux.inbox.len();
            }
        }
        if shadow {
            for aux in &mut self.procs {
                aux.sent.clear();
                aux.sent.extend(aux.outbox.iter().map(|m| SendMeta {
                    dst: m.dst,
                    tag: m.tag,
                    kind: m.kind,
                    words: m.logical_words as usize,
                }));
            }
        }
        if self.parallel && self.shards > 1 {
            self.exchange_sharded(step, compute_ns);
        } else {
            self.exchange_fused(step, compute_ns);
        }

        self.step_count += 1;
    }

    /// Whether phases are timed: only for an observer of a priced run
    /// (no observer of a dry run reads wall time).
    fn timed(&self) -> bool {
        self.probe.is_some() && !self.dry
    }

    /// Prices the finished pattern (skipped on dry runs) and advances the
    /// clock; returns the superstep's `(compute, comm)` contribution.
    fn price(&mut self, max_compute: f64, records: usize) -> (SimTime, SimTime) {
        if self.dry {
            return (SimTime::ZERO, SimTime::ZERO);
        }
        let comm = if records == 0 {
            self.net.barrier()
        } else {
            self.net.route(&self.pattern, &mut self.net_rng)
        };
        let compute = SimTime::from_micros(max_compute);
        self.clock += compute + comm;
        (compute, comm)
    }

    /// Reports one finished superstep to the installed observer (a no-op
    /// without one). Runs after the clock update and delivery, reading
    /// only values the machine already computed, so it cannot perturb the
    /// simulation.
    fn notify_probe(
        &mut self,
        step: usize,
        (compute, comm): (SimTime, SimTime),
        records: usize,
        path: ExchangePath,
        phases: PhaseNanos,
    ) {
        let Some(probe) = self.probe.as_mut() else {
            return;
        };
        let shard_count = if path == ExchangePath::Sharded {
            self.exchange.shard_records(&mut self.probe_shards)
        } else {
            0
        };
        probe.observe(&StepObs {
            step,
            compute,
            comm,
            clock: self.clock,
            records,
            path,
            shard_records: &self.probe_shards[..shard_count],
            phases,
            memo: if self.dry {
                None
            } else {
                self.net.route_memo_stats()
            },
            terms: if self.dry {
                None
            } else {
                self.net.cost_terms()
            },
            detail: self.detail.then_some(StepDetail {
                p: self.p,
                pattern: &self.pattern,
                inbox_count: &self.inbox_counts,
                procs: &self.procs,
            }),
        });
    }

    /// The sharded parallel exchange: scatter (pattern rebuild + lane
    /// fill), price, gather (delivery + recycle staging), sender-affine
    /// recycle. Bit-identical to [`Self::exchange_fused`] — see
    /// `exchange.rs` for the argument.
    fn exchange_sharded(&mut self, step: usize, compute_ns: u64) {
        let probing = self.timed();
        let t = probe::mark(probing);
        let a = self
            .exchange
            .scatter(self.p, self.shards, &mut self.procs, &mut self.pattern);
        let scatter_ns = probe::since(t);
        let t = probe::mark(probing);
        let cost = self.price(a.max_compute, a.total_records);
        let price_ns = probe::since(t);
        let t = probe::mark(probing);
        let heap_staged = self.exchange.gather(&mut self.procs);
        let gather_ns = probe::since(t);
        let t = probe::mark(probing);
        if heap_staged > 0 {
            self.exchange.recycle(&mut self.procs);
        }
        let recycle_ns = probe::since(t);
        self.notify_probe(
            step,
            cost,
            a.total_records,
            ExchangePath::Sharded,
            PhaseNanos {
                compute: compute_ns,
                scatter: scatter_ns,
                price: price_ns,
                gather: gather_ns,
                recycle: recycle_ns,
            },
        );
        if self.tracing {
            self.traces.push(SuperstepTrace::measure(
                step,
                cost.0,
                cost.1,
                &self.pattern,
                &mut self.trace_scratch,
            ));
        }
    }

    /// The single-sweep sequential exchange: one pass over the outboxes
    /// both rebuilds the pattern records and moves each message to its
    /// destination inbox, instead of touching every message twice.
    /// Delivery runs before pricing here, which is unobservable — pricing
    /// reads only the finished pattern and the network rng, delivery only
    /// moves messages.
    fn exchange_fused(&mut self, step: usize, compute_ns: u64) {
        let probing = self.timed();
        let t = probe::mark(probing);
        let p = self.p;
        // Drop consumed inboxes first so delivery can append in place.
        // Recycling an inline payload is a no-op, so an inbox with no
        // heap payloads is cleared without visiting its messages.
        let mut max_compute = 0.0f64;
        for dst in 0..p {
            max_compute = max_compute.max(self.procs[dst].compute_us);
            if self.procs[dst].inbox_heap == 0 {
                self.procs[dst].inbox.clear();
            } else {
                let mut inbox = std::mem::take(&mut self.procs[dst].inbox);
                for msg in inbox.drain(..) {
                    let src = msg.src;
                    self.procs[src].pool.recycle(msg.into_payload());
                }
                let aux = &mut self.procs[dst];
                aux.inbox = inbox;
                aux.inbox_heap = 0;
            }
        }
        // One sweep: record each outbox message in the pattern and push it
        // to its inbox, preserving the (src, send-order) delivery order.
        let mut total_records = 0usize;
        for src in 0..p {
            if self.procs[src].outbox.is_empty() {
                self.pattern.sends[src].clear();
                continue;
            }
            let mut outbox = std::mem::take(&mut self.procs[src].outbox);
            let sends = &mut self.pattern.sends[src];
            sends.clear();
            total_records += outbox.len();
            for msg in outbox.drain(..) {
                sends.push(SendRecord {
                    dst: msg.dst,
                    words: msg.logical_words as usize,
                    bytes: msg.logical_bytes as usize,
                    kind: msg.kind,
                });
                let aux = &mut self.procs[msg.dst];
                aux.inbox_heap += usize::from(msg.payload_is_heap());
                aux.inbox.push(msg);
            }
            self.procs[src].outbox = outbox;
        }
        let gather_ns = probe::since(t);
        let t = probe::mark(probing);
        let cost = self.price(max_compute, total_records);
        let price_ns = probe::since(t);
        self.notify_probe(
            step,
            cost,
            total_records,
            ExchangePath::Fused,
            PhaseNanos {
                compute: compute_ns,
                scatter: 0,
                price: price_ns,
                gather: gather_ns,
                recycle: 0,
            },
        );
        if self.tracing {
            self.traces.push(SuperstepTrace::measure(
                step,
                cost.0,
                cost.1,
                &self.pattern,
                &mut self.trace_scratch,
            ));
        }
    }

    /// A barrier-only superstep.
    pub fn sync(&mut self) {
        self.superstep(|_| {});
    }
}

impl<S> Drop for Machine<S> {
    fn drop(&mut self) {
        if let Some(probe) = self.probe.as_mut() {
            for (count, aux) in self.inbox_counts.iter_mut().zip(&self.procs) {
                *count = aux.inbox.len();
            }
            probe.finish(&RunReport {
                supersteps: self.step_count,
                pending_inbox: &self.inbox_counts,
            });
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, clippy::cast_possible_truncation)] // tests assert exact simulated values
mod tests {
    use super::*;
    use crate::compute::UniformCompute;
    use crate::network::{IdealNetwork, TextbookBspNetwork};

    fn test_machine(p: usize) -> Machine<Vec<u32>> {
        Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            (0..p).map(|i| vec![i as u32]).collect(),
            7,
        )
    }

    #[test]
    fn messages_are_delivered_next_superstep() {
        let mut m = test_machine(4);
        m.superstep(|ctx| {
            let dst = (ctx.pid() + 1) % ctx.nprocs();
            let v = ctx.state[0];
            ctx.send_word_u32(dst, v * 10);
        });
        m.superstep(|ctx| {
            assert_eq!(ctx.msgs().len(), 1);
            let prev = (ctx.pid() + ctx.nprocs() - 1) % ctx.nprocs();
            assert_eq!(ctx.msgs()[0].src, prev);
            ctx.state.push(ctx.msgs()[0].word_u32());
        });
        assert_eq!(m.states()[0], vec![0, 30]);
        assert_eq!(m.states()[2], vec![2, 10]);
    }

    #[test]
    fn inbox_is_cleared_between_supersteps() {
        let mut m = test_machine(2);
        m.superstep(|ctx| {
            if ctx.pid() == 0 {
                ctx.send_word_u32(1, 5);
            }
        });
        m.superstep(|ctx| {
            if ctx.pid() == 1 {
                assert_eq!(ctx.msgs().len(), 1);
            }
        });
        m.superstep(|ctx| {
            assert!(ctx.msgs().is_empty(), "stale messages must not survive");
        });
    }

    #[test]
    fn inbox_is_cleared_between_supersteps_pooled() {
        // Pin a multi-thread pool width before the rayon shim latches it,
        // so a machine above the shim's sequential cutoff dispatches
        // through the worker pool. Best-effort: if another test latched
        // the width first, the same delivery code still runs sequentially.
        static FORCE: std::sync::Once = std::sync::Once::new();
        FORCE.call_once(|| {
            if std::env::var_os("RAYON_NUM_THREADS").is_none() {
                std::env::set_var("RAYON_NUM_THREADS", "4");
            }
        });
        let mut m = test_machine(64);
        m.superstep(|ctx| {
            if ctx.pid() == 0 {
                ctx.send_word_u32(1, 5);
            }
        });
        m.superstep(|ctx| {
            if ctx.pid() == 1 {
                assert_eq!(ctx.msgs().len(), 1);
            }
        });
        m.superstep(|ctx| {
            assert!(
                ctx.msgs().is_empty(),
                "stale messages must not survive the pooled path"
            );
        });
    }

    #[test]
    fn delivery_order_is_deterministic_by_source() {
        let mut m = test_machine(8);
        m.superstep(|ctx| {
            let pid = ctx.pid() as u32;
            ctx.send_words_u32(0, &[pid, pid + 100]);
        });
        m.superstep(|ctx| {
            if ctx.pid() == 0 {
                let srcs: Vec<usize> = ctx.msgs().iter().map(|m| m.src).collect();
                assert_eq!(srcs, (0..8).collect::<Vec<_>>());
            }
        });
    }

    #[test]
    fn clock_accumulates_compute_and_comm() {
        let mut m = Machine::new(
            Box::new(TextbookBspNetwork {
                g: 2.0,
                l: 10.0,
                sigma: 0.0,
                ell: 0.0,
            }),
            Arc::new(UniformCompute::test_model()),
            vec![(); 4],
            1,
        );
        m.superstep(|ctx| {
            ctx.charge(5.0);
            let dst = (ctx.pid() + 1) % 4;
            ctx.send_words_u32(dst, &[1, 2, 3]);
        });
        // compute 5 + g·3 + L = 5 + 6 + 10 = 21
        assert!((m.time().as_micros() - 21.0).abs() < 1e-9);
        m.sync(); // barrier only: +L
        assert!((m.time().as_micros() - 31.0).abs() < 1e-9);
        assert_eq!(m.supersteps(), 2);
    }

    #[test]
    fn compute_time_is_the_maximum_over_processors() {
        let mut m = test_machine(4);
        m.superstep(|ctx| {
            ctx.charge(ctx.pid() as f64 * 10.0);
        });
        assert!((m.time().as_micros() - 30.0).abs() < 1e-9);
        let b = m.breakdown();
        assert!((b.compute.as_micros() - 30.0).abs() < 1e-9);
        assert_eq!(b.comm, SimTime::ZERO);
    }

    #[test]
    fn traces_capture_pattern_statistics() {
        let mut m = test_machine(4);
        m.superstep(|ctx| {
            if ctx.pid() < 2 {
                ctx.send_words_u32(3, &[1, 2]);
            }
        });
        let t = &m.traces()[0];
        assert_eq!(t.messages, 4);
        assert_eq!(t.h_send, 2);
        assert_eq!(t.h_recv, 4);
        assert_eq!(t.active, 3, "procs 0, 1 and 3 participate");
    }

    #[test]
    fn sequential_and_parallel_execution_agree() {
        let run = || {
            let mut m = test_machine(16);
            m.superstep(|ctx| {
                ctx.charge(1.5);
                let dst = (ctx.pid() * 5 + 3) % 16;
                ctx.send_word_u32(dst, ctx.pid() as u32);
            });
            m.superstep(|ctx| {
                let sum: u32 = ctx.msgs().iter().map(|m| m.word_u32()).sum();
                ctx.state.push(sum);
            });
            (m.time(), m.into_states())
        };
        assert_eq!(run(), crate::probe::with_sequential(run));
    }

    #[test]
    fn per_proc_rng_is_deterministic_and_distinct() {
        let mut m = test_machine(4);
        m.superstep(|ctx| {
            let v: u32 = {
                use rand::RngExt;
                ctx.rng().random()
            };
            ctx.state.push(v);
        });
        let first: Vec<u32> = m.states().iter().map(|s| s[1]).collect();
        let mut m2 = test_machine(4);
        m2.superstep(|ctx| {
            let v: u32 = {
                use rand::RngExt;
                ctx.rng().random()
            };
            ctx.state.push(v);
        });
        let second: Vec<u32> = m2.states().iter().map(|s| s[1]).collect();
        assert_eq!(first, second, "same seed, same draws");
        assert!(
            first.windows(2).any(|w| w[0] != w[1]),
            "different procs draw differently"
        );
    }

    #[test]
    fn reset_clock_keeps_state() {
        let mut m = test_machine(2);
        m.superstep(|ctx| ctx.charge(10.0));
        m.reset_clock();
        assert_eq!(m.time(), SimTime::ZERO);
        assert!(m.traces().is_empty());
        assert_eq!(m.states()[1], vec![1]);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = Machine::<u32>::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![],
            0,
        );
    }
}
