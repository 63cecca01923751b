//! The machine's one observation hook: every superstep, for every tool.
//!
//! A [`SuperstepProbe`] is handed each superstep's exact cost — the
//! `compute`/`comm` [`SimTime`] pair the machine just added to its clock,
//! which exchange engine ran, how long each engine phase took in
//! wall-clock nanoseconds, how the send records split across exchange
//! shards, and the cumulative route-memo and cost-term counters of the
//! network model. An observer that also needs the superstep's *semantics*
//! opts into [`StepDetail`] through [`SuperstepProbe::wants_detail`]:
//! the ordered communication pattern, inbox occupancy and read flags,
//! charge flags, out-of-range sends, shadow events and send metadata.
//! The tracing layer (`pcm-trace`) observes costs only; the sanitizer
//! (`pcm-check`), the race analyzer (`pcm-race`) and dry-run plan
//! extraction ([`crate::extract_plans`]) take the detail.
//!
//! Every knob a tool turns on the machines it drives lives in one
//! thread-local hook state, changed only through scopes that restore
//! the whole previous state on exit (also on panic):
//!
//! * [`with_probe`] installs an observer factory;
//! * [`crate::extract_plans`] installs the plan recorder and makes runs
//!   dry (no pricing, the clock stays at zero);
//! * [`with_sequential`] forces sequential processor execution and with it
//!   the single-sweep exchange, the determinism auditor's reference;
//! * [`with_exchange_shards`] pins the exchange shard count.
//!
//! A machine has at most one observer, so the two observer scopes (and
//! the tools built on them: `pcm-trace`'s capture, `pcm-check`'s
//! sanitizer, `pcm-race`) do not nest: entering one inside another
//! panics rather than silently taking the outer observer's machines.
//!
//! The hook is thread-local because algorithms construct machines
//! internally (via `Platform::machine`); a machine reads it once, at
//! construction. Observers therefore need no `Send` bound and can share
//! state with their installer through `Rc<RefCell<..>>`.
//!
//! Design constraints, in order:
//!
//! * **zero cost when off** — an unobserved machine pays one `Option`
//!   discriminant test per superstep; no `Instant::now()` is ever taken.
//! * **zero perturbation when on** — the observer runs strictly after the
//!   clock update and delivery, never touches the network rng, and reads
//!   only values the machine computed anyway, so simulated times, golden
//!   digests and delivery order are bit-identical with and without one
//!   (held by `tests/trace.rs`). Both exchange engines report through the
//!   same call.
//! * **no steady-state allocation** — the machine's observer scratch is
//!   allocated at construction; observers that want the zero-allocation
//!   gate to hold with tracing ON must preallocate their own storage (see
//!   `pcm-trace`'s ring sink).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use pcm_core::SimTime;

use crate::cache::CacheStats;
use crate::ctx::ProcAux;
use crate::network::NetTerms;
use crate::pattern::CommPattern;
use crate::shadow::{SendMeta, ShadowEvent};

/// Which exchange engine ran the superstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangePath {
    /// Single-sweep sequential exchange.
    Fused,
    /// Sharded parallel exchange (scatter/price/gather/recycle).
    Sharded,
}

impl ExchangePath {
    /// Stable lower-case label (used by trace exporters).
    pub fn label(self) -> &'static str {
        match self {
            ExchangePath::Fused => "fused",
            ExchangePath::Sharded => "sharded",
        }
    }
}

/// Wall-clock nanoseconds per engine phase of one superstep. Phases not
/// run by the active exchange path are zero (the fused path folds
/// delivery into `gather`; only the sharded path has `scatter`/`recycle`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Processor execution (the user closure over all processors).
    pub compute: u64,
    /// Sharded pattern rebuild + lane fill.
    pub scatter: u64,
    /// Network pricing (`route`/`barrier`).
    pub price: u64,
    /// Delivery (lane merge, or the fused delivery sweep).
    pub gather: u64,
    /// Sender-affine heap-payload recycling (+ trace-partial merge).
    pub recycle: u64,
}

impl PhaseNanos {
    /// Total attributed wall time of the superstep.
    pub fn total(&self) -> u64 {
        self.compute + self.scatter + self.price + self.gather + self.recycle
    }
}

/// Everything the machine reports about one superstep, handed to the
/// installed [`SuperstepProbe`] *after* the clock update and delivery.
pub struct StepObs<'a> {
    /// Superstep index (0-based).
    pub step: usize,
    /// Compute time this superstep added to the clock.
    pub compute: SimTime,
    /// Communication time this superstep added to the clock.
    pub comm: SimTime,
    /// The machine clock *after* this superstep. Folding
    /// `compute + comm` per step in order reproduces this value
    /// bit-identically (same additions, same order).
    pub clock: SimTime,
    /// Total send records of the superstep (0 means the network priced a
    /// bare barrier).
    pub records: usize,
    /// Which exchange engine ran.
    pub path: ExchangePath,
    /// Per-shard send-record counts (empty unless `path` is `Sharded`);
    /// the deterministic shard-imbalance observable.
    pub shard_records: &'a [u64],
    /// Wall-clock phase breakdown (non-deterministic; diagnostics only;
    /// zero on dry runs).
    pub phases: PhaseNanos,
    /// Cumulative route-memo statistics of the network model, if any
    /// (`None` on dry runs, which never price).
    pub memo: Option<CacheStats>,
    /// Cumulative deterministic cost-term counters of the network model,
    /// if it implements [`crate::NetworkModel::cost_terms`] (`None` on dry
    /// runs).
    pub terms: Option<NetTerms>,
    /// The superstep's semantics; `Some` exactly when the observer opted
    /// in through [`SuperstepProbe::wants_detail`].
    pub detail: Option<StepDetail<'a>>,
}

/// What one superstep did, beyond its cost: the view the sanitizer, the
/// race analyzer and plan extraction check. Per-processor values are
/// indexed by processor id in `0..p`. On dry runs (plan extraction) the
/// shadow events and send metadata are empty, and an out-of-range send
/// fails fast in debug builds as on an unobserved machine.
pub struct StepDetail<'a> {
    /// Number of processors.
    pub p: usize,
    /// The full ordered communication pattern of the superstep.
    pub pattern: &'a CommPattern,
    /// Per-processor count of messages that were in the inbox this
    /// superstep (delivered at the previous barrier).
    pub inbox_count: &'a [usize],
    pub(crate) procs: &'a [ProcAux],
}

impl StepDetail<'_> {
    /// Local computation `pid` charged this superstep, in µs.
    pub fn compute_us(&self, pid: usize) -> f64 {
        self.procs[pid].compute_us
    }

    /// `false` if any of `pid`'s `charge*` calls was NaN, infinite or
    /// negative.
    pub fn charge_ok(&self, pid: usize) -> bool {
        self.procs[pid].charge_ok
    }

    /// Did `pid` read its inbox (any `msgs*` accessor) this superstep?
    pub fn inbox_read(&self, pid: usize) -> bool {
        self.procs[pid].read_inbox
    }

    /// Destinations `>= p` that `pid` sent to; those messages were
    /// dropped.
    pub fn oob_sends(&self, pid: usize) -> &[usize] {
        &self.procs[pid].oob_sends
    }

    /// `pid`'s shadow events (region touches and inbox consumes), in
    /// program order.
    pub fn events(&self, pid: usize) -> &[ShadowEvent] {
        &self.procs[pid].events
    }

    /// Metadata of every deliverable message `pid` sent, in send order
    /// (out-of-range and empty sends excluded).
    pub fn sends(&self, pid: usize) -> &[SendMeta] {
        &self.procs[pid].sent
    }
}

/// End-of-run summary handed to the observer when the machine is dropped.
pub struct RunReport<'a> {
    /// Number of supersteps the machine executed.
    pub supersteps: usize,
    /// Per-processor count of messages delivered at the last barrier and
    /// never consumed (the machine was dropped with them in the inbox).
    pub pending_inbox: &'a [usize],
}

/// Observer of a machine's supersteps. Implementations live outside
/// `pcm-sim` (`pcm-trace`, `pcm-check`, `pcm-race`) except the plan
/// recorder behind [`crate::extract_plans`]; the simulator only defines
/// the reporting contract.
pub trait SuperstepProbe {
    /// Called once per superstep, after the clock update and delivery.
    fn observe(&mut self, obs: &StepObs<'_>);

    /// Opts into [`StepObs::detail`]. Read once, when the machine is
    /// built; observers that decline pay nothing for it.
    fn wants_detail(&self) -> bool {
        false
    }

    /// Called once when the machine is dropped.
    fn finish(&mut self, _report: &RunReport<'_>) {}
}

/// Factory invoked by `Machine::new` with the processor count.
pub type ProbeFactory = Rc<dyn Fn(usize) -> Box<dyn SuperstepProbe>>;

/// Everything the hook scopes set, as seen by a machine under
/// construction on this thread.
#[derive(Clone, Default)]
pub(crate) struct HookState {
    /// Builds each new machine's observer.
    pub probe: Option<ProbeFactory>,
    /// Dry run: skip pricing and tracing; the clock stays at zero.
    pub dry: bool,
    /// Sequential processor execution (and so the fused exchange).
    pub sequential: bool,
    /// Exchange shard count overriding the default.
    pub shards: Option<usize>,
}

thread_local! {
    static HOOK: RefCell<HookState> = RefCell::new(HookState::default());
}

/// Restores the saved hook state when dropped, so every scope unwinds
/// cleanly on panic.
struct HookGuard(HookState);

impl Drop for HookGuard {
    fn drop(&mut self) {
        let prev = std::mem::take(&mut self.0);
        HOOK.with(|h| *h.borrow_mut() = prev);
    }
}

/// Runs `body` with the hook state changed by `edit`, then restores the
/// whole previous state.
pub(crate) fn scoped<R>(edit: impl FnOnce(&mut HookState), body: impl FnOnce() -> R) -> R {
    let prev = HOOK.with(|h| {
        let prev = h.borrow().clone();
        edit(&mut h.borrow_mut());
        prev
    });
    let _guard = HookGuard(prev);
    body()
}

/// The hook state a machine under construction adopts.
pub(crate) fn current() -> HookState {
    HOOK.with(|h| h.borrow().clone())
}

/// Installs `factory` as the observer of the hook state `h`; `dry` runs
/// its machines unpriced.
///
/// # Panics
///
/// If an observer is already installed: the inner one would silently
/// take the outer one's machines.
pub(crate) fn install(h: &mut HookState, factory: ProbeFactory, dry: bool) {
    assert!(
        h.probe.is_none(),
        "observer scopes do not nest: with_probe / extract_plans entered \
         inside another observer scope"
    );
    h.probe = Some(factory);
    h.dry = dry;
}

/// Runs `body` with `factory` installed: every [`crate::Machine`] created
/// on this thread inside `body` gets its own observer from the factory.
///
/// # Panics
///
/// If called inside another observer scope (this one or
/// [`crate::extract_plans`], and so inside any tool built on them).
pub fn with_probe<R>(
    factory: impl Fn(usize) -> Box<dyn SuperstepProbe> + 'static,
    body: impl FnOnce() -> R,
) -> R {
    let factory: ProbeFactory = Rc::new(factory);
    scoped(|h| install(h, factory, false), body)
}

/// Runs `body` with machines forced to sequential processor execution,
/// which also pins the single-sweep exchange. The determinism auditor
/// compares a pooled run against this reference.
pub fn with_sequential<R>(body: impl FnOnce() -> R) -> R {
    scoped(|h| h.sequential = true, body)
}

/// Runs `body` with machines forced to use exactly `shards` exchange
/// shards (clamped at construction to `[1, min(p, MAX_SHARDS)]`),
/// regardless of pool width, processor count or thread. The determinism
/// auditor and the bit-identity sweeps use it to run the sharded engine
/// on machines too small to shard by default.
pub fn with_exchange_shards<R>(shards: usize, body: impl FnOnce() -> R) -> R {
    scoped(|h| h.shards = Some(shards), body)
}

/// Starts a wall-clock phase span — only when an observer is installed,
/// so the unobserved hot path never calls `Instant::now()`.
#[inline]
pub(crate) fn mark(probing: bool) -> Option<Instant> {
    probing.then(Instant::now)
}

/// Ends a phase span begun by [`mark`], in saturating nanoseconds.
#[inline]
pub(crate) fn since(t: Option<Instant>) -> u64 {
    t.map_or(0, |t| {
        u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::UniformCompute;
    use crate::message::MsgKind;
    use crate::network::IdealNetwork;
    use crate::Machine;
    use std::cell::Cell;
    use std::sync::Arc;

    /// Records one line per observed superstep and one at the finish.
    struct Recorder {
        log: Rc<RefCell<Vec<String>>>,
        detail: bool,
    }

    impl SuperstepProbe for Recorder {
        fn observe(&mut self, obs: &StepObs<'_>) {
            let read = obs
                .detail
                .as_ref()
                .map(|d| (0..d.p).map(|pid| d.inbox_read(pid)).collect::<Vec<_>>());
            self.log.borrow_mut().push(format!(
                "step {} records {} read {read:?}",
                obs.step, obs.records
            ));
        }

        fn wants_detail(&self) -> bool {
            self.detail
        }

        fn finish(&mut self, r: &RunReport<'_>) {
            self.log.borrow_mut().push(format!(
                "finish after {} pending {:?}",
                r.supersteps, r.pending_inbox
            ));
        }
    }

    fn recorder(
        log: &Rc<RefCell<Vec<String>>>,
        detail: bool,
    ) -> impl Fn(usize) -> Box<dyn SuperstepProbe> {
        let log = log.clone();
        move |_p| {
            Box::new(Recorder {
                log: log.clone(),
                detail,
            })
        }
    }

    fn machine(p: usize) -> Machine<u32> {
        Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![0u32; p],
            9,
        )
    }

    #[test]
    fn probe_sees_every_superstep_and_the_finish() {
        let log: Rc<RefCell<Vec<String>>> = Rc::default();
        for detail in [false, true] {
            log.borrow_mut().clear();
            with_probe(recorder(&log, detail), || {
                let mut m = machine(2);
                let send = |ctx: &mut crate::Ctx<'_, u32>| {
                    if ctx.pid() == 0 {
                        ctx.send_word_u32(1, 7);
                    }
                };
                m.superstep(send);
                m.superstep(|ctx| {
                    let _ = ctx.msgs();
                });
                // Dropped with this message delivered but never read.
                m.superstep(send);
            });
            let (unread, read) = if detail {
                ("Some([false, false])", "Some([true, true])")
            } else {
                ("None", "None")
            };
            assert_eq!(
                *log.borrow(),
                [
                    format!("step 0 records 1 read {unread}"),
                    format!("step 1 records 0 read {read}"),
                    format!("step 2 records 1 read {unread}"),
                    String::from("finish after 3 pending [0, 1]"),
                ]
            );
        }
    }

    #[test]
    fn probe_does_not_change_simulated_time() {
        let run = || {
            let mut m = machine(8);
            m.superstep(|ctx| {
                ctx.charge(2.0);
                let dst = (ctx.pid() + 1) % ctx.nprocs();
                ctx.send_word_u32(dst, 1);
            });
            m.superstep(|ctx| {
                let _ = ctx.msgs();
            });
            m.time()
        };
        let bare = run();
        for detail in [false, true] {
            let probed = with_probe(recorder(&Rc::default(), detail), run);
            assert_eq!(bare, probed, "probe must not perturb the clock");
        }
    }

    /// Nesting every scope restores the whole previous hook state, on
    /// normal exit and on panic alike; observer scopes refuse to nest.
    #[test]
    fn nested_scopes_restore_the_whole_hook_state() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let log: Rc<RefCell<Vec<String>>> = Rc::default();
        let snapshot = || {
            let h = current();
            (h.probe.is_some(), h.dry, h.sequential, h.shards)
        };
        let outer = with_sequential(|| {
            with_exchange_shards(3, || {
                let before = snapshot();
                assert_eq!(before, (false, false, true, Some(3)));
                let ((), plans) = crate::extract_plans(|| {
                    with_exchange_shards(5, || {
                        assert_eq!(snapshot(), (true, true, true, Some(5)));
                        machine(2).sync();
                    });
                    assert_eq!(snapshot(), (true, true, true, Some(3)));
                });
                assert_eq!(plans.len(), 1, "the plan recorder saw the machine");
                assert_eq!(snapshot(), before, "exit restores everything");
                with_probe(recorder(&log, false), || {
                    assert_eq!(snapshot(), (true, false, true, Some(3)));
                    machine(2).sync();
                    let nested = catch_unwind(|| crate::extract_plans(|| ()));
                    assert!(nested.is_err(), "extract_plans inside with_probe");
                    let inner = recorder(&log, false);
                    let nested = catch_unwind(AssertUnwindSafe(|| with_probe(inner, || ())));
                    assert!(nested.is_err(), "with_probe inside with_probe");
                    assert_eq!(snapshot(), (true, false, true, Some(3)));
                });
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    with_sequential(|| {
                        with_exchange_shards(9, || {
                            crate::extract_plans(|| panic!("unwind through every scope"))
                        })
                    })
                }));
                assert!(caught.is_err());
                assert_eq!(snapshot(), before, "panic restores everything");
            });
            snapshot()
        });
        assert_eq!(outer, (false, false, true, None));
        assert_eq!(snapshot(), (false, false, false, None));
        assert_eq!(
            *log.borrow(),
            [
                "step 0 records 0 read None",
                "finish after 1 pending [0, 0]"
            ],
            "only the machine inside with_probe reached the probe"
        );
        let mut m = machine(2);
        m.superstep(|ctx| ctx.charge(1.0));
        assert!(
            m.time() > SimTime::ZERO,
            "outside the scopes machines price"
        );
        drop(m);
        assert_eq!(log.borrow().len(), 2, "nothing observed outside the scope");
    }

    /// Cross-checks the detail fields against each other on every step:
    /// the inbox counts of step `s` must equal the per-destination
    /// deliverable send counts of step `s-1`, `inbox_read` must agree with
    /// the presence of `Consume` shadow events, and the pattern's message
    /// total must equal the flattened send metadata.
    struct CountingProbe {
        prev_sends_per_dst: Vec<usize>,
        steps_seen: Rc<Cell<usize>>,
    }

    impl SuperstepProbe for CountingProbe {
        fn observe(&mut self, obs: &StepObs<'_>) {
            let r = obs.detail.as_ref().expect("detail requested");
            assert_eq!(
                r.inbox_count,
                &self.prev_sends_per_dst[..],
                "step {}: inbox counts must match the previous step's sends",
                obs.step
            );
            // Recompute the pattern's logical message count `M` from the
            // send metadata: a Words send is priced per word, a block once.
            let sent_total: usize = (0..r.p)
                .flat_map(|pid| r.sends(pid))
                .map(|s| match s.kind {
                    MsgKind::Words => s.words,
                    MsgKind::Block | MsgKind::Xnet => 1,
                })
                .sum();
            assert_eq!(
                r.pattern.total_messages(),
                sent_total,
                "step {}: priced pattern disagrees with the send metadata",
                obs.step
            );
            let mut per_dst = vec![0usize; r.p];
            for pid in 0..r.p {
                let consumed = r
                    .events(pid)
                    .iter()
                    .any(|e| matches!(e, ShadowEvent::Consume { .. }));
                assert_eq!(
                    r.inbox_read(pid),
                    consumed,
                    "step {} pid {pid}: inbox_read flag vs Consume events",
                    obs.step
                );
                for s in r.sends(pid) {
                    per_dst[s.dst] += 1;
                }
            }
            self.prev_sends_per_dst = per_dst;
            self.steps_seen.set(self.steps_seen.get() + 1);
        }

        fn wants_detail(&self) -> bool {
            true
        }
    }

    #[test]
    fn step_detail_fields_are_mutually_consistent() {
        let steps_seen = Rc::new(Cell::new(0usize));
        let counter = steps_seen.clone();
        with_probe(
            move |p| {
                Box::new(CountingProbe {
                    prev_sends_per_dst: vec![0; p],
                    steps_seen: counter.clone(),
                })
            },
            || {
                let mut m = machine(4);
                // An uneven pattern: 0 fans out, 3 stays silent.
                m.superstep(|ctx| {
                    if ctx.pid() == 0 {
                        ctx.send_words_u32(1, &[1, 2]);
                        ctx.send_word_u32(2, 3);
                    }
                });
                m.superstep(|ctx| {
                    if ctx.pid() <= 2 {
                        let n = u32::try_from(ctx.msgs().len()).unwrap();
                        ctx.send_word_u32(3, n);
                    }
                });
                m.superstep(|ctx| {
                    let _ = ctx.msgs_tagged(0).count();
                });
            },
        );
        assert_eq!(steps_seen.get(), 3, "probe observed every superstep");
    }
}
