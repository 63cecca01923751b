//! The bridge between `pcm-sim`'s probe hook and this crate's storage:
//! a preallocated per-machine row log, the multi-lane event sink, and the
//! metric set, all filled by a [`SuperstepProbe`] implementation.
//!
//! Everything a probe touches per superstep was allocated when the
//! machine was constructed (rows, lanes, scratch), so the simulator's
//! zero-allocation steady state holds with tracing enabled — the property
//! `tests/hotpath_alloc.rs` gates.

use std::cell::RefCell;
use std::rc::Rc;

use pcm_core::SimTime;
use pcm_sim::cache::CacheStats;
use pcm_sim::{with_probe, ExchangePath, NetTerms, PhaseNanos, StepObs, SuperstepProbe};

use crate::event::{EventKind, TraceEvent};
use crate::metrics::Metrics;
use crate::sink::TraceSink;

/// Default per-machine row capacity — far above any replayed grid point
/// (the largest sweeps run a few hundred supersteps).
pub const DEFAULT_ROW_CAP: usize = 4096;

/// Default per-lane event capacity (two events per superstep).
pub const DEFAULT_LANE_CAP: usize = 2 * DEFAULT_ROW_CAP;

/// One observed superstep, as recorded for attribution and export.
#[derive(Clone, Copy, Debug)]
pub struct StepRow {
    /// Machine index within the capture (factories are invoked per machine).
    pub machine: u32,
    /// Superstep index within that machine.
    pub step: u32,
    /// Compute time added to the clock.
    pub compute: SimTime,
    /// Communication time added to the clock.
    pub comm: SimTime,
    /// Machine clock after the step.
    pub clock: SimTime,
    /// Send records priced this step.
    pub records: u64,
    /// Exchange engine that ran.
    pub path: ExchangePath,
    /// Shard count (sharded path only).
    pub shards: u32,
    /// Largest per-shard record count (sharded path only).
    pub shard_max: u64,
    /// Wall-clock engine-phase breakdown (diagnostics only).
    pub phases: PhaseNanos,
    /// Cumulative route-memo stats after the step, if the model memoizes.
    pub memo: Option<CacheStats>,
    /// Cumulative network cost-term counters after the step, if reported.
    pub terms: Option<NetTerms>,
}

/// The per-machine row log of one capture.
#[derive(Debug)]
pub struct MachineRun {
    /// Processor count the machine was built with.
    pub p: usize,
    /// Observed supersteps, in order.
    pub rows: Vec<StepRow>,
    /// Rows discarded because the preallocated log filled up. Non-zero
    /// voids the exactness guarantee (and fails [`MachineRun::attribution_exact`]).
    pub dropped: u64,
}

impl MachineRun {
    /// Replays the machine's clock from the per-step attribution, using
    /// the exact expression the simulator uses (`clock += compute + comm`)
    /// so f64 rounding matches addition for addition.
    pub fn folded_clock(&self) -> SimTime {
        let mut t = SimTime::ZERO;
        for r in &self.rows {
            t += r.compute + r.comm;
        }
        t
    }

    /// The machine clock after the last observed step.
    pub fn final_clock(&self) -> SimTime {
        self.rows.last().map_or(SimTime::ZERO, |r| r.clock)
    }

    /// `true` iff the per-step attribution reproduces the machine clock
    /// *bit-identically* and no rows were dropped.
    pub fn attribution_exact(&self) -> bool {
        self.dropped == 0
            && self.folded_clock().as_micros().to_bits() == self.final_clock().as_micros().to_bits()
    }

    /// Sum of compute times (reported µs; not part of the exactness gate).
    pub fn compute_us(&self) -> f64 {
        self.rows.iter().map(|r| r.compute.as_micros()).sum()
    }

    /// Sum of communication times (reported µs).
    pub fn comm_us(&self) -> f64 {
        self.rows.iter().map(|r| r.comm.as_micros()).sum()
    }

    /// Total wall nanoseconds per engine phase across steps.
    pub fn wall_phase_totals(&self) -> PhaseNanos {
        let mut t = PhaseNanos::default();
        for r in &self.rows {
            t.compute += r.phases.compute;
            t.scatter += r.phases.scatter;
            t.price += r.phases.price;
            t.gather += r.phases.gather;
            t.recycle += r.phases.recycle;
        }
        t
    }
}

/// Everything one traced scope produced: ordered events, metrics, and the
/// per-machine attribution rows.
#[derive(Debug)]
pub struct Capture {
    /// Multi-lane ring sink (lane = machine index, folding over).
    pub sink: TraceSink,
    /// The run's metric set.
    pub metrics: Metrics,
    /// One entry per machine constructed in the scope, in order.
    pub runs: Vec<MachineRun>,
    row_cap: usize,
}

impl Capture {
    fn new(lanes: usize, row_cap: usize, lane_cap: usize) -> Self {
        Capture {
            sink: TraceSink::new(lanes, lane_cap),
            metrics: Metrics::new(),
            runs: Vec::new(),
            row_cap,
        }
    }

    /// The run whose final clock bit-equals `time`, if any — how callers
    /// find "the machine that produced this result" when an algorithm
    /// constructs more than one.
    pub fn run_matching(&self, time: SimTime) -> Option<&MachineRun> {
        let bits = time.as_micros().to_bits();
        self.runs
            .iter()
            .rev()
            .find(|r| r.final_clock().as_micros().to_bits() == bits)
    }
}

/// The probe installed per machine: writes rows, events and metrics into
/// the shared [`Capture`]. All its storage is preallocated when the
/// machine is constructed.
struct RingProbe {
    shared: Rc<RefCell<Capture>>,
    /// Index of this probe's `MachineRun` (also its sink lane).
    machine: usize,
    /// Clock before the next observed step (for event start times).
    prev_clock: SimTime,
    /// Memo stats at the previous step (for per-step deltas).
    prev_memo: CacheStats,
}

impl SuperstepProbe for RingProbe {
    fn observe(&mut self, obs: &StepObs<'_>) {
        let mut cap = self.shared.borrow_mut();
        let cap = &mut *cap;
        let step = u32::try_from(obs.step).unwrap_or(u32::MAX);
        let records = obs.records as u64; // usize fits in u64
        let shard_max = obs.shard_records.iter().copied().max().unwrap_or(0);

        // Metrics.
        let m = &cap.metrics;
        m.supersteps.inc();
        m.records.add(records);
        if records == 0 {
            m.barrier_steps.inc();
        }
        m.step_records.record(records);
        if obs.path == ExchangePath::Sharded {
            m.shard_max_records.record(shard_max);
        }
        if let Some(cur) = obs.memo {
            let prev = self.prev_memo;
            m.memo_hits.add(cur.hits.saturating_sub(prev.hits));
            m.memo_misses.add(cur.misses.saturating_sub(prev.misses));
            m.memo_evictions
                .add(cur.evictions.saturating_sub(prev.evictions));
            m.memo_bypasses
                .add(cur.bypasses.saturating_sub(prev.bypasses));
            self.prev_memo = cur;
        }

        // Events: a compute slice then a comm/barrier slice, on the
        // simulated timeline.
        let ts = self.prev_clock.as_micros();
        cap.sink.record(
            self.machine,
            TraceEvent {
                seq: 0,
                step,
                lane: 0,
                kind: EventKind::Compute,
                ts_us: ts,
                dur_us: obs.compute.as_micros(),
                a: records,
                b: obs.phases.compute,
            },
        );
        cap.sink.record(
            self.machine,
            TraceEvent {
                seq: 0,
                step,
                lane: 0,
                kind: if records == 0 {
                    EventKind::Barrier
                } else {
                    EventKind::Comm
                },
                ts_us: ts + obs.compute.as_micros(),
                dur_us: obs.comm.as_micros(),
                a: records,
                b: obs.phases.total() - obs.phases.compute,
            },
        );

        // Attribution row.
        let run = &mut cap.runs[self.machine];
        if run.rows.len() < run.rows.capacity() {
            run.rows.push(StepRow {
                machine: u32::try_from(self.machine).unwrap_or(u32::MAX),
                step,
                compute: obs.compute,
                comm: obs.comm,
                clock: obs.clock,
                records,
                path: obs.path,
                shards: u32::try_from(obs.shard_records.len()).unwrap_or(u32::MAX),
                shard_max,
                phases: obs.phases,
                memo: obs.memo,
                terms: obs.terms,
            });
        } else {
            run.dropped += 1;
        }
        self.prev_clock = obs.clock;
    }
}

/// Runs `body` with tracing installed and returns its result plus the
/// filled [`Capture`]. Every machine constructed inside `body` gets its
/// own row log and sink lane (storage allocated at machine construction,
/// not per step).
///
/// Machines must not outlive `body` — the capture is single-owner again
/// when this returns.
///
/// # Panics
///
/// Inside another observer scope (`pcm_sim::with_probe` or
/// `pcm_sim::extract_plans`, and so inside any tool built on them): a
/// machine has one observer, and these scopes do not nest.
pub fn capture<R>(body: impl FnOnce() -> R) -> (R, Capture) {
    capture_sized(DEFAULT_ROW_CAP, DEFAULT_LANE_CAP, body)
}

/// [`capture`] with explicit row/lane capacities (tests use tiny rings).
pub fn capture_sized<R>(row_cap: usize, lane_cap: usize, body: impl FnOnce() -> R) -> (R, Capture) {
    // Lane count must be fixed up front (the sink preallocates); machines
    // beyond the lane budget share lane 0 but keep their own row logs.
    const LANES: usize = 8;
    let shared = Rc::new(RefCell::new(Capture::new(LANES, row_cap, lane_cap)));
    let hook = shared.clone();
    let out = with_probe(
        move |p| {
            let mut cap = hook.borrow_mut();
            let machine = cap.runs.len();
            let row_cap = cap.row_cap;
            cap.runs.push(MachineRun {
                p,
                rows: Vec::with_capacity(row_cap),
                dropped: 0,
            });
            Box::new(RingProbe {
                shared: hook.clone(),
                machine,
                prev_clock: SimTime::ZERO,
                prev_memo: CacheStats::default(),
            })
        },
        body,
    );
    let cap = Rc::try_unwrap(shared)
        .expect("machines must not outlive the capture scope")
        .into_inner();
    (out, cap)
}
