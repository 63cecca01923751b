//! Destination-sharded parallel exchange engine.
//!
//! The superstep exchange phase — communication-pattern rebuild,
//! outbox→inbox delivery and payload recycling — is inherently
//! all-to-all: every source may write into every
//! destination's inbox, and every consumed payload flows back to its
//! *sender's* pool. To run it shard-parallel with zero locks, the engine
//! partitions the `p` simulated processors into `S` contiguous shards and
//! gives each ordered (source-shard → destination-shard) pair its own
//! fixed *lane*:
//!
//! ```text
//!   scatter (src-parallel)     transpose        gather (dst-parallel)
//!   shard a: outbox ──► out[a][b]  ═swap═►  inb[b][a] ──► inbox   shard b
//! ```
//!
//! * **Scatter** — each source shard drains its outboxes in `(src,
//!   send-order)` order into its own `S` outgoing lanes, rebuilding the
//!   shard's slice of the [`CommPattern`] on the way. No two shards touch
//!   the same lane.
//! * **Transpose** — the coordinator swaps the `S²` lane `Vec` *headers*
//!   (pointer/len/capacity, no element moves) so every destination shard
//!   owns the column of lanes aimed at it. Capacities travel with the
//!   headers, which is what keeps the steady state allocation-free.
//! * **Gather** — each destination shard drains its incoming lanes in
//!   ascending source-shard order, appending to the destination inboxes.
//!   Within a lane, messages are already `(src ascending, send order)`
//!   (the scatter walked sources in order), so ascending-lane concatenation
//!   reproduces the sequential delivery order *exactly*, for any `S`.
//! * **Recycle** — consumed heap payloads are staged by the gather into a
//!   second lane family keyed by the *sender's* shard, transposed the same
//!   way, and returned sender-parallel to each [`PayloadPool`] in exactly
//!   the sequential recycle order (destination-ascending per sender).
//!
//! The engine only delivers: the superstep trace is measured afterwards
//! from the finished pattern, exactly as on the fused sweep (see
//! [`crate::trace::SuperstepTrace::measure`]).
//!
//! The fan-out itself uses the rayon shim's [`rayon::scoped_join`]: chunk
//! descriptors live on the caller's stack, shards map one-to-one onto
//! tasks, and a worker-thread caller degrades to the inline sequential
//! loop — so a machine driven from inside a sweep-driver worker still
//! executes correctly (and deterministically) without nested pool entry.
//!
//! [`PayloadPool`]: crate::message::PayloadPool

use crate::ctx::ProcAux;
use crate::message::{Message, Payload};
use crate::pattern::{CommPattern, SendRecord};

/// Upper bound on exchange shards. Keeps the per-superstep task
/// descriptors in fixed stack arrays and the lane grid (`S²` vectors) at a
/// sane size; pool widths beyond this see no exchange-phase benefit.
pub const MAX_SHARDS: usize = 32;

/// Contiguous near-equal partition of `p` processors into `s` shards:
/// the first `r = p mod s` shards hold `q + 1` processors, the rest `q`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Geom {
    q: usize,
    r: usize,
    s: usize,
}

impl Geom {
    fn new(p: usize, s: usize) -> Self {
        debug_assert!(s >= 1 && s <= p);
        Geom {
            q: p / s,
            r: p % s,
            s,
        }
    }

    /// Shard owning processor `i`.
    #[inline]
    fn shard_of(self, i: usize) -> usize {
        let wide = (self.q + 1) * self.r;
        if i < wide {
            i / (self.q + 1)
        } else {
            self.r + (i - wide) / self.q
        }
    }

    /// Number of processors in `shard`.
    fn len_of(self, shard: usize) -> usize {
        self.q + usize::from(shard < self.r)
    }
}

/// Per-shard scatter and gather counters, merged in ascending shard
/// order after each parallel phase.
#[derive(Debug, Default)]
struct ShardStats {
    records: usize,
    max_compute: f64,
    heap_staged: usize,
}

/// One shard's lane endpoints and scratch. All vectors keep their
/// capacity across supersteps, so the steady state never allocates.
#[derive(Debug)]
struct ShardSlot {
    /// Src-major outgoing message lanes: `out[d]` aims at dest shard `d`.
    out: Vec<Vec<Message>>,
    /// Dst-major incoming message lanes (after the transpose): `inb[s]`
    /// came from source shard `s`.
    inb: Vec<Vec<Message>>,
    /// Heap payloads staged by the gather, keyed by the *sender's* shard.
    rec_out: Vec<Vec<(usize, Vec<u8>)>>,
    /// Staged payloads owned by this (sender) shard after the transpose,
    /// keyed by the consuming destination's shard.
    rec_in: Vec<Vec<(usize, Vec<u8>)>>,
    stats: ShardStats,
}

impl ShardSlot {
    fn new(s: usize) -> Self {
        ShardSlot {
            out: (0..s).map(|_| Vec::new()).collect(),
            inb: (0..s).map(|_| Vec::new()).collect(),
            rec_out: (0..s).map(|_| Vec::new()).collect(),
            rec_in: (0..s).map(|_| Vec::new()).collect(),
            stats: ShardStats::default(),
        }
    }
}

/// Source-side merge of one superstep's scatter phase.
#[derive(Debug, Default)]
pub(crate) struct ScatterSummary {
    pub total_records: usize,
    pub max_compute: f64,
}

/// Reusable lane grid + per-shard scratch for the sharded exchange.
#[derive(Debug, Default)]
pub(crate) struct ExchangeScratch {
    p: usize,
    s: usize,
    slots: Vec<ShardSlot>,
}

/// A shard's outbound and inbound lane arrays for one traffic kind.
type LanePair<'a, X> = (&'a mut Vec<Vec<X>>, &'a mut Vec<Vec<X>>);

/// Swaps `out[a][b] ↔ inb[b][a]` for every ordered shard pair — a pure
/// `Vec`-header transpose between the src-major and dst-major lane views.
fn transpose<X>(slots: &mut [ShardSlot], split: fn(&mut ShardSlot) -> LanePair<'_, X>) {
    let s = slots.len();
    for a in 0..s {
        {
            let (out, inb) = split(&mut slots[a]);
            let (o, i) = (&mut out[a], &mut inb[a]);
            std::mem::swap(o, i);
        }
        for b in a + 1..s {
            let (left, right) = slots.split_at_mut(b);
            let (oa, ia) = split(&mut left[a]);
            let (ob, ib) = split(&mut right[0]);
            std::mem::swap(&mut oa[b], &mut ib[a]);
            std::mem::swap(&mut ob[a], &mut ia[b]);
        }
    }
}

fn msg_lanes(slot: &mut ShardSlot) -> LanePair<'_, Message> {
    (&mut slot.out, &mut slot.inb)
}

fn rec_lanes(slot: &mut ShardSlot) -> LanePair<'_, (usize, Vec<u8>)> {
    (&mut slot.rec_out, &mut slot.rec_in)
}

/// Scatter-phase task: one source shard's slice of every per-processor
/// structure, plus its lane slot. Built fresh (on the stack) each phase.
struct ScatterTask<'a> {
    geom: Geom,
    procs: &'a mut [ProcAux],
    sends: &'a mut [Vec<SendRecord>],
    slot: &'a mut ShardSlot,
}

fn run_scatter(t: &mut ScatterTask<'_>) {
    let ShardSlot { out, stats, .. } = &mut *t.slot;
    *stats = ShardStats::default();
    for lane in out.iter_mut() {
        lane.clear();
    }
    for (k, aux) in t.procs.iter_mut().enumerate() {
        stats.max_compute = stats.max_compute.max(aux.compute_us);
        let sends = &mut t.sends[k];
        sends.clear();
        sends.reserve(aux.outbox.len());
        stats.records += aux.outbox.len();
        for m in aux.outbox.drain(..) {
            sends.push(SendRecord {
                dst: m.dst,
                words: m.logical_words as usize,
                bytes: m.logical_bytes as usize,
                kind: m.kind,
            });
            out[t.geom.shard_of(m.dst)].push(m);
        }
    }
}

/// Gather-phase task: one destination shard's inbox slice and
/// (transposed) incoming lanes.
struct GatherTask<'a> {
    geom: Geom,
    base: usize,
    procs: &'a mut [ProcAux],
    slot: &'a mut ShardSlot,
}

fn run_gather(t: &mut GatherTask<'_>) {
    let ShardSlot {
        inb,
        rec_out,
        stats,
        ..
    } = &mut *t.slot;
    for lane in rec_out.iter_mut() {
        lane.clear();
    }
    // Drain last superstep's consumed inboxes, staging heap payloads
    // toward their senders' shards in (dst ascending, inbox order) —
    // the sequential recycle order restricted to this shard.
    for aux in t.procs.iter_mut() {
        if aux.inbox_heap == 0 {
            // No heap payloads to stage; dropping inline payloads in
            // place is identical to draining them one by one.
            aux.inbox.clear();
            continue;
        }
        for msg in aux.inbox.drain(..) {
            let src = msg.src;
            if let Payload::Heap(buf) = msg.into_payload() {
                rec_out[t.geom.shard_of(src)].push((src, buf));
                stats.heap_staged += 1;
            }
        }
        aux.inbox_heap = 0;
    }
    // Deliver: ascending source-shard lanes reproduce the sequential
    // (src ascending, send order) inbox sequence exactly.
    for lane in inb.iter_mut() {
        for msg in lane.drain(..) {
            let aux = &mut t.procs[msg.dst - t.base];
            aux.inbox_heap += usize::from(msg.payload_is_heap());
            aux.inbox.push(msg);
        }
    }
}

/// Recycle-phase task: one *sender* shard returning its staged heap
/// payloads to its processors' pools.
struct RecycleTask<'a> {
    base: usize,
    procs: &'a mut [ProcAux],
    slot: &'a mut ShardSlot,
}

fn run_recycle(t: &mut RecycleTask<'_>) {
    let ShardSlot { rec_in, .. } = &mut *t.slot;
    // Ascending destination-shard lanes, each internally (dst ascending,
    // inbox order): exactly the sequential recycle order per sender pool.
    for lane in rec_in.iter_mut() {
        for (src, buf) in lane.drain(..) {
            t.procs[src - t.base].pool.recycle(Payload::Heap(buf));
        }
    }
}

impl ExchangeScratch {
    /// (Re)builds the lane grid when the machine's shard configuration
    /// changes; a no-op (and allocation-free) otherwise.
    fn ensure(&mut self, p: usize, s: usize) {
        if self.p == p && self.s == s {
            return;
        }
        self.p = p;
        self.s = s;
        self.slots = (0..s).map(|_| ShardSlot::new(s)).collect();
    }

    fn geom(&self) -> Geom {
        Geom::new(self.p, self.s)
    }

    /// Copies each shard's scatter-phase send-record count into `out`
    /// (deterministic: a pure function of the pattern and the shard
    /// geometry) and returns the shard count written. Valid after
    /// [`ExchangeScratch::scatter`]; used by the observability probe as
    /// the shard-imbalance observable.
    pub(crate) fn shard_records(&self, out: &mut [u64]) -> usize {
        let n = self.s.min(out.len());
        for (o, slot) in out.iter_mut().zip(&self.slots) {
            *o = slot.stats.records as u64; // usize fits in u64
        }
        n
    }

    /// Phase 1 (source-parallel): pattern rebuild + outbox scatter into
    /// the lanes; the per-shard counters merge in shard order.
    pub(crate) fn scatter(
        &mut self,
        p: usize,
        s: usize,
        procs: &mut [ProcAux],
        pattern: &mut CommPattern,
    ) -> ScatterSummary {
        self.ensure(p, s);
        let geom = self.geom();
        let mut tasks: [Option<ScatterTask<'_>>; MAX_SHARDS] = std::array::from_fn(|_| None);
        {
            let mut procs_rest = procs;
            let mut sends_rest = pattern.sends.as_mut_slice();
            let mut slots_rest = self.slots.as_mut_slice();
            for (i, task) in tasks.iter_mut().enumerate().take(s) {
                let len = geom.len_of(i);
                let (ph, pt) = std::mem::take(&mut procs_rest).split_at_mut(len);
                procs_rest = pt;
                let (sh, st) = std::mem::take(&mut sends_rest).split_at_mut(len);
                sends_rest = st;
                let (slot, rest) = std::mem::take(&mut slots_rest)
                    .split_first_mut()
                    .expect("one slot per shard");
                slots_rest = rest;
                *task = Some(ScatterTask {
                    geom,
                    procs: ph,
                    sends: sh,
                    slot,
                });
            }
        }
        rayon::scoped_join(&mut tasks[..s], |_, t| {
            run_scatter(t.as_mut().expect("scatter task built"));
        });

        let mut sum = ScatterSummary::default();
        for slot in &self.slots {
            sum.total_records += slot.stats.records;
            sum.max_compute = sum.max_compute.max(slot.stats.max_compute);
        }
        sum
    }

    /// Phase 2 (destination-parallel): lane transpose, old-inbox drain
    /// with recycle staging, delivery. Returns the number of heap
    /// payloads staged for recycling; at zero the recycle phase is
    /// skipped.
    pub(crate) fn gather(&mut self, procs: &mut [ProcAux]) -> usize {
        let s = self.s;
        let geom = self.geom();
        transpose(&mut self.slots, msg_lanes);
        let mut tasks: [Option<GatherTask<'_>>; MAX_SHARDS] = std::array::from_fn(|_| None);
        {
            let mut procs_rest = procs;
            let mut slots_rest = self.slots.as_mut_slice();
            let mut base = 0usize;
            for (i, task) in tasks.iter_mut().enumerate().take(s) {
                let len = geom.len_of(i);
                let (ph, pt) = std::mem::take(&mut procs_rest).split_at_mut(len);
                procs_rest = pt;
                let (slot, rest) = std::mem::take(&mut slots_rest)
                    .split_first_mut()
                    .expect("one slot per shard");
                slots_rest = rest;
                *task = Some(GatherTask {
                    geom,
                    base,
                    procs: ph,
                    slot,
                });
                base += len;
            }
        }
        rayon::scoped_join(&mut tasks[..s], |_, t| {
            run_gather(t.as_mut().expect("gather task built"));
        });
        self.slots.iter().map(|slot| slot.stats.heap_staged).sum()
    }

    /// Phase 3 (sender-parallel): return staged heap payloads to their
    /// senders' pools. Called only when the gather staged anything.
    pub(crate) fn recycle(&mut self, procs: &mut [ProcAux]) {
        let s = self.s;
        let geom = self.geom();
        transpose(&mut self.slots, rec_lanes);
        let mut tasks: [Option<RecycleTask<'_>>; MAX_SHARDS] = std::array::from_fn(|_| None);
        {
            let mut procs_rest = procs;
            let mut slots_rest = self.slots.as_mut_slice();
            let mut base = 0usize;
            for (i, task) in tasks.iter_mut().enumerate().take(s) {
                let len = geom.len_of(i);
                let (ph, pt) = std::mem::take(&mut procs_rest).split_at_mut(len);
                procs_rest = pt;
                let (slot, rest) = std::mem::take(&mut slots_rest)
                    .split_first_mut()
                    .expect("one slot per shard");
                slots_rest = rest;
                *task = Some(RecycleTask {
                    base,
                    procs: ph,
                    slot,
                });
                base += len;
            }
        }
        rayon::scoped_join(&mut tasks[..s], |_, t| {
            run_recycle(t.as_mut().expect("recycle task built"));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_partitions_exactly() {
        for p in [1usize, 2, 7, 16, 64, 257, 1024] {
            for s in [1usize, 2, 3, 7, 32] {
                if s > p {
                    continue;
                }
                let g = Geom::new(p, s);
                let total: usize = (0..s).map(|i| g.len_of(i)).sum();
                assert_eq!(total, p, "p={p} s={s}");
                let mut prev_shard = 0usize;
                let mut seen = vec![0usize; s];
                for i in 0..p {
                    let sh = g.shard_of(i);
                    assert!(sh >= prev_shard, "shards are contiguous ascending");
                    prev_shard = sh;
                    seen[sh] += 1;
                }
                for (i, &count) in seen.iter().enumerate() {
                    assert_eq!(count, g.len_of(i), "p={p} s={s} shard={i}");
                }
            }
        }
    }

    #[test]
    fn transpose_moves_every_lane_header() {
        let s = 3;
        let mut slots: Vec<ShardSlot> = (0..s).map(|_| ShardSlot::new(s)).collect();
        // Tag each out-lane with a distinctive capacity.
        for (a, slot) in slots.iter_mut().enumerate() {
            for (b, lane) in slot.out.iter_mut().enumerate() {
                lane.reserve_exact(a * 10 + b + 1);
            }
        }
        transpose(&mut slots, msg_lanes);
        for (b, slot) in slots.iter_mut().enumerate() {
            for (a, lane) in slot.inb.iter_mut().enumerate() {
                assert_eq!(lane.capacity(), a * 10 + b + 1, "inb[{b}][{a}]");
            }
        }
        // A second transpose restores the original orientation.
        transpose(&mut slots, msg_lanes);
        for (a, slot) in slots.iter_mut().enumerate() {
            for (b, lane) in slot.out.iter_mut().enumerate() {
                assert_eq!(lane.capacity(), a * 10 + b + 1, "out[{a}][{b}]");
            }
        }
    }
}
