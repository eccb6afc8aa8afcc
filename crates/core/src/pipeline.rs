//! Infrastructure for the check engine
//! ([`Checker::check_pipelined`](crate::check::Checker::check_pipelined)):
//! a bounded MPMC channel between the producer threads and the
//! decode/fingerprint worker pool, a sharded flow-join map, a sharded
//! behavior-class registry, and the first-error sink that aborts the
//! pipeline cleanly.
//!
//! Everything here is engine plumbing: the decision logic (hashing,
//! store consult, decide, broadcast) stays in [`crate::check`], which
//! drives these pieces from `std::thread::scope` workers.

use crate::report::FecResult;
use rela_net::{AlignedFec, BehaviorHash, FlowSpec, RawRecord, SnapshotError, SpanBytes};
use std::borrow::{Borrow, Cow};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Which snapshot stream a record came from. `Pre` orders before `Post`
/// when ranking simultaneous errors at the same entry index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Side {
    /// The pre-change snapshot.
    Pre,
    /// The post-change snapshot.
    Post,
}

// ---- bounded MPMC channel ---------------------------------------------

struct ChannelState<T> {
    queue: VecDeque<T>,
    /// All producers finished; receivers drain the queue then see
    /// `Closed`.
    closed: bool,
    /// Aborted: the queue is discarded, senders fail fast, receivers see
    /// `Closed` immediately.
    poisoned: bool,
}

/// What a bounded receive observed.
pub(crate) enum Recv<T> {
    /// An item was dequeued.
    Item(T),
    /// The channel is open but empty (the timeout elapsed) — a worker
    /// uses the gap to pull from the decide queue.
    Timeout,
    /// Closed (or poisoned) and drained: no more items will arrive.
    Closed,
}

/// A bounded multi-producer/multi-consumer channel with close and
/// poison, built on `Mutex` + `Condvar` (the workspace is std-only).
/// Send blocks while the queue is at capacity — this is the
/// back-pressure that keeps the framer from racing ahead of the decode
/// pool and bounds raw-record memory at `capacity` spans.
pub(crate) struct Channel<T> {
    state: Mutex<ChannelState<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Channel<T> {
    pub(crate) fn new(capacity: usize) -> Channel<T> {
        Channel {
            state: Mutex::new(ChannelState {
                queue: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
                poisoned: false,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Enqueue an item, blocking while full. `Err` when the channel was
    /// poisoned (the pipeline is aborting) or closed.
    pub(crate) fn send(&self, item: T) -> Result<(), ()> {
        let mut state = self.state.lock().expect("channel lock");
        loop {
            if state.poisoned || state.closed {
                return Err(());
            }
            if state.queue.len() < self.capacity {
                state.queue.push_back(item);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self.not_full.wait(state).expect("channel lock");
        }
    }

    /// Dequeue an item, waiting up to `timeout` for one to arrive.
    pub(crate) fn recv(&self, timeout: Duration) -> Recv<T> {
        let mut state = self.state.lock().expect("channel lock");
        loop {
            if state.poisoned {
                return Recv::Closed;
            }
            if let Some(item) = state.queue.pop_front() {
                self.not_full.notify_one();
                return Recv::Item(item);
            }
            if state.closed {
                return Recv::Closed;
            }
            let (next, wait) = self
                .not_empty
                .wait_timeout(state, timeout)
                .expect("channel lock");
            state = next;
            if wait.timed_out() {
                // check once more under the lock, then yield the gap
                if state.poisoned {
                    return Recv::Closed;
                }
                if let Some(item) = state.queue.pop_front() {
                    self.not_full.notify_one();
                    return Recv::Item(item);
                }
                if state.closed {
                    return Recv::Closed;
                }
                return Recv::Timeout;
            }
        }
    }

    /// All producers are done: receivers drain the remaining items and
    /// then observe `Closed`.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock().expect("channel lock");
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Abort: discard queued items and wake every blocked side.
    pub(crate) fn poison(&self) {
        let mut state = self.state.lock().expect("channel lock");
        state.poisoned = true;
        state.queue.clear();
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Poisons a channel when dropped during a panic: a dying worker (or
/// framer) must unblock its peers — bounded sends and closed-gated
/// receives would otherwise wait forever — so `std::thread::scope` can
/// join every thread and propagate the panic instead of deadlocking.
/// With a single worker there is no survivor to drain the queue, so
/// without this guard a worker panic would hang the check.
pub(crate) struct PoisonOnPanic<'a, T>(pub(crate) &'a Channel<T>);

impl<T> Drop for PoisonOnPanic<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

// ---- first-error sink --------------------------------------------------

/// Collects stream errors from framers and decode workers and exposes
/// the abort flag. When several errors are discovered concurrently, the
/// winner is deterministic: lowest entry index, `pre` before `post` at
/// the same index, lowest byte offset as the final tie break. Errors
/// outside any entry (header/trailer) rank last.
pub(crate) struct ErrorSink {
    errors: Mutex<Vec<(usize, Side, SnapshotError)>>,
    abort: AtomicBool,
}

impl ErrorSink {
    pub(crate) fn new() -> ErrorSink {
        ErrorSink {
            errors: Mutex::new(Vec::new()),
            abort: AtomicBool::new(false),
        }
    }

    /// Record an error and raise the abort flag.
    pub(crate) fn record(&self, side: Side, error: SnapshotError) {
        let entry = error.entry_index().unwrap_or(usize::MAX);
        self.errors
            .lock()
            .expect("error sink lock")
            .push((entry, side, error));
        self.abort.store(true, Ordering::Release);
    }

    /// Has any error been recorded?
    pub(crate) fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    /// The winning error, if any (consumes the sink).
    pub(crate) fn into_first(self) -> Option<SnapshotError> {
        self.errors
            .into_inner()
            .expect("error sink lock")
            .into_iter()
            .min_by_key(|(entry, side, e)| (*entry, *side, e.byte_offset().unwrap_or(u64::MAX)))
            .map(|(_, _, e)| e)
    }
}

// ---- sharded flow-join map ---------------------------------------------

/// A raw graph-value span, shared without copying: `span` addresses the
/// graph value inside its backing buffer — an owned record buffer for
/// JSON/buffered framing, a file mapping for the zero-copy binary path
/// (see [`SpanBytes`]). For binary-container records `flow` keeps the
/// sibling flow span, so a decode failure can reassemble the record and
/// report the exact serial-reader error. The byte-admission engine
/// joins, hashes, and deduplicates these spans — a graph is only ever
/// decoded when its byte content has not been seen before.
#[derive(Clone)]
pub(crate) struct GraphSpan {
    pub(crate) span: SpanBytes,
    pub(crate) flow: Option<SpanBytes>,
}

impl GraphSpan {
    /// Wrap a standalone buffer that *is* the span.
    pub(crate) fn whole(bytes: Vec<u8>) -> GraphSpan {
        GraphSpan {
            span: bytes.into(),
            flow: None,
        }
    }

    pub(crate) fn as_slice(&self) -> &[u8] {
        self.span.as_slice()
    }

    /// Rebuild the enclosing record for error attribution: the whole
    /// record buffer for a JSON-container span, the reassembled split
    /// record for a binary one, `None` for standalone spans (nothing to
    /// reconstruct — the span is the whole story).
    pub(crate) fn reconstruct_record(&self, offset: u64, index: usize) -> Option<RawRecord> {
        match &self.flow {
            Some(flow) => Some(RawRecord::from_split_spans(
                flow.clone(),
                self.span.clone(),
                offset,
                index,
            )),
            None if !self.span.is_whole() => Some(RawRecord::from_json_span(
                self.span.whole_buffer(),
                offset,
                index,
            )),
            None => None,
        }
    }
}

/// A spilled record waiting for its partner side: the undecoded graph
/// span plus its content hash (decode happens only after the byte-level
/// admission check on the joined pair).
struct PendingSide {
    span: GraphSpan,
    hash: u128,
    provenance: Provenance,
}

/// Where a consumed record sat in its stream: retained per side for
/// duplicate reporting (the serial reader names the *second*
/// occurrence, which under out-of-order decode may be the one already
/// consumed).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Provenance {
    /// 0-based `fecs` entry index.
    pub(crate) index: usize,
    /// Absolute byte offset of the record span.
    pub(crate) offset: u64,
}

/// One side's slot in a join entry. The pending payload is boxed so the
/// slot — which lives on for *every* flow as a `Done` marker
/// (duplicate detection) — stays near pointer-sized: an inline graph
/// would make the join map's resident cost O(fecs) graphs-worth of
/// bytes even when nothing is spilled.
enum SideSlot {
    /// Not yet seen on this side.
    Absent,
    /// Seen; the partner side has not arrived.
    Pending(Box<PendingSide>),
    /// Paired and handed downstream (kept for duplicate detection).
    Done(Provenance),
}

struct JoinEntry {
    pre: SideSlot,
    post: SideSlot,
}

/// One half of a joined pair: the undecoded span, its content hash, and
/// where the record sat in its stream.
pub(crate) struct JoinedSide {
    pub(crate) span: GraphSpan,
    pub(crate) hash: u128,
    pub(crate) provenance: Provenance,
}

/// What inserting one framed record into the join produced.
pub(crate) enum Joined {
    /// Partner not seen yet; the record spilled into the join state.
    Pending,
    /// Both sides are now known: an aligned span pair, still undecoded.
    Paired { pre: JoinedSide, post: JoinedSide },
    /// The flow already appeared on this side; the payload is the
    /// provenance of the occurrence with the **larger** entry index
    /// (the second in stream order — the one the serial reader names),
    /// which may be either the incoming record or the stored one when
    /// batches decode out of order.
    Duplicate(Provenance),
}

/// A flow drained after both streams ended: present on one side only
/// (the other side is the empty graph).
pub(crate) struct OneSided {
    pub(crate) flow: FlowSpec,
    pub(crate) side: Side,
    pub(crate) span: GraphSpan,
    pub(crate) hash: u128,
    pub(crate) provenance: Provenance,
}

/// The streaming hash-join on the flow key, sharded by flow hash so
/// decode workers on different flows rarely contend. Only unmatched
/// records hold graphs; paired entries keep an empty marker for
/// duplicate detection (flow keys only, like the serial reader's seen
/// set).
pub(crate) struct JoinMap {
    shards: Vec<Mutex<HashMap<FlowSpec, JoinEntry>>>,
}

impl JoinMap {
    pub(crate) fn new(shards: usize) -> JoinMap {
        JoinMap {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard_of(&self, flow: &FlowSpec) -> usize {
        let mut hasher = DefaultHasher::new();
        flow.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    /// Insert one framed record; pairs it with its partner if that side
    /// already arrived.
    pub(crate) fn insert(
        &self,
        side: Side,
        flow: &FlowSpec,
        span: GraphSpan,
        hash: u128,
        provenance: Provenance,
    ) -> Joined {
        let mut shard = self.shards[self.shard_of(flow)].lock().expect("join lock");
        let entry = shard.entry(flow.clone()).or_insert(JoinEntry {
            pre: SideSlot::Absent,
            post: SideSlot::Absent,
        });
        let (own, other) = match side {
            Side::Pre => (&mut entry.pre, &mut entry.post),
            Side::Post => (&mut entry.post, &mut entry.pre),
        };
        match own {
            SideSlot::Absent => {}
            // duplicate: name the occurrence with the larger entry
            // index — the second in stream order, as the serial reader
            // would, regardless of decode scheduling
            SideSlot::Pending(p) if p.provenance.index > provenance.index => {
                return Joined::Duplicate(p.provenance)
            }
            SideSlot::Done(stored) if stored.index > provenance.index => {
                return Joined::Duplicate(*stored)
            }
            _ => return Joined::Duplicate(provenance),
        }
        match std::mem::replace(other, SideSlot::Absent) {
            SideSlot::Pending(partner) => {
                *own = SideSlot::Done(provenance);
                let PendingSide {
                    span: partner_span,
                    hash: partner_hash,
                    provenance: partner_provenance,
                } = *partner;
                *other = SideSlot::Done(partner_provenance);
                let own_side = JoinedSide {
                    span,
                    hash,
                    provenance,
                };
                let partner_side = JoinedSide {
                    span: partner_span,
                    hash: partner_hash,
                    provenance: partner_provenance,
                };
                let (pre, post) = match side {
                    Side::Pre => (own_side, partner_side),
                    Side::Post => (partner_side, own_side),
                };
                Joined::Paired { pre, post }
            }
            restored @ SideSlot::Done(_) => {
                *other = restored;
                // partner consumed earlier yet own slot was Absent: the
                // pairing marked both Done, so this cannot happen
                unreachable!("join entry half-done with an absent partner")
            }
            SideSlot::Absent => {
                *own = SideSlot::Pending(Box::new(PendingSide {
                    span,
                    hash,
                    provenance,
                }));
                Joined::Pending
            }
        }
    }

    /// Drain the flows seen on exactly one side (call after both streams
    /// ended). Order is arbitrary; the checker's report assembly sorts
    /// by flow.
    pub(crate) fn drain_one_sided(self) -> Vec<OneSided> {
        let mut out = Vec::new();
        for shard in self.shards {
            for (flow, entry) in shard.into_inner().expect("join lock") {
                match (entry.pre, entry.post) {
                    (SideSlot::Pending(pending), SideSlot::Absent) => out.push(OneSided {
                        flow,
                        side: Side::Pre,
                        span: pending.span,
                        hash: pending.hash,
                        provenance: pending.provenance,
                    }),
                    (SideSlot::Absent, SideSlot::Pending(pending)) => out.push(OneSided {
                        flow,
                        side: Side::Post,
                        span: pending.span,
                        hash: pending.hash,
                        provenance: pending.provenance,
                    }),
                    (SideSlot::Done(_), SideSlot::Done(_)) => {}
                    _ => unreachable!("join entry in an impossible end state"),
                }
            }
        }
        out
    }
}

// ---- sharded behavior-class registry ----------------------------------

/// A member reference into a worker's local flow list; resolved to a
/// global flow index once the worker lists are concatenated.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlowRef {
    pub(crate) worker: usize,
    pub(crate) local: usize,
}

/// A class representative: decoded from a record (owned, and shared
/// with the decide queue), or borrowed from an in-memory pair that
/// outlives the run — so a pair's representatives are never copied.
#[derive(Clone)]
pub(crate) enum Rep<'p> {
    Decoded(Arc<AlignedFec>),
    InPair(&'p AlignedFec),
}

impl std::ops::Deref for Rep<'_> {
    type Target = AlignedFec;

    fn deref(&self) -> &AlignedFec {
        match self {
            Rep::Decoded(fec) => fec,
            Rep::InPair(fec) => fec,
        }
    }
}

impl Borrow<AlignedFec> for Rep<'_> {
    fn borrow(&self) -> &AlignedFec {
        self
    }
}

/// One behavior class accumulated during ingest.
pub(crate) struct ClassAcc<'p> {
    pub(crate) route: Option<usize>,
    pub(crate) key: Option<(BehaviorHash, BehaviorHash)>,
    /// The `(pre, post)` raw-span content hashes of the member that
    /// founded the class, when it arrived through byte-level admission —
    /// the key under which a fresh verdict is *also* written to the
    /// store so the next run can replay it without decoding. `None` for
    /// byte-warm placeholder classes (their byte entry already exists)
    /// and with dedup off.
    pub(crate) byte_key: Option<(u128, u128)>,
    /// The first member's aligned FEC — the class representative (shared
    /// with the decide queue, which may already be checking it).
    pub(crate) rep: Rep<'p>,
    pub(crate) members: Vec<FlowRef>,
}

/// Identity of a class inside the registry: `(shard, index-in-shard)`.
/// Global class indices are assigned when the shards are flattened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ClassRef {
    pub(crate) shard: usize,
    pub(crate) index: usize,
}

/// Behavior-class fingerprint key: the `(pre, post, route)` triple a
/// class is admitted under. The byte-admission index reuses the same
/// shape with span content hashes in place of behavior fingerprints
/// and `usize::MAX` as the default-check route.
pub(crate) type ClassKey = (u128, u128, usize);

struct RegistryShard<'p> {
    index: HashMap<ClassKey, usize>,
    classes: Vec<ClassAcc<'p>>,
}

/// The concurrent class registry: admits each aligned FEC under its
/// `(pre, post, route)` fingerprint, keeping only the first member's
/// graphs. Sharded by key hash so workers admitting different classes
/// rarely contend. With dedup off every FEC founds its own class (the
/// index map is bypassed).
///
/// A second sharded index maps **raw-span content hashes** to classes
/// ([`ClassRegistry::admit_by_bytes`]): byte-identical records are
/// identical JSON, hence identical graphs, hence the same behavior
/// fingerprints — so once one member of a byte class has decoded and
/// resolved, every later member joins without touching its bytes again.
pub(crate) struct ClassRegistry<'p> {
    shards: Vec<Mutex<RegistryShard<'p>>>,
    byte_index: Vec<Mutex<HashMap<ClassKey, ClassRef>>>,
    dedup: bool,
}

impl<'p> ClassRegistry<'p> {
    pub(crate) fn new(shards: usize, dedup: bool) -> ClassRegistry<'p> {
        ClassRegistry {
            shards: (0..shards.max(1))
                .map(|_| {
                    Mutex::new(RegistryShard {
                        index: HashMap::new(),
                        classes: Vec::new(),
                    })
                })
                .collect(),
            byte_index: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            dedup,
        }
    }

    /// Admit one aligned FEC under its behavior fingerprint. Returns the
    /// class it landed in, plus the representative handle when this
    /// member *founded* the class (the caller then consults the store or
    /// queues a decide); `None` when it joined an existing one (its
    /// graphs are dropped with `fec`). A borrowed FEC is never copied.
    pub(crate) fn admit(
        &self,
        fec: Cow<'p, AlignedFec>,
        key: Option<(BehaviorHash, BehaviorHash)>,
        byte_key: Option<(u128, u128)>,
        route: Option<usize>,
        member: FlowRef,
    ) -> (ClassRef, Option<Rep<'p>>) {
        let (map_key, shard_ix) = match key {
            Some((pre, post)) if self.dedup => {
                let map_key = (pre.as_u128(), post.as_u128(), route.unwrap_or(usize::MAX));
                let mut hasher = DefaultHasher::new();
                map_key.hash(&mut hasher);
                let shard_ix = (hasher.finish() as usize) % self.shards.len();
                (Some(map_key), shard_ix)
            }
            // no-dedup (or unkeyed): spread singleton classes by worker
            _ => (None, member.worker % self.shards.len()),
        };
        let mut shard = self.shards[shard_ix].lock().expect("registry lock");
        let ix = shard.classes.len();
        if let Some(map_key) = map_key {
            if let Some(&existing) = shard.index.get(&map_key) {
                shard.classes[existing].members.push(member);
                return (
                    ClassRef {
                        shard: shard_ix,
                        index: existing,
                    },
                    None,
                );
            }
            shard.index.insert(map_key, ix);
        }
        let rep = match fec {
            Cow::Owned(fec) => Rep::Decoded(Arc::new(fec)),
            Cow::Borrowed(fec) => Rep::InPair(fec),
        };
        shard.classes.push(ClassAcc {
            route,
            key,
            byte_key,
            rep: rep.clone(),
            members: vec![member],
        });
        (
            ClassRef {
                shard: shard_ix,
                index: ix,
            },
            Some(rep),
        )
    }

    /// Add a member to an already-admitted class.
    pub(crate) fn add_member(&self, class: ClassRef, member: FlowRef) {
        let mut shard = self.shards[class.shard].lock().expect("registry lock");
        shard.classes[class.index].members.push(member);
    }

    /// Byte-level admission: join the class already resolved for this
    /// `(pre-span-hash, post-span-hash, route)` byte key, or run
    /// `found` — decode, fingerprint, behavior-admit, store-consult —
    /// to resolve one. `found` runs **under the byte-shard lock**, so
    /// exactly one member per byte key decodes even when workers race;
    /// lock order is byte shard → registry shard (acyclic, `found` may
    /// call [`ClassRegistry::admit`]). Returns whether this member
    /// founded the byte class.
    pub(crate) fn admit_by_bytes<E>(
        &self,
        byte_key: ClassKey,
        member: FlowRef,
        found: impl FnOnce() -> Result<ClassRef, E>,
    ) -> Result<bool, E> {
        let mut hasher = DefaultHasher::new();
        byte_key.hash(&mut hasher);
        let shard_ix = (hasher.finish() as usize) % self.byte_index.len();
        let mut shard = self.byte_index[shard_ix].lock().expect("byte index lock");
        if let Some(&class) = shard.get(&byte_key) {
            self.add_member(class, member);
            return Ok(false);
        }
        let class = found()?;
        shard.insert(byte_key, class);
        Ok(true)
    }

    /// Flatten the shards into a single class list. Returns the classes
    /// plus, per shard, the global index of its first class (so
    /// [`ClassRef`]s resolve to positions in the flat list). Shard order
    /// is fixed; within a shard, admission order — the flat order is
    /// scheduling-dependent, which is fine because the report engine is
    /// order-independent (name-defined witness bytes, flow-sorted
    /// results).
    pub(crate) fn into_classes(self) -> (Vec<ClassAcc<'p>>, Vec<usize>) {
        let mut offsets = Vec::with_capacity(self.shards.len());
        let mut classes = Vec::new();
        for shard in self.shards {
            offsets.push(classes.len());
            classes.extend(shard.into_inner().expect("registry lock").classes);
        }
        (classes, offsets)
    }
}

/// A class waiting for an eager (mid-ingest) decide.
pub(crate) struct EagerTask<'p> {
    pub(crate) class: ClassRef,
    pub(crate) rep: Rep<'p>,
    pub(crate) route: Option<usize>,
    pub(crate) key: Option<(BehaviorHash, BehaviorHash)>,
}

/// The queue feeding idle decode workers with founded classes to decide
/// while records still arrive. Leftovers (classes founded near the end
/// of the stream) are decided by the finisher.
pub(crate) struct DecideQueue<'p> {
    tasks: Mutex<VecDeque<EagerTask<'p>>>,
}

impl<'p> DecideQueue<'p> {
    pub(crate) fn new() -> DecideQueue<'p> {
        DecideQueue {
            tasks: Mutex::new(VecDeque::new()),
        }
    }

    pub(crate) fn push(&self, task: EagerTask<'p>) {
        self.tasks
            .lock()
            .expect("decide queue lock")
            .push_back(task);
    }

    pub(crate) fn pop(&self) -> Option<EagerTask<'p>> {
        self.tasks.lock().expect("decide queue lock").pop_front()
    }
}

/// The outcome of an eager store consult or decide for one class. Both
/// are final: witness bytes are defined by location names, so a verdict
/// decided mid-ingest renders exactly as a finisher decide would.
pub(crate) enum EagerOutcome {
    /// Replayed from the persistent store.
    Warm(FecResult),
    /// Decided mid-ingest, with its wall time and phase timings.
    Decided(FecResult, Duration, crate::report::PhaseTimings),
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    #[test]
    fn channel_round_trips_under_contention() {
        let chan: StdArc<Channel<usize>> = StdArc::new(Channel::new(4));
        let n = 1000;
        let chan2 = chan.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..n {
                chan2.send(i).unwrap();
            }
            chan2.close();
        });
        let mut seen = Vec::new();
        loop {
            match chan.recv(Duration::from_millis(1)) {
                Recv::Item(i) => seen.push(i),
                Recv::Timeout => continue,
                Recv::Closed => break,
            }
        }
        producer.join().unwrap();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn poison_unblocks_a_full_sender() {
        let chan: StdArc<Channel<usize>> = StdArc::new(Channel::new(1));
        chan.send(0).unwrap();
        let chan2 = chan.clone();
        let sender = std::thread::spawn(move || chan2.send(1));
        std::thread::sleep(Duration::from_millis(10));
        chan.poison();
        assert!(sender.join().unwrap().is_err(), "poison fails the send");
        assert!(matches!(chan.recv(Duration::ZERO), Recv::Closed));
    }

    #[test]
    fn error_sink_ranks_by_entry_then_side() {
        let sink = ErrorSink::new();
        let at = |entry: Option<usize>| {
            let e = SnapshotError::at("boom", 7);
            match entry {
                Some(ix) => e.with_entry(ix),
                None => e,
            }
        };
        sink.record(Side::Post, at(Some(2)));
        sink.record(Side::Pre, at(Some(2)));
        sink.record(Side::Pre, at(None)); // header/trailer ranks last
        assert!(sink.aborted());
        let first = sink.into_first().unwrap();
        assert_eq!(first.entry_index(), Some(2));
    }
}
