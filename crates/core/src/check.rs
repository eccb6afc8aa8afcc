//! The end-to-end checker: binds snapshot pairs to compiled programs,
//! routes each flow equivalence class to its spec (pspec first, default
//! otherwise), decides every equation, and collects attributed
//! counterexamples — exactly as the paper scales to 10⁶ traffic classes
//! (§5.2 footnote 2, §7).
//!
//! # The dedup-and-memoize engine
//!
//! At WAN scale the overwhelming majority of FECs exhibit *identical*
//! pre/post forwarding behavior (many destination prefixes share one
//! forwarding graph per ingress). The checker therefore groups FECs into
//! **behavior classes** keyed by
//! `(behavior_hash(pre), behavior_hash(post), routed check)`
//! ([`rela_net::behavior_hash`]), runs the full
//! `graph_to_fsa → lower → image → determinize → equivalent` pipeline
//! once per class on a canonicalized representative, and broadcasts the
//! verdict — violations, rendered witness paths and all — to every
//! member.
//!
//! There is one engine, the pipelined one ([`Checker::check_pipelined`]):
//! a sharded flow-join map, a sharded class registry, eager decides
//! while records still arrive, and a finisher that decides the classes
//! no worker reached over a work-stealing queue. Records reach class
//! admission three ways — framed spans from two snapshot streams,
//! retained spans replayed for a delta job, or decoded FECs of an
//! in-memory [`SnapshotPair`] ([`Checker::check`]) — and the report bytes
//! are the same whichever way they came.
//!
//! Every decide resolves locations against one alphabet, the compiled
//! program's symbol table ([`RunAlphabet`]), and witness bytes are
//! defined by location names rather than symbol ids ([`PathRenderer`]),
//! so a class renders the same whether a worker decided it mid-ingest or
//! the finisher did — each class is decided once.

use crate::ast::Program;
use crate::compile::{CompiledCheck, CompiledProgram, GuardedPart};
use crate::counterexample::{
    diff_equation, EquationDiff, PathRenderer, RunAlphabet, WitnessLimits,
};
use crate::lower::{lower_pathset_dfa, lower_rel, PairFsas};
use crate::pipeline::{
    Channel, ClassRef, ClassRegistry, DecideQueue, EagerOutcome, EagerTask, ErrorSink, FlowRef,
    GraphSpan, JoinMap, Joined, JoinedSide, OneSided, PoisonOnPanic, Provenance, Recv, Rep, Side,
};
use crate::report::{
    CheckReport, CheckStats, FecResult, PartViolation, PhaseTimings, ViolationDetail,
};
use crate::rir::RirSpec;
use rela_automata::{determinize, enumerate_words, equivalent, image, Dfa, Fst, Nfa};
use rela_cache::{CacheEpoch, CacheKey, VerdictStore, BYTE_VARIANT_SALT};
use rela_net::{
    behavior_hash, canonical_graph, content_hash128, decode_graph_span, graph_to_fsa_prepared,
    pair_epoch, record_mix, side_fold, AlignedFec, BehaviorHash, FlowDecoded, FlowSpec,
    ForwardingGraph, Granularity, LocationDb, RawRecord, RecordBody, SnapshotError, SnapshotFramer,
    SnapshotPair,
};
use serde::Serialize;
use std::borrow::{Borrow, Cow};
use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The engine identity folded into every cache epoch: the crate version
/// plus a decision-engine revision. Bump the revision whenever the
/// checker's verdicts, witness enumeration, or rendering could change
/// without a crate version bump — a new engine must never replay an old
/// engine's verdicts.
// engine.2: symbol interning moved to a sorted set of representative
// locations, which changes automaton layouts and therefore
// witness enumeration order — engine.1 renderings must not replay.
// engine.3: the store-key variant fingerprint widened from 24 to 25
// option bytes (the side-minimization flag), so entries written by
// engine.2 could never match again — keeping the epoch would leave them
// as permanent dead weight in the live store file; moving the epoch lets
// `cache gc` age the old file out instead.
// engine.4: the side-minimization ablation flag is gone and the variant
// fingerprint narrowed back to 24 option bytes, so no engine.3 entry
// can match again — the epoch moves for the same `cache gc` reason.
// engine.5: the compiled program's symbol table became the engine's
// alphabet and witness bytes are defined by location names, so
// byte-keyed payloads lose their `symbols` array, and a co-finite label
// excluding every program symbol now renders `<any-other>` instead of
// a name drawn from the rest of the run — engine.4 entries must not
// replay.
pub const ENGINE_VERSION: &str = concat!("rela-core/", env!("CARGO_PKG_VERSION"), "/engine.5");

/// The persistent-cache epoch for a parsed program bound to a location
/// database: a content hash of the spec AST *and* the database it
/// compiles against (comments and formatting don't churn the cache; any
/// semantic edit to either invalidates it) crossed with
/// [`ENGINE_VERSION`]. The database must participate: `where` queries
/// resolve against it at compile time, and device/interface-level
/// behavior hashes never read it — so a db edit with an unchanged spec
/// would otherwise replay stale verdicts.
pub fn cache_epoch(program: &Program, db: &LocationDb) -> CacheEpoch {
    // the AST's Debug form and the db's JSON form are stable,
    // address-free renderings
    let ast = format!("{program:?}");
    let db_json = serde_json::to_string(db).expect("location db serializes");
    let mut bytes = Vec::with_capacity(ast.len() + db_json.len() + 1);
    bytes.extend_from_slice(ast.as_bytes());
    bytes.push(0xff); // separator: ast/db boundaries can't collide
    bytes.extend_from_slice(db_json.as_bytes());
    CacheEpoch::derive(content_hash128(&bytes), ENGINE_VERSION)
}

/// Checker tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// Witness enumeration limits for counterexamples.
    pub witness: WitnessLimits,
    /// Worker threads; `0` uses the machine's available parallelism.
    pub threads: usize,
    /// Number of pre/post paths rendered per violating FEC.
    pub list_paths: usize,
    /// Group FECs into behavior classes and decide one representative
    /// per class (on by default; `false` re-decides every FEC from
    /// scratch — the per-FEC reference the dedup tests compare against).
    pub dedup: bool,
}

impl Default for CheckOptions {
    fn default() -> CheckOptions {
        CheckOptions {
            witness: WitnessLimits::default(),
            threads: 0,
            list_paths: 4,
            dedup: true,
        }
    }
}

/// Records in flight per decode worker: the engine's bounded channel
/// holds `IN_FLIGHT_PER_WORKER × workers` undecoded spans, which is the
/// back-pressure bound on raw-record memory.
const IN_FLIGHT_PER_WORKER: usize = 8;

/// One behavior class: the pspec route shared by all members, the
/// member indices into the run's flow list (first member is the
/// representative), and the `(pre, post)` fingerprints that identify
/// the class across runs (`None` with dedup disabled, where hashing is
/// skipped).
struct BehaviorClass {
    route: Option<usize>,
    members: Vec<usize>,
    key: Option<(BehaviorHash, BehaviorHash)>,
    /// The founding member's raw-span content hashes, when the class
    /// came through byte-level admission — fresh verdicts are mirrored
    /// to the store under this key so the next run replays them without
    /// decoding a byte.
    byte_key: Option<(u128, u128)>,
}

/// One snapshot record retained for delta-base replay: the flow key,
/// the undecoded graph span, the span's content hash, and the record's
/// entry index in its stream.
#[derive(Clone)]
pub(crate) struct RetainedRecord {
    pub(crate) flow: FlowSpec,
    pub(crate) span: GraphSpan,
    pub(crate) hash: u128,
    pub(crate) index: usize,
}

/// The snapshot pair retained after a successful pipelined run, kept so
/// a later `--delta-base` submission can replay the unchanged records
/// without the client resending (or the daemon re-framing) them. The
/// epoch is content-derived ([`rela_net::pair_epoch`] over the per-side
/// record folds), so it identifies the pair bytes themselves, not the
/// job that carried them.
pub(crate) struct RetainedBase {
    pub(crate) epoch: u128,
    pub(crate) pre: Vec<RetainedRecord>,
    pub(crate) post: Vec<RetainedRecord>,
}

impl RetainedBase {
    /// Approximate resident bytes: the dominant cost is the undecoded
    /// graph spans; flow keys and indices are noise next to them.
    fn approx_bytes(&self) -> u64 {
        self.pre
            .iter()
            .chain(self.post.iter())
            .map(|r| r.span.as_slice().len() as u64 + 64)
            .sum()
    }
}

/// The session's retained delta bases, newest first: the last K
/// `(pre, post)` pairs a delta job may name, bounded by a count and an
/// optional byte budget (the same shape as the cache directory's
/// [`rela_cache::GcPolicy`] — `keep` mirrors `keep_epochs`, the byte
/// cap mirrors `max_bytes`). An operator iterating on two changes
/// interleaved keeps both bases resident; eviction degrades the evicted
/// epoch to a DELTA_MISS → full resubmit, never an error.
pub(crate) struct RetentionSet {
    entries: VecDeque<Arc<RetainedBase>>,
    keep: usize,
    max_bytes: Option<u64>,
}

impl RetentionSet {
    pub(crate) fn new(keep: usize, max_bytes: Option<u64>) -> RetentionSet {
        RetentionSet {
            entries: VecDeque::new(),
            keep: keep.max(1),
            max_bytes,
        }
    }

    /// Admit a freshly checked base. A pair re-checked while already
    /// retained moves to the front (it is the most recent again) rather
    /// than duplicating; then the set is trimmed to the count and byte
    /// budgets, oldest first — except the newest base, which is always
    /// kept: the pair just checked must be nameable by the very next
    /// delta no matter how small the budget.
    pub(crate) fn push(&mut self, base: Arc<RetainedBase>) {
        self.entries.retain(|b| b.epoch != base.epoch);
        self.entries.push_front(base);
        self.entries.truncate(self.keep);
        if let Some(budget) = self.max_bytes {
            let mut total: u64 = self.entries.iter().map(|b| b.approx_bytes()).sum();
            while self.entries.len() > 1 && total > budget {
                if let Some(evicted) = self.entries.pop_back() {
                    total -= evicted.approx_bytes();
                }
            }
        }
    }

    /// The retained base with this pair epoch, if still resident.
    pub(crate) fn find(&self, epoch: u128) -> Option<Arc<RetainedBase>> {
        self.entries.iter().find(|b| b.epoch == epoch).cloned()
    }

    /// The most recently retained epoch.
    pub(crate) fn newest_epoch(&self) -> Option<u128> {
        self.entries.front().map(|b| b.epoch)
    }

    /// Every retained epoch, newest first.
    pub(crate) fn epochs(&self) -> Vec<u128> {
        self.entries.iter().map(|b| b.epoch).collect()
    }
}

/// The shared retention set — the session owns it; the checker admits a
/// base after each successful pipelined run.
pub(crate) type RetentionSlot = Mutex<RetentionSet>;

/// A cooperative cancellation token carrying a job's deadline. The
/// engine polls it at class boundaries — between channel batches on the
/// pipelined path, between classes on the decide loops — so a job never
/// stops mid-class, and a deadline can overshoot by at most one class
/// decide. `fired` records whether the engine actually abandoned work,
/// which is what distinguishes "finished just over the wire-clock
/// deadline" from "gave up".
pub(crate) struct CancelToken {
    deadline: Option<Instant>,
    fired: AtomicBool,
}

impl CancelToken {
    pub(crate) fn with_deadline_ms(ms: Option<u64>) -> CancelToken {
        CancelToken {
            deadline: ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
            fired: AtomicBool::new(false),
        }
    }

    /// Poll the token: true once the deadline has passed (and from then
    /// on). Records the first expiry observation in `fired`.
    pub(crate) fn check(&self) -> bool {
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                self.fired.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    /// True when the engine observed the expiry and abandoned work.
    pub(crate) fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }
}

/// One pre-framed pipeline input, used by the delta path to mix replayed
/// base records with the freshly framed delta records.
pub(crate) enum PreparedItem {
    /// A record framed from a delta document (an upsert): decoded and
    /// admitted exactly like a framer-produced record.
    Record { side: Side, raw: RawRecord },
    /// An unchanged base record whose partner side changed: replays
    /// through the flow join to meet the new partner.
    Replay { side: Side, record: RetainedRecord },
    /// A flow unchanged on both sides: admitted as a pre-joined pair,
    /// skipping the join map entirely.
    PairReplay {
        pre: RetainedRecord,
        post: RetainedRecord,
    },
}

/// One bounded-channel message: a batch of framed raw records from a
/// framer thread, a batch of prepared items from the delta feeder, or a
/// slice of an in-memory pair's already-decoded FECs.
pub(crate) enum PipeBatch<'p> {
    Raw(Side, Vec<RawRecord>),
    Prepared(Vec<PreparedItem>),
    Decoded(&'p [AlignedFec]),
}

/// What feeds the pipelined engine: two snapshot framers (the full
/// path), a pre-built item list (the delta path), or the aligned FECs
/// of an in-memory pair.
enum PipeFeed<'p, A: Read, B: Read> {
    // boxed: a framer's buffers dwarf the other variants
    Framers(Box<SnapshotFramer<A>>, Box<SnapshotFramer<B>>),
    Prepared(Vec<PreparedItem>),
    Pair(&'p [AlignedFec]),
}

/// Per-worker state of the pipelined cold path: the flows this worker
/// completed pairs for (concatenated into the global flow list after the
/// join), its eager consult/decide outcomes, its phase timings, the
/// graph decodes it actually performed, and the records captured for
/// delta-base retention.
struct PipelineWorkerState {
    flows: Vec<FlowSpec>,
    outcomes: Vec<(ClassRef, EagerOutcome)>,
    phases: PhaseTimings,
    decodes: usize,
    captured: Vec<(Side, RetainedRecord)>,
}

impl PipelineWorkerState {
    fn new() -> PipelineWorkerState {
        PipelineWorkerState {
            flows: Vec::new(),
            outcomes: Vec::new(),
            phases: PhaseTimings::default(),
            decodes: 0,
            captured: Vec::new(),
        }
    }
}

/// Byte budget per channel message: framed spans travel in batches cut
/// by payload bytes rather than record count (per ROADMAP), so the
/// per-message synchronization cost (mutex + condvar per send/recv)
/// amortizes uniformly whether a snapshot carries hundred-byte or
/// near-cap records.
const FRAME_BATCH_BYTES: usize = 64 * 1024;

/// Record-count backstop per batch: tiny records stop accumulating well
/// under the byte budget, keeping per-batch vectors (and the in-flight
/// record count behind the channel capacity formula) bounded.
const FRAME_BATCH_RECORDS: usize = 64;

/// Average record size the channel-capacity formula assumes when
/// converting a records-in-flight budget (`depth × workers`) into a
/// batch count; with [`FRAME_BATCH_BYTES`] this reproduces the sizing
/// the old 16-records-per-batch scheme used.
const FRAME_RECORD_HINT: usize = 4 * 1024;

/// A framer thread body: raw record framing only — spans go over the
/// bounded channel to the decode pool in batches cut at
/// [`FRAME_BATCH_BYTES`] of payload (or [`FRAME_BATCH_RECORDS`] spans,
/// whichever comes first). Stops early when the pipeline aborts; the
/// last framer to finish closes the channel.
fn frame_side<R: Read>(
    mut framer: SnapshotFramer<R>,
    side: Side,
    channel: &Channel<PipeBatch<'_>>,
    errors: &ErrorSink,
    producers_left: &AtomicUsize,
) {
    let _poison_guard = PoisonOnPanic(channel);
    let mut batch: Vec<RawRecord> = Vec::new();
    let mut batch_bytes = 0usize;
    for item in &mut framer {
        if errors.aborted() {
            break;
        }
        match item {
            Ok(raw) => {
                batch_bytes += raw.span_len();
                batch.push(raw);
                if batch_bytes >= FRAME_BATCH_BYTES || batch.len() >= FRAME_BATCH_RECORDS {
                    let full = std::mem::take(&mut batch);
                    batch_bytes = 0;
                    if channel.send(PipeBatch::Raw(side, full)).is_err() {
                        break; // poisoned: the pipeline is aborting
                    }
                }
            }
            Err(e) => {
                errors.record(side, e);
                channel.poison();
                break;
            }
        }
    }
    if !batch.is_empty() {
        let _ = channel.send(PipeBatch::Raw(side, batch));
    }
    if producers_left.fetch_sub(1, Ordering::AcqRel) == 1 {
        channel.close();
    }
}

/// The delta-path producer body: streams pre-built items (replays and
/// framed delta records) over the same bounded channel the framers use,
/// so back-pressure and abort behave identically in both modes.
fn feed_prepared(items: Vec<PreparedItem>, channel: &Channel<PipeBatch<'_>>, errors: &ErrorSink) {
    let _poison_guard = PoisonOnPanic(channel);
    // same byte-budget batching as `frame_side`: replayed spans count
    // their retained graph bytes, raw delta records their span bytes
    let item_len = |item: &PreparedItem| match item {
        PreparedItem::Record { raw, .. } => raw.span_len(),
        PreparedItem::Replay { record, .. } => record.span.as_slice().len(),
        PreparedItem::PairReplay { pre, post } => {
            pre.span.as_slice().len() + post.span.as_slice().len()
        }
    };
    let mut batch: Vec<PreparedItem> = Vec::new();
    let mut batch_bytes = 0usize;
    for item in items {
        if errors.aborted() {
            break;
        }
        batch_bytes += item_len(&item);
        batch.push(item);
        if batch_bytes >= FRAME_BATCH_BYTES || batch.len() >= FRAME_BATCH_RECORDS {
            let full = std::mem::take(&mut batch);
            batch_bytes = 0;
            if channel.send(PipeBatch::Prepared(full)).is_err() {
                break; // poisoned: the pipeline is aborting
            }
        }
    }
    if !batch.is_empty() {
        let _ = channel.send(PipeBatch::Prepared(batch));
    }
    channel.close();
}

/// Memo key: `(side behavior hash, route, part index, is_post_side)`.
/// Memoized sides are automata over the compiled program's alphabet
/// only — a side that resolved an overflow location is never memoized —
/// so a key means the same automaton in every run of the session.
type MemoKey = (u128, usize, usize, bool);

/// Size cap for a shared, session-lifetime [`FstMemo`]: beyond this many
/// retained sides new computations are returned uncached, bounding a
/// resident daemon's memory without evicting the hot entries a warm
/// workload keeps re-hitting.
const FST_MEMO_CAP: usize = 4096;

/// Memo of determinized equation sides, keyed by [`MemoKey`].
/// Many classes share one unchanged side (typically `pre` on a
/// mostly-unchanged snapshot), so `det(image(State, R))` for that side
/// is computed once and reused instead of re-running
/// image → trim → determinize per class.
///
/// Per-run by default; a `CheckSession` shares one memo across jobs via
/// [`Checker::with_memo`] so an unchanged side survives from one
/// submission to the next (the keys are content hashes, so reuse across
/// runs is exactly as sound as reuse within one).
pub(crate) struct FstMemo {
    map: Mutex<HashMap<MemoKey, Arc<Dfa>>>,
    pub(crate) hits: AtomicUsize,
}

impl FstMemo {
    pub(crate) fn new() -> FstMemo {
        FstMemo {
            map: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
        }
    }

    /// Fetch the memoized side, or compute and record it. Competing
    /// workers may compute the same side concurrently; both produce
    /// structurally identical DFAs (the hash contract), so
    /// last-insert-wins is sound.
    fn get_or_compute(&self, key: Option<MemoKey>, compute: impl FnOnce() -> Dfa) -> Arc<Dfa> {
        let Some(key) = key else {
            return Arc::new(compute());
        };
        // poison-immune: a worker panicking while holding this lock must
        // not take every later job on the resident session down with it
        // (memo entries are content-keyed and idempotent, so the map is
        // valid whatever a panicked holder was doing)
        let held = self
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .cloned();
        if let Some(hit) = held {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        let dfa = Arc::new(compute());
        let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        if map.len() < FST_MEMO_CAP {
            map.insert(key, dfa.clone());
        }
        dfa
    }
}

/// A compiled check with its relations pre-lowered to transducers.
/// Relations never mention `PreState`/`PostState`, so the FSTs are
/// computed once and shared across every FEC.
struct LoweredCheck<'a> {
    check: &'a CompiledCheck,
    /// For relational checks: per part, (lowered rpre, lowered rpost).
    fsts: Vec<(Fst, Fst)>,
}

impl<'a> LoweredCheck<'a> {
    fn new(check: &'a CompiledCheck) -> LoweredCheck<'a> {
        // relations are state-independent; bind an empty dummy env
        let dummy = PairFsas::new(Nfa::empty_language(), Nfa::empty_language());
        let fsts = match check {
            CompiledCheck::Relational { parts, .. } => parts
                .iter()
                .map(|p| {
                    debug_assert!(!p.rpre.mentions_state() && !p.rpost.mentions_state());
                    (lower_rel(&p.rpre, &dummy), lower_rel(&p.rpost, &dummy))
                })
                .collect(),
            CompiledCheck::Raw { .. } | CompiledCheck::PathLimit { .. } => Vec::new(),
        };
        LoweredCheck { check, fsts }
    }
}

/// What every decide of one run shares: the program's checks with their
/// relations pre-lowered, the run alphabet, and the FST memo.
struct DecideCtx<'r> {
    default: LoweredCheck<'r>,
    routed: Vec<LoweredCheck<'r>>,
    alphabet: RunAlphabet<'r>,
    memo: &'r FstMemo,
}

impl<'r> DecideCtx<'r> {
    fn new(program: &'r CompiledProgram, memo: &'r FstMemo) -> DecideCtx<'r> {
        DecideCtx {
            default: LoweredCheck::new(&program.default_check),
            routed: program
                .routed
                .iter()
                .map(|r| LoweredCheck::new(&r.check))
                .collect(),
            alphabet: RunAlphabet::new(&program.table),
            memo,
        }
    }

    /// The lowered check a FEC on `route` is decided against.
    fn lowered(&self, route: Option<usize>) -> &LoweredCheck<'r> {
        route.map_or(&self.default, |r| &self.routed[r])
    }
}

/// The checker: a compiled program bound to a location database.
pub struct Checker<'a> {
    program: &'a CompiledProgram,
    db: &'a LocationDb,
    options: CheckOptions,
    cache: Option<&'a VerdictStore>,
    memo: Option<&'a FstMemo>,
    retention: Option<&'a RetentionSlot>,
    cancel: Option<&'a CancelToken>,
}

impl<'a> Checker<'a> {
    /// Create a checker with default options.
    pub fn new(program: &'a CompiledProgram, db: &'a LocationDb) -> Checker<'a> {
        Checker {
            program,
            db,
            options: CheckOptions::default(),
            cache: None,
            memo: None,
            retention: None,
            cancel: None,
        }
    }

    /// Override the options.
    pub fn with_options(mut self, options: CheckOptions) -> Checker<'a> {
        self.options = options;
        self
    }

    /// Attach a persistent verdict store (opened at [`cache_epoch`] of
    /// the program's AST). Classes found in the store replay without
    /// being decided; fresh decisions are written back. The caller owns
    /// persistence — call [`VerdictStore::persist`] after checking.
    pub fn with_cache(mut self, cache: &'a VerdictStore) -> Checker<'a> {
        self.cache = Some(cache);
        self
    }

    /// Share a session-lifetime FST memo across runs (crate-internal:
    /// the session API is the public surface for this). The reported
    /// `fst_memo_hits` stat is this run's delta, computed as a
    /// before/after difference — approximate only when jobs share the
    /// memo concurrently.
    pub(crate) fn with_memo(mut self, memo: &'a FstMemo) -> Checker<'a> {
        self.memo = Some(memo);
        self
    }

    /// Retain the snapshot pair of each successful pipelined run into
    /// `slot` (crate-internal: the session owns the slot and uses it to
    /// serve `--delta-base` submissions against the retained epoch).
    pub(crate) fn with_retention(mut self, slot: &'a RetentionSlot) -> Checker<'a> {
        self.retention = Some(slot);
        self
    }

    /// Attach a cooperative cancellation token (crate-internal: the
    /// session builds one from `JobOptions::deadline_ms`). The engine
    /// polls it at class boundaries; once it expires the run returns an
    /// empty report quickly and the session surfaces the deadline as a
    /// typed error.
    pub(crate) fn with_cancel(mut self, token: &'a CancelToken) -> Checker<'a> {
        self.cancel = Some(token);
        self
    }

    /// Poll the attached cancellation token, if any.
    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::check)
    }

    /// True when the attached token has already fired (without
    /// re-polling the clock).
    fn was_cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::fired)
    }

    /// The placeholder report an expired run returns. The session never
    /// shows it — it sees the fired token and replies with a typed
    /// deadline error — so its only job is to be cheap and well-formed.
    fn cancelled_report(&self, start: Instant) -> CheckReport {
        CheckReport::with_stats(Vec::new(), start.elapsed(), CheckStats::default())
    }

    /// Check every FEC of an aligned in-memory snapshot pair through the
    /// pipelined engine. The FECs enter class admission already
    /// decoded: each is behavior-hashed and admitted by behavior key,
    /// and class representatives borrow the pair — no serialization, no
    /// byte keys, no graph decodes, no copies. The report is
    /// byte-identical to [`Checker::check_pipelined`] over the same
    /// records.
    pub fn check(&self, pair: &SnapshotPair) -> CheckReport {
        self.run_pipelined(
            PipeFeed::<std::io::Empty, std::io::Empty>::Pair(&pair.fecs),
            [None, None],
        )
        .expect("an in-memory pair has no ingest errors")
    }

    /// Check two snapshot streams through the pipelined engine, which
    /// overlaps framing, decoding, fingerprinting, and deciding:
    ///
    /// 1. **Framers** (one thread per snapshot) extract undecoded record
    ///    spans ([`rela_net::SnapshotFramer`]) and push them over a
    ///    bounded channel — back-pressure caps raw-record memory at a
    ///    fixed number of in-flight spans per worker.
    /// 2. **Decode workers** parse each span, compute its side's
    ///    [`BehaviorHash`], and hash-join it with its partner on the
    ///    flow key (sharded join map; only unmatched records spill).
    /// 3. A **class registry** (sharded by `(pre, post, route)`) admits
    ///    the first representative of each behavior class; graph
    ///    residency stays O(classes).
    /// 4. Idle workers **begin deciding** admitted classes while records
    ///    still arrive: warm classes replay from the persistent store
    ///    immediately, and cold classes are decided eagerly. Every
    ///    verdict is final — witness bytes are defined by location
    ///    names, not by symbol ids or arrival order — so the finisher
    ///    decides only the classes no worker reached.
    ///
    /// The produced report is byte-identical to [`Checker::check`] on
    /// the same records at any thread count. The first stream error
    /// aborts the pipeline (framers stop, workers drain) and is returned
    /// with [`rela_net::SnapshotReader`]'s offset/entry-index contract;
    /// when several errors are discovered concurrently, the lowest entry
    /// index wins, `pre` before `post`.
    pub fn check_pipelined<A, B>(
        &self,
        pre: SnapshotFramer<A>,
        post: SnapshotFramer<B>,
    ) -> Result<CheckReport, SnapshotError>
    where
        A: Read + Send,
        B: Read + Send,
    {
        let labels: [Option<String>; 2] = [
            pre.label().map(str::to_owned),
            post.label().map(str::to_owned),
        ];
        self.run_pipelined(PipeFeed::Framers(Box::new(pre), Box::new(post)), labels)
    }

    /// Check a pre-built item feed through the pipelined engine — the
    /// delta path: replayed base records and freshly framed delta
    /// records ride the same bounded channel, workers, and byte-level
    /// admission as a full snapshot pair, which is what makes the delta
    /// reply byte-identical to a full resubmission.
    pub(crate) fn check_prepared(
        &self,
        items: Vec<PreparedItem>,
        labels: [Option<String>; 2],
    ) -> Result<CheckReport, SnapshotError> {
        self.run_pipelined(
            PipeFeed::<std::io::Empty, std::io::Empty>::Prepared(items),
            labels,
        )
    }

    /// The engine behind [`Checker::check`], [`Checker::check_pipelined`],
    /// and the delta path.
    fn run_pipelined<A, B>(
        &self,
        feed: PipeFeed<'_, A, B>,
        labels: [Option<String>; 2],
    ) -> Result<CheckReport, SnapshotError>
    where
        A: Read + Send,
        B: Read + Send,
    {
        let start = Instant::now();
        let threads = self.resolve_threads();
        let workers = threads.max(1);

        // capacity counts batches: a records-in-flight budget of
        // IN_FLIGHT_PER_WORKER × workers, converted through the
        // average-record hint into byte-cut batches. An in-memory pair's
        // batches are borrowed slices, so the channel holds all of them.
        let capacity = match &feed {
            PipeFeed::Pair(fecs) => fecs.len().div_ceil(FRAME_BATCH_RECORDS),
            _ => IN_FLIGHT_PER_WORKER
                .saturating_mul(workers)
                .saturating_mul(FRAME_RECORD_HINT)
                .div_ceil(FRAME_BATCH_BYTES),
        };
        let channel: Channel<PipeBatch<'_>> = Channel::new(capacity.max(2));
        let shards = workers.next_power_of_two().max(8);
        let join = JoinMap::new(shards);
        let registry = ClassRegistry::new(shards, self.options.dedup);
        let decide_queue = DecideQueue::new();
        let errors = ErrorSink::new();
        let local_memo = FstMemo::new();
        let memo: &FstMemo = self.memo.unwrap_or(&local_memo);
        let memo_hits_before = memo.hits.load(Ordering::Relaxed);
        let ctx = DecideCtx::new(self.program, memo);
        // the two framers share the close; single producers close alone
        let producers_left = AtomicUsize::new(2);

        let mut locals: Vec<PipelineWorkerState> = std::thread::scope(|scope| {
            {
                let (channel, errors, left) = (&channel, &errors, &producers_left);
                match feed {
                    PipeFeed::Framers(pre, post) => {
                        scope.spawn(move || frame_side(*pre, Side::Pre, channel, errors, left));
                        scope.spawn(move || frame_side(*post, Side::Post, channel, errors, left));
                    }
                    PipeFeed::Prepared(items) => {
                        scope.spawn(move || feed_prepared(items, channel, errors));
                    }
                    // the whole pair is queued and the channel closed
                    // before any worker starts, so workers never wait
                    // on it and every decide happens in the finisher
                    PipeFeed::Pair(fecs) => {
                        for chunk in fecs.chunks(FRAME_BATCH_RECORDS) {
                            let _ = channel.send(PipeBatch::Decoded(chunk));
                        }
                        channel.close();
                    }
                }
            }
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let channel = &channel;
                    let join = &join;
                    let registry = &registry;
                    let decide_queue = &decide_queue;
                    let errors = &errors;
                    let ctx = &ctx;
                    let labels = &labels;
                    scope.spawn(move || {
                        self.pipeline_worker(
                            worker,
                            channel,
                            join,
                            registry,
                            decide_queue,
                            errors,
                            ctx,
                            labels,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(join_worker).collect()
        });

        if errors.aborted() {
            return Err(errors.into_first().expect("abort implies a recorded error"));
        }
        if self.was_cancelled() {
            return Ok(self.cancelled_report(start));
        }

        // Both streams ended cleanly: drain flows seen on one side only
        // (the missing side is the canonical empty-graph span, so it
        // byte-hashes and fingerprints exactly as an empty graph in an
        // aligned pair). Sorted by entry index so a decode error
        // surfaces for the record the serial reader would hit first.
        let mut drain_state = PipelineWorkerState::new();
        let empty_span = GraphSpan::whole(
            serde_json::to_string(&ForwardingGraph::default().to_value())
                .expect("the empty graph serializes")
                .into_bytes(),
        );
        let empty_hash = content_hash128(empty_span.as_slice());
        let mut one_sided = join.drain_one_sided();
        one_sided.sort_by_key(|one| (one.provenance.index, one.side));
        for one in one_sided {
            let OneSided {
                flow,
                side,
                span,
                hash,
                provenance,
            } = one;
            let route = self.route_of_flow(&flow);
            let own = JoinedSide {
                span,
                hash,
                provenance,
            };
            let absent = JoinedSide {
                span: empty_span.clone(),
                hash: empty_hash,
                provenance,
            };
            let (pre_side, post_side) = match side {
                Side::Pre => (own, absent),
                Side::Post => (absent, own),
            };
            if let Err((_, e)) = self.pipeline_admit_spans(
                workers, // the drain acts as one extra pseudo-worker
                flow,
                route,
                pre_side,
                post_side,
                &registry,
                &decide_queue,
                &labels,
                &mut drain_state,
            ) {
                return Err(e);
            }
        }
        locals.push(drain_state);

        // Flatten worker-local state into the flat engine inputs.
        let mut phases = PhaseTimings::default();
        let mut offsets = Vec::with_capacity(locals.len());
        let mut flows: Vec<FlowSpec> = Vec::new();
        let mut outcomes: Vec<(ClassRef, EagerOutcome)> = Vec::new();
        let mut graph_decodes = 0usize;
        let mut captured: Vec<(Side, RetainedRecord)> = Vec::new();
        for mut local in locals {
            offsets.push(flows.len());
            flows.append(&mut local.flows);
            outcomes.append(&mut local.outcomes);
            phases.merge(&local.phases);
            graph_decodes += local.decodes;
            captured.append(&mut local.captured);
        }
        let (accs, shard_offsets) = registry.into_classes();
        let mut classes: Vec<BehaviorClass> = Vec::with_capacity(accs.len());
        let mut reps: Vec<Rep<'_>> = Vec::with_capacity(accs.len());
        for acc in accs {
            classes.push(BehaviorClass {
                route: acc.route,
                key: acc.key,
                byte_key: acc.byte_key,
                members: acc
                    .members
                    .iter()
                    .map(|m| offsets[m.worker] + m.local)
                    .collect(),
            });
            reps.push(acc.rep);
        }

        // Eager outcomes are final; the finisher decides only the
        // classes no worker reached (tasks left queued when the stream
        // ended), so no class is decided twice.
        let mut covered = vec![false; classes.len()];
        let mut warm: Vec<(usize, FecResult)> = Vec::new();
        let mut done: Vec<(usize, FecResult, Duration, PhaseTimings)> = Vec::new();
        for (class_ref, outcome) in outcomes {
            let global = shard_offsets[class_ref.shard] + class_ref.index;
            covered[global] = true;
            match outcome {
                EagerOutcome::Warm(result) => warm.push((global, result)),
                EagerOutcome::Decided(result, wall, class_phases) => {
                    done.push((global, result, wall, class_phases))
                }
            }
        }
        let cold: Vec<usize> = (0..classes.len()).filter(|&ix| !covered[ix]).collect();
        let (fresh, final_phases) = self.decide_classes(&cold, &classes, &reps, &ctx, threads);
        phases.merge(&final_phases);
        if self.was_cancelled() {
            // partial decides are individually sound but the run is not
            // complete: nothing may be retained as a delta base, and the
            // session replies with the deadline error instead
            return Ok(self.cancelled_report(start));
        }

        // Write every fresh decision back to the store (eager compliant
        // verdicts and finisher decisions alike) — under the behavior
        // key, and mirrored under the founding byte key so the next run
        // can replay without decoding.
        if let Some(cache) = self.cache {
            for (ix, result, wall, class_phases) in done.iter().chain(fresh.iter()) {
                let class = &classes[*ix];
                if let Some(key) = self.store_key(class) {
                    let value = result.to_cache_value(*wall, class_phases);
                    if let Some(byte_key) = class.byte_key {
                        cache.put(&self.byte_store_key(byte_key, class.route), value.clone());
                    }
                    cache.put(&key, value);
                }
            }
        }

        // Retain the pair for delta-base replay (only a clean, complete
        // run may become a base).
        if let Some(slot) = self.retention {
            captured.sort_by_key(|(side, record)| (*side, record.index));
            let mut pre_records = Vec::new();
            let mut post_records = Vec::new();
            for (side, record) in captured {
                match side {
                    Side::Pre => pre_records.push(record),
                    Side::Post => post_records.push(record),
                }
            }
            let fold_of = |records: &[RetainedRecord]| {
                side_fold(records.iter().map(|r| record_mix(&r.flow, r.hash)))
            };
            let epoch = pair_epoch(fold_of(&pre_records), fold_of(&post_records)).as_u128();
            slot.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Arc::new(RetainedBase {
                    epoch,
                    pre: pre_records,
                    post: post_records,
                }));
        }

        let decided: Vec<(usize, FecResult, Duration)> = done
            .into_iter()
            .chain(fresh)
            .map(|(ix, result, wall, _)| (ix, result, wall))
            .collect();
        Ok(self.assemble_report(
            start,
            &flows,
            &classes,
            warm,
            decided,
            memo.hits
                .load(Ordering::Relaxed)
                .saturating_sub(memo_hits_before),
            phases,
            graph_decodes,
        ))
    }

    /// One decode/fingerprint worker: pull raw spans while they arrive,
    /// and decide admitted classes in the gaps (decode has priority —
    /// it is what un-blocks the framers).
    #[allow(clippy::too_many_arguments)] // internal; mirrors the engine's data flow
    fn pipeline_worker<'p>(
        &self,
        worker: usize,
        channel: &Channel<PipeBatch<'p>>,
        join: &JoinMap,
        registry: &ClassRegistry<'p>,
        decide_queue: &DecideQueue<'p>,
        errors: &ErrorSink,
        ctx: &DecideCtx<'_>,
        labels: &[Option<String>; 2],
    ) -> PipelineWorkerState {
        let _poison_guard = PoisonOnPanic(channel);
        let mut state = PipelineWorkerState::new();
        loop {
            // deadline poll between batches: poisoning the channel stops
            // the framers and releases the other workers, so an expired
            // job drains in one batch per worker instead of finishing
            // the snapshot
            if self.cancelled() {
                channel.poison();
                return state;
            }
            match channel.recv(Duration::from_millis(1)) {
                Recv::Item(PipeBatch::Raw(side, batch)) => {
                    for raw in batch {
                        if let Err((side, e)) = self.pipeline_record(
                            worker,
                            side,
                            raw,
                            join,
                            registry,
                            decide_queue,
                            labels,
                            &mut state,
                        ) {
                            errors.record(side, e);
                            channel.poison();
                            break;
                        }
                    }
                }
                Recv::Item(PipeBatch::Prepared(batch)) => {
                    for item in batch {
                        if let Err((side, e)) = self.pipeline_prepared(
                            worker,
                            item,
                            join,
                            registry,
                            decide_queue,
                            labels,
                            &mut state,
                        ) {
                            errors.record(side, e);
                            channel.poison();
                            break;
                        }
                    }
                }
                Recv::Item(PipeBatch::Decoded(fecs)) => {
                    for fec in fecs {
                        self.admit_decoded(worker, fec, registry, decide_queue, &mut state);
                    }
                }
                Recv::Timeout => {
                    if let Some(task) = decide_queue.pop() {
                        self.eager_decide(task, ctx, &mut state);
                    }
                }
                Recv::Closed => return state,
            }
        }
    }

    /// Process one prepared (delta-path) item.
    #[allow(clippy::too_many_arguments)] // internal; mirrors the engine's data flow
    fn pipeline_prepared<'p>(
        &self,
        worker: usize,
        item: PreparedItem,
        join: &JoinMap,
        registry: &ClassRegistry<'p>,
        decide_queue: &DecideQueue<'p>,
        labels: &[Option<String>; 2],
        state: &mut PipelineWorkerState,
    ) -> Result<(), (Side, SnapshotError)> {
        match item {
            PreparedItem::Record { side, raw } => self.pipeline_record(
                worker,
                side,
                raw,
                join,
                registry,
                decide_queue,
                labels,
                state,
            ),
            PreparedItem::Replay { side, record } => {
                let provenance = Provenance {
                    index: record.index,
                    offset: 0, // replayed spans have no document offset
                };
                self.pipeline_side(
                    worker,
                    side,
                    record.flow,
                    record.span,
                    record.hash,
                    provenance,
                    join,
                    registry,
                    decide_queue,
                    labels,
                    state,
                )
            }
            PreparedItem::PairReplay { pre, post } => {
                if self.retention.is_some() {
                    state.captured.push((Side::Pre, pre.clone()));
                    state.captured.push((Side::Post, post.clone()));
                }
                let flow = pre.flow;
                let route = self.route_of_flow(&flow);
                let pre_side = JoinedSide {
                    span: pre.span,
                    hash: pre.hash,
                    provenance: Provenance {
                        index: pre.index,
                        offset: 0,
                    },
                };
                let post_side = JoinedSide {
                    span: post.span,
                    hash: post.hash,
                    provenance: Provenance {
                        index: post.index,
                        offset: 0,
                    },
                };
                self.pipeline_admit_spans(
                    worker,
                    flow,
                    route,
                    pre_side,
                    post_side,
                    registry,
                    decide_queue,
                    labels,
                    state,
                )
            }
        }
    }

    /// Decode one framed record's flow key, fingerprint its raw graph
    /// span, and hand it to the side joiner. The graph itself stays
    /// undecoded — byte-level admission decides whether decoding is
    /// needed at all.
    #[allow(clippy::too_many_arguments)] // internal; mirrors the engine's data flow
    fn pipeline_record<'p>(
        &self,
        worker: usize,
        side: Side,
        raw: RawRecord,
        join: &JoinMap,
        registry: &ClassRegistry<'p>,
        decide_queue: &DecideQueue<'p>,
        labels: &[Option<String>; 2],
        state: &mut PipelineWorkerState,
    ) -> Result<(), (Side, SnapshotError)> {
        let label = labels[match side {
            Side::Pre => 0,
            Side::Post => 1,
        }]
        .as_deref();
        let provenance = Provenance {
            index: raw.index,
            offset: raw.offset,
        };
        let (flow, span) = match raw.decode_flow(label).map_err(|e| (side, e))? {
            // the graph span shares the framer's backing buffer (record
            // vec or file mapping) — no copy; keep the sibling flow span
            // of split (binary) records for error reconstruction
            FlowDecoded::Split(flow, graph_span) => {
                let flow_span = match &raw.body {
                    RecordBody::Split { flow, .. } => Some(flow.clone()),
                    RecordBody::Json(_) => None,
                };
                (
                    flow,
                    GraphSpan {
                        span: graph_span,
                        flow: flow_span,
                    },
                )
            }
            // non-canonical encoding: re-serialize the parsed graph so
            // byte keys are encoding-invariant
            FlowDecoded::Full(flow, graph) => (
                flow,
                GraphSpan::whole(
                    serde_json::to_string(&graph.to_value())
                        .expect("a parsed graph re-serializes")
                        .into_bytes(),
                ),
            ),
        };
        let hash = content_hash128(span.as_slice());
        self.pipeline_side(
            worker,
            side,
            flow,
            span,
            hash,
            provenance,
            join,
            registry,
            decide_queue,
            labels,
            state,
        )
    }

    /// Join one fingerprinted side with its partner; a completed pair is
    /// admitted to the class registry.
    #[allow(clippy::too_many_arguments)] // internal; mirrors the engine's data flow
    fn pipeline_side<'p>(
        &self,
        worker: usize,
        side: Side,
        flow: FlowSpec,
        span: GraphSpan,
        hash: u128,
        provenance: Provenance,
        join: &JoinMap,
        registry: &ClassRegistry<'p>,
        decide_queue: &DecideQueue<'p>,
        labels: &[Option<String>; 2],
        state: &mut PipelineWorkerState,
    ) -> Result<(), (Side, SnapshotError)> {
        if self.retention.is_some() {
            state.captured.push((
                side,
                RetainedRecord {
                    flow: flow.clone(),
                    span: span.clone(),
                    hash,
                    index: provenance.index,
                },
            ));
        }
        let route = self.route_of_flow(&flow);
        match join.insert(side, &flow, span, hash, provenance) {
            Joined::Pending => Ok(()),
            Joined::Duplicate(second) => {
                // `second` is the occurrence with the larger entry index
                // — what the serial reader names, whichever record a
                // worker happened to decode first
                let label = labels[match side {
                    Side::Pre => 0,
                    Side::Post => 1,
                }]
                .as_deref();
                let mut e = SnapshotError::at(format!("duplicate flow {flow}"), second.offset)
                    .with_entry(second.index);
                if let Some(label) = label {
                    e = e.with_source_label(label);
                }
                Err((side, e))
            }
            Joined::Paired { pre, post } => self.pipeline_admit_spans(
                worker,
                flow,
                route,
                pre,
                post,
                registry,
                decide_queue,
                labels,
                state,
            ),
        }
    }

    /// Admit one paired flow to the class registry by its raw byte key.
    /// A byte-key hit joins the already-resolved class with zero decode
    /// work; a miss resolves a class — decode, fingerprint,
    /// behavior-admit, store-consult — under the byte-shard lock, so
    /// exactly one member per byte key pays for the decode.
    #[allow(clippy::too_many_arguments)] // internal; mirrors the engine's data flow
    fn pipeline_admit_spans<'p>(
        &self,
        worker: usize,
        flow: FlowSpec,
        route: Option<usize>,
        pre: JoinedSide,
        post: JoinedSide,
        registry: &ClassRegistry<'p>,
        decide_queue: &DecideQueue<'p>,
        labels: &[Option<String>; 2],
        state: &mut PipelineWorkerState,
    ) -> Result<(), (Side, SnapshotError)> {
        let member = new_member(worker, &flow, state);
        if !self.options.dedup {
            let pre_graph = self.decode_side(Side::Pre, &pre, labels, state)?;
            let post_graph = self.decode_side(Side::Post, &post, labels, state)?;
            let fec = AlignedFec {
                flow,
                pre: pre_graph,
                post: post_graph,
            };
            self.admit_fec(
                Cow::Owned(fec),
                None,
                None,
                route,
                member,
                registry,
                decide_queue,
                state,
            );
            return Ok(());
        }
        let byte_key = (pre.hash, post.hash, route.unwrap_or(usize::MAX));
        registry.admit_by_bytes(byte_key, member, || {
            self.resolve_byte_class(
                &flow,
                route,
                &pre,
                &post,
                (pre.hash, post.hash),
                member,
                registry,
                decide_queue,
                labels,
                state,
            )
        })?;
        Ok(())
    }

    /// Resolve the behavior class for a byte-key founder: consult the
    /// byte-keyed store first (a hit replays the verdict with **zero**
    /// graph decodes), else decode both sides, fingerprint, admit by
    /// behavior key, and — when this member also founds the behavior
    /// class — consult the behavior-keyed store as before.
    #[allow(clippy::too_many_arguments)] // internal; mirrors the engine's data flow
    fn resolve_byte_class<'p>(
        &self,
        flow: &FlowSpec,
        route: Option<usize>,
        pre: &JoinedSide,
        post: &JoinedSide,
        byte_key: (u128, u128),
        member: FlowRef,
        registry: &ClassRegistry<'p>,
        decide_queue: &DecideQueue<'p>,
        labels: &[Option<String>; 2],
        state: &mut PipelineWorkerState,
    ) -> Result<ClassRef, (Side, SnapshotError)> {
        if let Some(cache) = self.cache {
            let key = self.byte_store_key(byte_key, route);
            if let Some(payload) = cache.get(&key) {
                if let Some(result) = FecResult::from_cache_value(&payload, flow.clone()) {
                    let placeholder = AlignedFec {
                        flow: flow.clone(),
                        pre: ForwardingGraph::default(),
                        post: ForwardingGraph::default(),
                    };
                    let (class, _) =
                        registry.admit(Cow::Owned(placeholder), None, None, route, member);
                    state.outcomes.push((class, EagerOutcome::Warm(result)));
                    return Ok(class);
                }
            }
        }
        let pre_graph = self.decode_side(Side::Pre, pre, labels, state)?;
        let post_graph = self.decode_side(Side::Post, post, labels, state)?;
        let fec = AlignedFec {
            flow: flow.clone(),
            pre: pre_graph,
            post: post_graph,
        };
        let key = self.behavior_key(&fec, route);
        Ok(self.admit_fec(
            Cow::Owned(fec),
            Some(key),
            Some(byte_key),
            route,
            member,
            registry,
            decide_queue,
            state,
        ))
    }

    /// Admit one FEC of an in-memory pair: it is already decoded, so it
    /// goes straight to behavior-key admission (no byte key, no
    /// decode), and a class it founds borrows it from the pair.
    fn admit_decoded<'p>(
        &self,
        worker: usize,
        fec: &'p AlignedFec,
        registry: &ClassRegistry<'p>,
        decide_queue: &DecideQueue<'p>,
        state: &mut PipelineWorkerState,
    ) {
        let member = new_member(worker, &fec.flow, state);
        let route = self.route_of_flow(&fec.flow);
        let key = self.options.dedup.then(|| self.behavior_key(fec, route));
        self.admit_fec(
            Cow::Borrowed(fec),
            key,
            None,
            route,
            member,
            registry,
            decide_queue,
            state,
        );
    }

    /// Admit a decoded FEC under its behavior key (`None` with dedup
    /// off: the FEC founds its own class). A founder replays from the
    /// behavior-keyed store when it can — twinning the verdict under
    /// `byte_key`, when there is one, so the next identical snapshot
    /// skips the decode — and is queued for an eager decide otherwise.
    #[allow(clippy::too_many_arguments)] // internal; mirrors the engine's data flow
    fn admit_fec<'p>(
        &self,
        fec: Cow<'p, AlignedFec>,
        key: Option<(BehaviorHash, BehaviorHash)>,
        byte_key: Option<(u128, u128)>,
        route: Option<usize>,
        member: FlowRef,
        registry: &ClassRegistry<'p>,
        decide_queue: &DecideQueue<'p>,
        state: &mut PipelineWorkerState,
    ) -> ClassRef {
        let (class, rep) = registry.admit(fec, key, byte_key, route, member);
        let Some(rep) = rep else {
            // joined a class founded by an earlier member
            return class;
        };
        let replay =
            self.cache
                .zip(self.store_key_parts(key, route))
                .and_then(|(cache, store_key)| {
                    cache.get(&store_key).and_then(|payload| {
                        FecResult::from_cache_value(&payload, rep.flow.clone())
                            .map(|result| (cache, payload, result))
                    })
                });
        match replay {
            Some((cache, payload, result)) => {
                if let Some(byte_key) = byte_key {
                    cache.put(&self.byte_store_key(byte_key, route), payload);
                }
                state.outcomes.push((class, EagerOutcome::Warm(result)));
            }
            None => decide_queue.push(EagerTask {
                class,
                rep,
                route,
                key,
            }),
        }
        class
    }

    /// Decode one side's graph span, attributing failures exactly as the
    /// serial reader would for the same record.
    fn decode_side(
        &self,
        side: Side,
        joined: &JoinedSide,
        labels: &[Option<String>; 2],
        state: &mut PipelineWorkerState,
    ) -> Result<ForwardingGraph, (Side, SnapshotError)> {
        state.decodes += 1;
        decode_graph_span(joined.span.as_slice()).map_err(|message| {
            let label = labels[match side {
                Side::Pre => 0,
                Side::Post => 1,
            }]
            .as_deref();
            // if the span came out of an intact record, re-run the
            // serial decoder over the reassembled record so the error
            // text matches the serial contract byte for byte
            if let Some(raw) = joined
                .span
                .reconstruct_record(joined.provenance.offset, joined.provenance.index)
            {
                if let Err(e) = raw.decode(label) {
                    return (side, e);
                }
            }
            let mut e = SnapshotError::at(message, joined.provenance.offset)
                .with_entry(joined.provenance.index);
            if let Some(label) = label {
                e = e.with_source_label(label);
            }
            (side, e)
        })
    }

    /// Decide one class mid-ingest. The verdict is final: it renders
    /// exactly as a finisher decide of the same class would.
    fn eager_decide(
        &self,
        task: EagerTask<'_>,
        ctx: &DecideCtx<'_>,
        state: &mut PipelineWorkerState,
    ) {
        let t0 = Instant::now();
        let before = state.phases;
        let result = self.check_class(
            task.rep.borrow(),
            task.route,
            task.key,
            ctx,
            &mut state.phases,
        );
        let outcome = EagerOutcome::Decided(result, t0.elapsed(), state.phases.since(&before));
        state.outcomes.push((task.class, outcome));
    }

    /// `options.threads`, with `0` resolved to the machine's available
    /// parallelism.
    fn resolve_threads(&self) -> usize {
        if self.options.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.options.threads
        }
    }

    /// The finisher: decide the classes listed in `cold` (indices into
    /// `classes`) over a work-stealing queue — workers pull the next
    /// undecided class from an atomic cursor, so a pathological class
    /// occupies one worker while the rest drain the queue, instead of
    /// stalling a statically assigned chunk.
    fn decide_classes(
        &self,
        cold: &[usize],
        classes: &[BehaviorClass],
        reps: &[Rep<'_>],
        ctx: &DecideCtx<'_>,
        threads: usize,
    ) -> (
        Vec<(usize, FecResult, Duration, PhaseTimings)>,
        PhaseTimings,
    ) {
        let mut decided: Vec<(usize, FecResult, Duration, PhaseTimings)> =
            Vec::with_capacity(cold.len());
        let mut phases = PhaseTimings::default();
        if threads <= 1 || cold.len() <= 1 {
            for &ix in cold {
                if self.cancelled() {
                    break;
                }
                let class = &classes[ix];
                let t0 = Instant::now();
                let before = phases;
                let result = self.check_class(&reps[ix], class.route, class.key, ctx, &mut phases);
                decided.push((ix, result, t0.elapsed(), phases.since(&before)));
            }
        } else {
            let cursor = AtomicUsize::new(0);
            let worker_out = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let cursor = &cursor;
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            let mut local_phases = PhaseTimings::default();
                            loop {
                                let next = cursor.fetch_add(1, Ordering::Relaxed);
                                if next >= cold.len() || self.cancelled() {
                                    break;
                                }
                                let ix = cold[next];
                                let class = &classes[ix];
                                let t0 = Instant::now();
                                let before = local_phases;
                                let result = self.check_class(
                                    &reps[ix],
                                    class.route,
                                    class.key,
                                    ctx,
                                    &mut local_phases,
                                );
                                out.push((ix, result, t0.elapsed(), local_phases.since(&before)));
                            }
                            (out, local_phases)
                        })
                    })
                    .collect();
                handles.into_iter().map(join_worker).collect::<Vec<_>>()
            });
            for (out, local_phases) in worker_out {
                decided.extend(out);
                phases.merge(&local_phases);
            }
        }
        (decided, phases)
    }

    /// Broadcast each representative's verdict to every class member and
    /// aggregate the report: slots are filled by member flow index, then
    /// sorted by flow, so the report bytes are independent of class
    /// ordering and decide scheduling.
    #[allow(clippy::too_many_arguments)] // internal; mirrors the engine's data flow
    fn assemble_report(
        &self,
        start: Instant,
        flows: &[FlowSpec],
        classes: &[BehaviorClass],
        warm: Vec<(usize, FecResult)>,
        decided: Vec<(usize, FecResult, Duration)>,
        fst_memo_hits: usize,
        phases: PhaseTimings,
        graph_decodes: usize,
    ) -> CheckReport {
        let warm_hits = warm.len();
        let mut max_class_time = Duration::ZERO;
        let mut slots: Vec<Option<FecResult>> = vec![None; flows.len()];
        let broadcast = decided.into_iter().chain(
            warm.into_iter()
                .map(|(ix, result)| (ix, result, Duration::ZERO)),
        );
        for (class_ix, result, class_time) in broadcast {
            max_class_time = max_class_time.max(class_time);
            for &member in &classes[class_ix].members {
                let mut r = result.clone();
                r.flow = flows[member].clone();
                slots[member] = Some(r);
            }
        }
        let mut results: Vec<FecResult> = slots
            .into_iter()
            .map(|r| r.expect("every FEC belongs to a class"))
            .collect();
        results.sort_by(|a, b| a.flow.cmp(&b.flow));
        let stats = CheckStats {
            fecs: flows.len(),
            classes: classes.len(),
            dedup_hits: flows.len() - classes.len(),
            warm_hits,
            fst_memo_hits,
            phases,
            max_class_time,
            graph_decodes,
        };
        CheckReport::with_stats(results, start.elapsed(), stats)
    }

    /// The class key of a decoded FEC: its pre/post behavior hashes at
    /// the granularity the routed check observes.
    fn behavior_key(&self, fec: &AlignedFec, route: Option<usize>) -> (BehaviorHash, BehaviorHash) {
        let level = self.hash_level(route);
        (
            behavior_hash(&fec.pre, self.db, level),
            behavior_hash(&fec.post, self.db, level),
        )
    }

    /// The granularity at which a FEC on `route` is behavior-hashed.
    /// ECMP limit verdicts count link-level paths, so those FECs are
    /// hashed at interface fidelity regardless of the program
    /// granularity; everything else dedups at the granularity the
    /// program actually observes. A side can therefore be hashed knowing
    /// only its flow (the route is a function of the flow alone), which
    /// is what lets pipelined decode workers fingerprint each side
    /// before the pre/post join.
    fn hash_level(&self, route: Option<usize>) -> Granularity {
        let check = route
            .map(|r| &self.program.routed[r].check)
            .unwrap_or(&self.program.default_check);
        if matches!(check, CompiledCheck::PathLimit { .. }) {
            Granularity::Interface
        } else {
            self.program.granularity
        }
    }

    /// The persistent-store key for a class, folding in a fingerprint
    /// of every option that shapes the cached payload — witness limits
    /// and rendered path counts change what gets stored, so runs with
    /// different options must never share an entry (`dedup`/`threads`
    /// only affect scheduling and are excluded).
    fn store_key(&self, class: &BehaviorClass) -> Option<CacheKey> {
        self.store_key_parts(class.key, class.route)
    }

    /// The option fingerprint folded into every store key; see
    /// [`Checker::store_key`].
    fn store_variant(&self) -> u64 {
        let mut opts = [0u8; 24];
        opts[..8].copy_from_slice(&(self.options.witness.max_paths as u64).to_le_bytes());
        opts[8..16].copy_from_slice(&(self.options.witness.max_len as u64).to_le_bytes());
        opts[16..24].copy_from_slice(&(self.options.list_paths as u64).to_le_bytes());
        content_hash128(&opts) as u64
    }

    /// [`Checker::store_key`] from the bare key parts.
    fn store_key_parts(
        &self,
        key: Option<(BehaviorHash, BehaviorHash)>,
        route: Option<usize>,
    ) -> Option<CacheKey> {
        let (pre, post) = key?;
        Some(CacheKey {
            pre,
            post,
            granularity: self.program.granularity,
            route,
            variant: self.store_variant(),
        })
    }

    /// The byte-keyed twin of [`Checker::store_key`]: the span content
    /// hashes stand in for the behavior hashes and the variant is
    /// salted so the two key families can never collide.
    fn byte_store_key(&self, byte_key: (u128, u128), route: Option<usize>) -> CacheKey {
        CacheKey {
            pre: BehaviorHash::from_u128(byte_key.0),
            post: BehaviorHash::from_u128(byte_key.1),
            granularity: self.program.granularity,
            route,
            variant: self.store_variant() ^ BYTE_VARIANT_SALT,
        }
    }

    /// The first pspec whose predicate matches `flow`, if any. Routes
    /// are a function of the flow alone, so pipelined workers can route
    /// a record before its partner side arrives.
    fn route_of_flow(&self, flow: &FlowSpec) -> Option<usize> {
        self.program
            .routed
            .iter()
            .position(|r| r.pred.matches(flow))
    }

    /// Check a single FEC (useful for incremental workflows and tests).
    pub fn check_fec(&self, fec: &AlignedFec) -> FecResult {
        let memo = FstMemo::new();
        self.check_class(
            fec,
            self.route_of_flow(&fec.flow),
            None,
            &DecideCtx::new(self.program, &memo),
            &mut PhaseTimings::default(),
        )
    }

    /// Decide one behavior class on its representative FEC. The graphs
    /// are canonicalized first, so every member of a class — which by
    /// construction shares the representative's canonical behavior —
    /// would produce byte-identical output if checked individually
    /// (witness enumeration order depends on automaton layout, and the
    /// canonical form pins that layout).
    fn check_class(
        &self,
        fec: &AlignedFec,
        route: Option<usize>,
        class_key: Option<(BehaviorHash, BehaviorHash)>,
        ctx: &DecideCtx<'_>,
        phases: &mut PhaseTimings,
    ) -> FecResult {
        // deterministic panic injection for the containment tests: with
        // a `panic=decide[@n]` plan installed, the n-th class decided in
        // this process panics here — inside a real engine worker, where
        // an organic bug would
        rela_net::faultio::at("decide").fire();
        let route_name = route.map(|r| self.program.routed[r].name.clone());
        let lowered = ctx.lowered(route);

        let pre_graph = canonical_graph(&fec.pre);
        let post_graph = canonical_graph(&fec.post);
        let t0 = Instant::now();
        // a side that resolved an overflow location is not memoized: the
        // memo only holds automata over the program alphabet
        let side = |graph: &ForwardingGraph, hash: Option<BehaviorHash>| {
            let mut overflow = false;
            let nfa = graph_to_fsa_prepared(graph, self.db, self.program.granularity, |name| {
                let sym = ctx.alphabet.resolve(name);
                overflow |= ctx.alphabet.is_overflow(sym);
                sym
            });
            (nfa, hash.filter(|_| !overflow).map(|h| h.as_u128()))
        };
        let (pre, pre_key) = side(&pre_graph, class_key.map(|(pre, _)| pre));
        let (post, post_key) = side(&post_graph, class_key.map(|(_, post)| post));
        phases.lower += t0.elapsed();
        let env = PairFsas::new(pre, post);
        let renderer = PathRenderer::new(&ctx.alphabet, &self.program.hash_undo);

        let violations = match lowered.check {
            CompiledCheck::Relational { parts, .. } => self.check_relational(
                parts,
                &lowered.fsts,
                &env,
                &renderer,
                [pre_key, post_key],
                route.unwrap_or(usize::MAX),
                ctx.memo,
                phases,
            ),
            CompiledCheck::Raw { name, spec } => {
                let failures = self.check_raw(spec, &env, &renderer, phases);
                if failures.is_empty() {
                    Vec::new()
                } else {
                    vec![PartViolation {
                        part: name.clone(),
                        detail: ViolationDetail::Raw(failures),
                    }]
                }
            }
            CompiledCheck::PathLimit { name, max } => {
                // combinatorial count on the DAG — path counting is not
                // expressible with regular relations (paper §9.1)
                let count = post_graph.path_count().unwrap_or(u128::MAX);
                if count <= u128::from(*max) {
                    Vec::new()
                } else {
                    vec![PartViolation {
                        part: name.clone(),
                        detail: ViolationDetail::Raw(vec![format!(
                            "flow has {count} ECMP paths, exceeding the limit of {max}"
                        )]),
                    }]
                }
            }
        };

        let path_limit = WitnessLimits {
            max_paths: self.options.list_paths,
            max_len: path_len_bound(&pre_graph).max(path_len_bound(&post_graph)),
        };
        let (pre_paths, post_paths) = if violations.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            let t0 = Instant::now();
            let rendered = (
                render_language(&env.pre, &renderer, path_limit),
                render_language(&env.post, &renderer, path_limit),
            );
            phases.witness += t0.elapsed();
            rendered
        };

        FecResult {
            flow: fec.flow.clone(),
            check_name: lowered.check.name().to_owned(),
            route: route_name,
            pre_paths,
            post_paths,
            violations,
        }
    }

    /// Decide every guarded equation of a relational check. Each side's
    /// `det(image(State, R))` is looked up in (or recorded into) the
    /// per-side memo: a side is identified by its behavior hash
    /// (`side_keys`, `None` for a side that must not be memoized) plus
    /// the (route, part) selecting the relation, so classes that share
    /// an unchanged side skip its image and determinization entirely.
    #[allow(clippy::too_many_arguments)] // internal; mirrors the engine's data flow
    fn check_relational(
        &self,
        parts: &[GuardedPart],
        fsts: &[(Fst, Fst)],
        env: &PairFsas,
        renderer: &PathRenderer<'_>,
        side_keys: [Option<u128>; 2],
        route_key: usize,
        memo: &FstMemo,
        phases: &mut PhaseTimings,
    ) -> Vec<PartViolation> {
        let det_side = |nfa: &Nfa, phases: &mut PhaseTimings| {
            let t0 = Instant::now();
            let dfa = determinize(nfa);
            phases.determinize += t0.elapsed();
            dfa
        };
        let mut out = Vec::new();
        for (part_ix, (part, (fst_pre, fst_post))) in parts.iter().zip(fsts).enumerate() {
            let lhs = memo.get_or_compute(
                side_keys[0].map(|pre| (pre, route_key, part_ix, false)),
                || {
                    let t0 = Instant::now();
                    let nfa = image(&env.pre, fst_pre).trim();
                    phases.lower += t0.elapsed();
                    det_side(&nfa, phases)
                },
            );
            let rhs = memo.get_or_compute(
                side_keys[1].map(|post| (post, route_key, part_ix, true)),
                || {
                    let t0 = Instant::now();
                    let nfa = image(&env.post, fst_post).trim();
                    phases.lower += t0.elapsed();
                    det_side(&nfa, phases)
                },
            );
            let t0 = Instant::now();
            let equal = equivalent(&lhs, &rhs).is_ok();
            phases.equivalent += t0.elapsed();
            if equal {
                continue;
            }
            let t0 = Instant::now();
            let diff = diff_equation(&lhs, &rhs, renderer, self.options.witness);
            phases.witness += t0.elapsed();
            debug_assert!(!diff.is_empty(), "inequivalent DFAs must differ");
            out.push(PartViolation {
                part: part.name.clone(),
                detail: ViolationDetail::Equation(diff),
            });
        }
        out
    }

    /// Decide a raw RIR spec, describing every failed positive assertion.
    /// (Raw lowering determinizes internally, so its cost lands in the
    /// `lower` phase bucket.)
    fn check_raw(
        &self,
        spec: &RirSpec,
        env: &PairFsas,
        renderer: &PathRenderer<'_>,
        phases: &mut PhaseTimings,
    ) -> Vec<String> {
        match spec {
            RirSpec::Equal(a, b) => {
                let t0 = Instant::now();
                let da = lower_pathset_dfa(a, env);
                let db_ = lower_pathset_dfa(b, env);
                phases.lower += t0.elapsed();
                let t0 = Instant::now();
                let equal = equivalent(&da, &db_).is_ok();
                phases.equivalent += t0.elapsed();
                if equal {
                    Vec::new()
                } else {
                    let t0 = Instant::now();
                    let diff = diff_equation(&da, &db_, renderer, self.options.witness);
                    phases.witness += t0.elapsed();
                    vec![describe_diff("equality", &diff)]
                }
            }
            RirSpec::Subset(a, b) => {
                let t0 = Instant::now();
                let da = lower_pathset_dfa(a, env);
                let db_ = lower_pathset_dfa(b, env);
                phases.lower += t0.elapsed();
                let t0 = Instant::now();
                let diff = diff_equation(&da, &db_, renderer, self.options.witness);
                phases.witness += t0.elapsed();
                if diff.missing.is_empty() {
                    Vec::new()
                } else {
                    vec![format!(
                        "inclusion violated; extra paths: {}",
                        diff.missing.join(", ")
                    )]
                }
            }
            RirSpec::And(a, b) => {
                let mut out = self.check_raw(a, env, renderer, phases);
                out.extend(self.check_raw(b, env, renderer, phases));
                out
            }
            RirSpec::Or(a, b) => {
                let left = self.check_raw(a, env, renderer, phases);
                if left.is_empty() {
                    return Vec::new();
                }
                let right = self.check_raw(b, env, renderer, phases);
                if right.is_empty() {
                    return Vec::new();
                }
                vec![format!(
                    "both disjuncts failed: [{}] and [{}]",
                    left.join("; "),
                    right.join("; ")
                )]
            }
            RirSpec::Not(a) => {
                if self.check_raw(a, env, renderer, phases).is_empty() {
                    vec!["negated assertion holds".to_owned()]
                } else {
                    Vec::new()
                }
            }
        }
    }
}

/// Record `flow` in a worker's local flow list and return its member
/// reference.
fn new_member(worker: usize, flow: &FlowSpec, state: &mut PipelineWorkerState) -> FlowRef {
    let member = FlowRef {
        worker,
        local: state.flows.len(),
    };
    state.flows.push(flow.clone());
    member
}

/// Join a scoped engine thread, re-raising its panic with the original
/// payload so the session boundary reports the real cause (a bare
/// `expect` here would replace it with an opaque `Any`).
fn join_worker<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

fn describe_diff(kind: &str, diff: &EquationDiff) -> String {
    let mut parts = Vec::new();
    if !diff.missing.is_empty() {
        parts.push(format!("missing: {{{}}}", diff.missing.join(", ")));
    }
    if !diff.unexpected.is_empty() {
        parts.push(format!("unexpected: {{{}}}", diff.unexpected.join(", ")));
    }
    format!("{kind} violated; {}", parts.join("; "))
}

/// A safe enumeration bound for a graph's paths: every vertex can appear
/// at most once per path (DAG), interface granularity doubles the hops,
/// plus drop and slack.
fn path_len_bound(graph: &ForwardingGraph) -> usize {
    graph.vertices.len() * 2 + 4
}

fn render_language(nfa: &Nfa, renderer: &PathRenderer<'_>, limits: WitnessLimits) -> Vec<String> {
    let dfa = determinize(&nfa.trim());
    enumerate_words(&dfa, limits.max_paths, limits.max_len)
        .into_iter()
        .map(|w| renderer.render_witness(&w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rela_net::{linear_graph, Device, FlowSpec, Snapshot};
    use std::collections::BTreeSet;

    /// Session-API stand-in for the deprecated `run_check` shim
    /// (shadows the glob import, so the tests exercise the live path).
    pub(crate) fn run_check(
        source: &str,
        db: &LocationDb,
        granularity: Granularity,
        pair: &SnapshotPair,
    ) -> Result<CheckReport, crate::RelaError> {
        let session = crate::session::CheckSession::open(
            source,
            db.clone(),
            crate::session::SessionConfig {
                granularity,
                ..Default::default()
            },
        )?;
        Ok(session
            .run(crate::session::JobSpec::pair(pair))
            .expect("an in-memory pair cannot fail snapshot ingest"))
    }

    fn db() -> LocationDb {
        let mut db = LocationDb::new();
        for (name, group, region) in [
            ("x1", "x1", "A"),
            ("A1-r1", "A1", "A"),
            ("A2-r1", "A2", "A"),
            ("B1-r1", "B1", "B"),
            ("D1-r1", "D1", "D"),
            ("y1", "y1", "D"),
        ] {
            db.add_device(Device::new(name, group).with_attr("region", region));
        }
        db
    }

    fn flow(dst: &str, ingress: &str) -> FlowSpec {
        FlowSpec::new(dst.parse().unwrap(), ingress)
    }

    fn pair_of(pre: Vec<(FlowSpec, Vec<&str>)>, post: Vec<(FlowSpec, Vec<&str>)>) -> SnapshotPair {
        let build = |entries: Vec<(FlowSpec, Vec<&str>)>| {
            let mut snap = Snapshot::new();
            for (f, path) in entries {
                snap.insert(f, linear_graph(&path));
            }
            snap
        };
        SnapshotPair::align(&build(pre), &build(post))
    }

    const NOCHANGE: &str = "spec nochange := { .* : preserve }\ncheck nochange";

    #[test]
    fn nochange_passes_on_identical_snapshots() {
        let db = db();
        let pair = pair_of(
            vec![(flow("10.1.0.0/24", "x1"), vec!["x1", "A1-r1", "B1-r1"])],
            vec![(flow("10.1.0.0/24", "x1"), vec!["x1", "A1-r1", "B1-r1"])],
        );
        let report = run_check(NOCHANGE, &db, Granularity::Device, &pair).unwrap();
        assert!(report.is_compliant());
        assert_eq!(report.total, 1);
        assert_eq!(report.compliant, 1);
    }

    #[test]
    fn nochange_catches_a_moved_path() {
        let db = db();
        let pair = pair_of(
            vec![(flow("10.1.0.0/24", "x1"), vec!["x1", "A1-r1", "B1-r1"])],
            vec![(flow("10.1.0.0/24", "x1"), vec!["x1", "A2-r1", "B1-r1"])],
        );
        let report = run_check(NOCHANGE, &db, Granularity::Device, &pair).unwrap();
        assert!(!report.is_compliant());
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(v.violations[0].part, "nochange");
        match &v.violations[0].detail {
            ViolationDetail::Equation(diff) => {
                assert_eq!(diff.missing, vec!["x1 A1-r1 B1-r1"]);
                assert_eq!(diff.unexpected, vec!["x1 A2-r1 B1-r1"]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(v.pre_paths, vec!["x1 A1-r1 B1-r1"]);
        assert_eq!(v.post_paths, vec!["x1 A2-r1 B1-r1"]);
    }

    #[test]
    fn group_granularity_spec() {
        let db = db();
        // device-level change within the same groups is invisible at
        // group granularity... here the device changes group, so caught
        let src = r#"
            spec nochange := { .* : preserve }
            check nochange
        "#;
        let pair = pair_of(
            vec![(flow("10.1.0.0/24", "x1"), vec!["x1", "A1-r1", "B1-r1"])],
            vec![(flow("10.1.0.0/24", "x1"), vec!["x1", "A1-r1", "B1-r1"])],
        );
        let report = run_check(src, &db, Granularity::Group, &pair).unwrap();
        assert!(report.is_compliant());
    }

    #[test]
    fn else_attribution_reports_the_right_part() {
        let db = db();
        let src = r#"
            regex a1 := where(group == "A1")
            regex a2 := where(group == "A2")
            regex d1 := where(group == "D1")
            spec e2e := { a1 .* d1 : any(a1 a2 d1) }
            spec nochange := { .* : preserve }
            spec change := e2e else nochange
            check change
        "#;
        // flow 1: in-zone, unmoved → e2e violation
        // flow 2: out-of-zone, changed → nochange violation
        let pair = pair_of(
            vec![
                (flow("10.1.0.0/24", "x1"), vec!["A1-r1", "B1-r1", "D1-r1"]),
                (flow("10.2.0.0/24", "x1"), vec!["B1-r1", "y1"]),
            ],
            vec![
                (flow("10.1.0.0/24", "x1"), vec!["A1-r1", "B1-r1", "D1-r1"]),
                (flow("10.2.0.0/24", "x1"), vec!["B1-r1", "A2-r1", "y1"]),
            ],
        );
        let report = run_check(src, &db, Granularity::Group, &pair).unwrap();
        assert_eq!(report.violations.len(), 2);
        assert_eq!(report.part_counts["e2e"], 1);
        assert_eq!(report.part_counts["nochange"], 1);
        // and a compliant implementation passes
        let good = pair_of(
            vec![
                (flow("10.1.0.0/24", "x1"), vec!["A1-r1", "B1-r1", "D1-r1"]),
                (flow("10.2.0.0/24", "x1"), vec!["B1-r1", "y1"]),
            ],
            vec![
                (flow("10.1.0.0/24", "x1"), vec!["A1-r1", "A2-r1", "D1-r1"]),
                (flow("10.2.0.0/24", "x1"), vec!["B1-r1", "y1"]),
            ],
        );
        let report2 = run_check(src, &db, Granularity::Group, &good).unwrap();
        assert!(report2.is_compliant(), "{report2}");
    }

    #[test]
    fn pspec_routes_flows_to_their_spec() {
        let db = db();
        // dealloc for 10.9.0.0/16 traffic: it must vanish; everything
        // else must stay
        let src = r#"
            spec dealloc := { .* : remove(.*) }
            spec nochange := { .* : preserve }
            pspec deallocP := (dstPrefix == 10.9.0.0/16) -> dealloc
            check nochange
        "#;
        let pair = pair_of(
            vec![
                (flow("10.9.1.0/24", "x1"), vec!["x1", "A1-r1", "y1"]),
                (flow("10.1.0.0/24", "x1"), vec!["x1", "B1-r1", "y1"]),
            ],
            vec![(flow("10.1.0.0/24", "x1"), vec!["x1", "B1-r1", "y1"])],
        );
        let report = run_check(src, &db, Granularity::Device, &pair).unwrap();
        assert!(report.is_compliant(), "{report}");
        // forgetting to remove the deallocated prefix now fails
        let bad = pair_of(
            vec![(flow("10.9.1.0/24", "x1"), vec!["x1", "A1-r1", "y1"])],
            vec![(flow("10.9.1.0/24", "x1"), vec!["x1", "A1-r1", "y1"])],
        );
        let report2 = run_check(src, &db, Granularity::Device, &bad).unwrap();
        assert!(!report2.is_compliant());
        assert_eq!(report2.violations[0].route.as_deref(), Some("deallocP"));
        assert_eq!(report2.violations[0].check_name, "dealloc");
    }

    #[test]
    fn raw_rir_check_reports_failures() {
        let db = db();
        let src = r#"
            rir sideEffects := pre <= post && post <= (pre | x1 .*)
            check sideEffects
        "#;
        // addition outside the x1 zone → inclusion violated
        let pair = pair_of(
            vec![],
            vec![(flow("10.1.0.0/24", "x1"), vec!["A2-r1", "y1"])],
        );
        let report = run_check(src, &db, Granularity::Device, &pair).unwrap();
        assert!(!report.is_compliant());
        match &report.violations[0].violations[0].detail {
            ViolationDetail::Raw(msgs) => {
                assert_eq!(msgs.len(), 1);
                assert!(msgs[0].contains("inclusion violated"), "{msgs:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // addition inside the zone passes
        let ok = pair_of(
            vec![],
            vec![(flow("10.1.0.0/24", "x1"), vec!["x1", "A2-r1", "y1"])],
        );
        let report2 = run_check(src, &db, Granularity::Device, &ok).unwrap();
        assert!(report2.is_compliant());
    }

    #[test]
    fn parallel_and_serial_agree() {
        let db = db();
        let mut pre = Vec::new();
        let mut post = Vec::new();
        for i in 0..12 {
            let f = flow(&format!("10.1.{i}.0/24"), "x1");
            pre.push((f.clone(), vec!["x1", "A1-r1", "y1"]));
            // half the flows change
            if i % 2 == 0 {
                post.push((f, vec!["x1", "A2-r1", "y1"]));
            } else {
                post.push((f, vec!["x1", "A1-r1", "y1"]));
            }
        }
        let pair = pair_of(pre, post);
        let program = crate::parser::parse_program(NOCHANGE).unwrap();
        let compiled = crate::compile::compile_program(&program, &db, Granularity::Device).unwrap();
        let serial = Checker::new(&compiled, &db)
            .with_options(CheckOptions {
                threads: 1,
                ..CheckOptions::default()
            })
            .check(&pair);
        let parallel = Checker::new(&compiled, &db)
            .with_options(CheckOptions {
                threads: 4,
                ..CheckOptions::default()
            })
            .check(&pair);
        assert_eq!(serial.total, parallel.total);
        assert_eq!(serial.compliant, parallel.compliant);
        assert_eq!(serial.violations.len(), parallel.violations.len());
        for (a, b) in serial.violations.iter().zip(&parallel.violations) {
            assert_eq!(a.flow, b.flow);
            assert_eq!(a.violations.len(), b.violations.len());
        }
    }

    /// A pair where many flows share identical forwarding behavior.
    fn duplicated_pair(flows: usize) -> SnapshotPair {
        let mut pre = Vec::new();
        let mut post = Vec::new();
        for i in 0..flows {
            let f = flow(&format!("10.1.{i}.0/24"), "x1");
            pre.push((f.clone(), vec!["x1", "A1-r1", "y1"]));
            // two post behaviors alternate → two violating classes max
            if i % 2 == 0 {
                post.push((f, vec!["x1", "A2-r1", "y1"]));
            } else {
                post.push((f, vec!["x1", "A1-r1", "y1"]));
            }
        }
        pair_of(pre, post)
    }

    fn check_with(options: CheckOptions, pair: &SnapshotPair) -> CheckReport {
        let db = db();
        let program = crate::parser::parse_program(NOCHANGE).unwrap();
        let compiled = crate::compile::compile_program(&program, &db, Granularity::Device).unwrap();
        Checker::new(&compiled, &db)
            .with_options(options)
            .check(pair)
    }

    #[test]
    fn dedup_groups_identical_behavior_into_classes() {
        let pair = duplicated_pair(16);
        let report = check_with(CheckOptions::default(), &pair);
        assert_eq!(report.total, 16);
        assert_eq!(report.violations.len(), 8);
        // 16 FECs, but only 2 distinct (pre, post) behaviors
        assert_eq!(report.stats.fecs, 16);
        assert_eq!(report.stats.classes, 2);
        assert_eq!(report.stats.dedup_hits, 14);
        assert!((report.stats.hit_rate() - 14.0 / 16.0).abs() < 1e-9);
        assert!(report.to_string().contains("behavior classes: 2"));
    }

    #[test]
    fn dedup_off_checks_every_fec_and_agrees() {
        let pair = duplicated_pair(12);
        let on = check_with(CheckOptions::default(), &pair);
        let off = check_with(
            CheckOptions {
                dedup: false,
                ..CheckOptions::default()
            },
            &pair,
        );
        assert_eq!(off.stats.classes, 12);
        assert_eq!(off.stats.dedup_hits, 0);
        assert_eq!(on.total, off.total);
        assert_eq!(on.compliant, off.compliant);
        assert_eq!(on.part_counts, off.part_counts);
        assert_eq!(on.violations, off.violations);
    }

    #[test]
    fn dedup_keeps_vertex_permuted_duplicates_in_one_class() {
        use rela_net::{ForwardingGraph, Snapshot};
        // same path x1 → A1-r1 → y1, inserted in two vertex orders
        let forward = linear_graph(&["x1", "A1-r1", "y1"]);
        let mut reversed = ForwardingGraph::new();
        let y = reversed.add_vertex("y1");
        let a = reversed.add_vertex("A1-r1");
        let x = reversed.add_vertex("x1");
        reversed.add_edge(x, a, "eth0", "eth1");
        reversed.add_edge(a, y, "eth0", "eth1");
        reversed.sources.push(x);
        reversed.sinks.push(y);

        let mut pre = Snapshot::new();
        let mut post = Snapshot::new();
        for (i, g) in [&forward, &reversed].into_iter().enumerate() {
            let f = flow(&format!("10.1.{i}.0/24"), "x1");
            pre.insert(f.clone(), g.clone());
            post.insert(f, linear_graph(&["x1", "A2-r1", "y1"]));
        }
        let pair = SnapshotPair::align(&pre, &post);
        let on = check_with(CheckOptions::default(), &pair);
        assert_eq!(on.stats.classes, 1, "permuted graphs must share a class");
        let off = check_with(
            CheckOptions {
                dedup: false,
                ..CheckOptions::default()
            },
            &pair,
        );
        assert_eq!(on.violations, off.violations);
    }

    #[test]
    fn routed_flows_never_share_a_class_across_routes() {
        let db = db();
        // identical graphs, but one flow routes to the dealloc pspec
        let src = r#"
            spec dealloc := { .* : remove(.*) }
            spec nochange := { .* : preserve }
            pspec deallocP := (dstPrefix == 10.9.0.0/16) -> dealloc
            check nochange
        "#;
        let pair = pair_of(
            vec![
                (flow("10.9.1.0/24", "x1"), vec!["x1", "A1-r1", "y1"]),
                (flow("10.1.0.0/24", "x1"), vec!["x1", "A1-r1", "y1"]),
            ],
            vec![
                (flow("10.9.1.0/24", "x1"), vec!["x1", "A1-r1", "y1"]),
                (flow("10.1.0.0/24", "x1"), vec!["x1", "A1-r1", "y1"]),
            ],
        );
        let report = run_check(src, &db, Granularity::Device, &pair).unwrap();
        assert_eq!(report.stats.classes, 2, "routes split behavior classes");
        // the routed flow violates dealloc, the unrouted one complies
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].route.as_deref(), Some("deallocP"));
    }

    #[test]
    fn persistent_cache_replays_identical_reports() {
        let db = db();
        let pair = duplicated_pair(12);
        let program = crate::parser::parse_program(NOCHANGE).unwrap();
        let compiled = crate::compile::compile_program(&program, &db, Granularity::Device).unwrap();
        let store = VerdictStore::in_memory(cache_epoch(&program, &db));

        let cold = Checker::new(&compiled, &db).with_cache(&store).check(&pair);
        assert_eq!(cold.stats.warm_hits, 0);
        assert_eq!(store.stats().inserted, cold.stats.classes);

        let warm = Checker::new(&compiled, &db).with_cache(&store).check(&pair);
        assert_eq!(warm.stats.warm_hits, warm.stats.classes, "all classes warm");
        assert_eq!(warm.total, cold.total);
        assert_eq!(warm.compliant, cold.compliant);
        assert_eq!(warm.part_counts, cold.part_counts);
        assert_eq!(warm.violations, cold.violations);

        // a cache-free run agrees with the replay
        let plain = Checker::new(&compiled, &db).check(&pair);
        assert_eq!(plain.violations, warm.violations);
        assert!(warm.to_string().contains("warm from store"));
    }

    #[test]
    fn option_changes_never_replay_mismatched_payloads() {
        let db = db();
        let pair = duplicated_pair(8);
        let program = crate::parser::parse_program(NOCHANGE).unwrap();
        let compiled = crate::compile::compile_program(&program, &db, Granularity::Device).unwrap();
        let store = VerdictStore::in_memory(cache_epoch(&program, &db));
        let cold = Checker::new(&compiled, &db).with_cache(&store).check(&pair);
        assert_eq!(cold.stats.warm_hits, 0);

        // same store, different rendered-path budget: the payload shape
        // differs, so this must be a clean miss, not a wrong replay
        let wide_options = CheckOptions {
            list_paths: 9,
            ..CheckOptions::default()
        };
        let wide = Checker::new(&compiled, &db)
            .with_options(wide_options)
            .with_cache(&store)
            .check(&pair);
        assert_eq!(wide.stats.warm_hits, 0, "options changed ⇒ full miss");
        let plain_wide = Checker::new(&compiled, &db)
            .with_options(wide_options)
            .check(&pair);
        assert_eq!(wide.violations, plain_wide.violations);

        // default options still replay their own entries warm
        let warm = Checker::new(&compiled, &db).with_cache(&store).check(&pair);
        assert_eq!(warm.stats.warm_hits, warm.stats.classes);
        assert_eq!(warm.violations, cold.violations);
    }

    #[test]
    fn cache_epoch_tracks_semantics_not_formatting() {
        let p1 = crate::parser::parse_program(NOCHANGE).unwrap();
        // reformatting and comments leave the epoch unchanged...
        let p2 = crate::parser::parse_program(
            "spec nochange :=   { .* : preserve }\n\ncheck   nochange",
        )
        .unwrap();
        let base_db = db();
        assert_eq!(cache_epoch(&p1, &base_db), cache_epoch(&p2, &base_db));
        // ...but a semantic edit moves it
        let p3 = crate::parser::parse_program("spec nochange := { .* : add(.*) }\ncheck nochange")
            .unwrap();
        assert_ne!(cache_epoch(&p1, &base_db), cache_epoch(&p3, &base_db));
        // ...and so does editing the location database under the spec:
        // where-queries and granularity views resolve against it
        let mut edited_db = db();
        edited_db.add_device(rela_net::Device::new("Z9-r1", "Z9"));
        assert_ne!(cache_epoch(&p1, &base_db), cache_epoch(&p1, &edited_db));
    }

    #[test]
    fn fst_memo_reuses_shared_sides() {
        // every FEC shares one pre behavior; the two post behaviors
        // split the pair into two classes ⇒ the second class's pre side
        // must come from the memo (serial so ordering is deterministic)
        let pair = duplicated_pair(8);
        let report = check_with(
            CheckOptions {
                threads: 1,
                ..CheckOptions::default()
            },
            &pair,
        );
        assert_eq!(report.stats.classes, 2);
        assert!(
            report.stats.fst_memo_hits >= 1,
            "shared pre side must hit the memo (got {})",
            report.stats.fst_memo_hits
        );
        // memoized and memo-free (no-dedup) runs agree
        let off = check_with(
            CheckOptions {
                dedup: false,
                ..CheckOptions::default()
            },
            &pair,
        );
        assert_eq!(report.violations, off.violations);

        // the stream path shares sides the same way whether a class was
        // decided eagerly or by the finisher: the two classes share the
        // pre side and differ in post locations, so exactly one lookup
        // (the second class's pre side) hits. Trickled streams span
        // several frame batches, so the worker decides mid-ingest.
        assert_eq!(report.stats.fst_memo_hits, 1);
        let db = db();
        let (pre, post) = duplicated_snapshots(256);
        let (pre_json, post_json) = (pre.to_json().unwrap(), post.to_json().unwrap());
        let program = crate::parser::parse_program(NOCHANGE).unwrap();
        let compiled = crate::compile::compile_program(&program, &db, Granularity::Device).unwrap();
        let checker = Checker::new(&compiled, &db).with_options(CheckOptions {
            threads: 1,
            ..CheckOptions::default()
        });
        let fast = pipelined(&checker, &pre, &post);
        for streamed in [fast.clone(), trickled(&checker, &pre_json, &post_json)] {
            assert_eq!(streamed.stats.classes, 2);
            assert_eq!(streamed.stats.fst_memo_hits, 1);
            assert_eq!(verdict_bytes(&streamed), verdict_bytes(&fast));
        }
    }

    /// A reader that hands out at most 256 bytes per call, after a
    /// short sleep, so a snapshot arrives over many frame batches.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            std::thread::sleep(Duration::from_micros(200));
            let n = buf.len().min(self.0.len()).min(256);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    fn trickled(checker: &Checker<'_>, pre_json: &str, post_json: &str) -> CheckReport {
        checker
            .check_pipelined(
                SnapshotFramer::new(Trickle(pre_json.as_bytes()), "pre.json"),
                SnapshotFramer::new(Trickle(post_json.as_bytes()), "post.json"),
            )
            .unwrap()
    }

    #[test]
    fn phase_timings_are_populated() {
        let pair = duplicated_pair(4);
        let report = check_with(CheckOptions::default(), &pair);
        let phases = report.stats.phases;
        assert!(phases.lower > Duration::ZERO);
        assert!(phases.determinize > Duration::ZERO);
        assert!(phases.equivalent > Duration::ZERO);
        // half the flows violate → witnesses were rendered
        assert!(phases.witness > Duration::ZERO);
        assert!(phases.total() >= phases.lower);
        assert!(report.stats.max_class_time > Duration::ZERO);
    }

    #[test]
    fn empty_pair_is_trivially_compliant() {
        let db = db();
        let pair = SnapshotPair::align(&Snapshot::new(), &Snapshot::new());
        let report = run_check(NOCHANGE, &db, Granularity::Device, &pair).unwrap();
        assert!(report.is_compliant());
        assert_eq!(report.total, 0);
    }

    /// The report rendering minus its timing-dependent lines: what must
    /// be byte-identical across engine paths.
    fn verdict_bytes(report: &CheckReport) -> String {
        report
            .to_string()
            .lines()
            .filter(|l| !l.starts_with("checked ") && !l.starts_with("behavior classes:"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// `pair` with its FECs in reverse order: every class gets a
    /// different representative and a different admission order.
    fn reversed(pair: &SnapshotPair) -> SnapshotPair {
        SnapshotPair {
            fecs: pair.fecs.iter().rev().cloned().collect(),
        }
    }

    /// `path` as a forwarding graph, with an ECMP fork through two
    /// middle hops when `fork` names them.
    fn fork_graph(head: &str, fork: [&str; 2], tail: &str) -> ForwardingGraph {
        let mut g = ForwardingGraph::new();
        let h = g.add_vertex(head);
        let t = g.add_vertex(tail);
        for (ix, mid) in fork.into_iter().enumerate() {
            let m = g.add_vertex(mid);
            g.add_edge(h, m, format!("e{ix}"), "e9");
            g.add_edge(m, t, "e8", format!("e{ix}"));
        }
        g.sources.push(h);
        g.sinks.push(t);
        g
    }

    /// A pair whose graphs name devices absent from [`db`] (`Z9-r1`,
    /// `Q7-edge`, `W2-r1`, `M4-r1`, `C3-r1`, `K2-r1`, `B5-r1`) beside
    /// known ones: unchanged, changed and one-sided flows, several
    /// flows per behavior, and an ECMP fork through two unknown hops.
    fn off_db_snapshots() -> (Snapshot, Snapshot) {
        let mut pre = Snapshot::new();
        let mut post = Snapshot::new();
        let paths: [&[&str]; 3] = [
            &["x1", "Z9-r1", "y1"],
            &["x1", "A1-r1", "y1"],
            &["Q7-edge", "A1-r1", "W2-r1"],
        ];
        for i in 0..12 {
            let f = flow(&format!("10.3.{i}.0/24"), "x1");
            let before = paths[i % 3];
            pre.insert(f.clone(), linear_graph(before));
            let after = match i % 4 {
                0 => linear_graph(&["x1", "M4-r1", "y1"]),
                1 => linear_graph(before),
                2 => linear_graph(&["x1", "A2-r1", "y1"]),
                _ => fork_graph("Q7-edge", ["K2-r1", "B5-r1"], "y1"),
            };
            post.insert(f, after);
        }
        pre.insert(flow("10.4.0.0/24", "x1"), linear_graph(&["x1", "C3-r1"]));
        post.insert(flow("10.4.1.0/24", "x1"), linear_graph(&["C3-r1", "y1"]));
        (pre, post)
    }

    #[test]
    fn pair_check_is_byte_identical_in_any_arrival_order_and_thread_count() {
        let db = db();
        let (off_pre, off_post) = off_db_snapshots();
        let off_db = SnapshotPair::align(&off_pre, &off_post);
        let cases = [
            (duplicated_pair(16), Granularity::Device),
            (off_db.clone(), Granularity::Group),
            (off_db.clone(), Granularity::Device),
            (off_db, Granularity::Interface),
        ];
        let program = crate::parser::parse_program(NOCHANGE).unwrap();
        for (pair, granularity) in cases {
            let compiled = crate::compile::compile_program(&program, &db, granularity).unwrap();
            let baseline = Checker::new(&compiled, &db).check(&pair);
            assert!(!baseline.is_compliant(), "the testbed must violate");
            assert_eq!(
                baseline.stats.graph_decodes, 0,
                "a decoded pair decodes nothing"
            );
            // nochange flags exactly the flows the path-diff oracle does
            let flagged: BTreeSet<FlowSpec> =
                baseline.violations.iter().map(|v| v.flow.clone()).collect();
            assert_eq!(
                flagged,
                rela_baseline::oracle::oracle_verdict(&pair, &db, granularity),
                "{granularity:?}"
            );
            for threads in [1usize, 2, 4] {
                let checker = Checker::new(&compiled, &db).with_options(CheckOptions {
                    threads,
                    ..CheckOptions::default()
                });
                for input in [pair.clone(), reversed(&pair)] {
                    let report = checker.check(&input);
                    assert_eq!(report.violations, baseline.violations);
                    assert_eq!(report.stats.classes, baseline.stats.classes);
                    assert_eq!(report.stats.dedup_hits, baseline.stats.dedup_hits);
                    assert_eq!(report.stats.graph_decodes, 0);
                    assert_eq!(
                        verdict_bytes(&report),
                        verdict_bytes(&baseline),
                        "{granularity:?}, threads {threads}"
                    );
                }
            }
            // a second job on one session runs against a warm memo and
            // must still match a fresh session byte for byte
            let open = || {
                crate::session::CheckSession::open(
                    NOCHANGE,
                    db.clone(),
                    crate::session::SessionConfig {
                        granularity,
                        ..Default::default()
                    },
                )
                .unwrap()
            };
            let run = |session: &crate::session::CheckSession, pair: &SnapshotPair| {
                session.run(crate::session::JobSpec::pair(pair)).unwrap()
            };
            let warm_session = open();
            run(&warm_session, &pair);
            let warm = run(&warm_session, &reversed(&pair));
            let fresh = run(&open(), &reversed(&pair));
            assert_eq!(
                verdict_bytes(&warm),
                verdict_bytes(&fresh),
                "{granularity:?}"
            );
            assert_eq!(verdict_bytes(&warm), verdict_bytes(&baseline));
            if granularity != Granularity::Interface {
                // db() lists no interfaces, so only device and group
                // sides can resolve within the program alphabet
                assert!(warm.stats.fst_memo_hits > 0, "{granularity:?}");
            }
        }
    }

    #[test]
    fn pair_check_without_dedup_agrees_too() {
        let db = db();
        let pair = duplicated_pair(8);
        let program = crate::parser::parse_program(NOCHANGE).unwrap();
        let compiled = crate::compile::compile_program(&program, &db, Granularity::Device).unwrap();
        let deduped = Checker::new(&compiled, &db).check(&pair);
        let per_fec = Checker::new(&compiled, &db)
            .with_options(CheckOptions {
                dedup: false,
                ..CheckOptions::default()
            })
            .check(&reversed(&pair));
        assert_eq!(per_fec.stats.classes, 8, "no-dedup: one class per FEC");
        assert_eq!(verdict_bytes(&per_fec), verdict_bytes(&deduped));
    }

    /// The two snapshots behind [`duplicated_pair`], unaligned.
    fn duplicated_snapshots(flows: usize) -> (Snapshot, Snapshot) {
        let mut pre = Snapshot::new();
        let mut post = Snapshot::new();
        for i in 0..flows {
            let f = flow(&format!("10.1.{i}.0/24"), "x1");
            pre.insert(f.clone(), linear_graph(&["x1", "A1-r1", "y1"]));
            if i % 2 == 0 {
                post.insert(f, linear_graph(&["x1", "A2-r1", "y1"]));
            } else {
                post.insert(f, linear_graph(&["x1", "A1-r1", "y1"]));
            }
        }
        (pre, post)
    }

    fn pipelined(checker: &Checker<'_>, pre: &Snapshot, post: &Snapshot) -> CheckReport {
        use rela_net::SnapshotFramer;
        let pre_json = pre.to_json().unwrap();
        let post_json = post.to_json().unwrap();
        checker
            .check_pipelined(
                SnapshotFramer::new(pre_json.as_bytes(), "pre.json"),
                SnapshotFramer::new(post_json.as_bytes(), "post.json"),
            )
            .unwrap()
    }

    #[test]
    fn check_pipelined_is_byte_identical_to_the_pair_across_threads() {
        // the off-db cases let eager decides meet unknown locations in
        // arrival order; the report must not notice
        let db = db();
        let (off_pre, off_post) = off_db_snapshots();
        let cases = [
            (duplicated_snapshots(16), Granularity::Device),
            ((off_pre.clone(), off_post.clone()), Granularity::Group),
            ((off_pre.clone(), off_post.clone()), Granularity::Device),
            ((off_pre, off_post), Granularity::Interface),
        ];
        let program = crate::parser::parse_program(NOCHANGE).unwrap();
        for ((pre, post), granularity) in cases {
            let pair = SnapshotPair::align(&pre, &post);
            let compiled = crate::compile::compile_program(&program, &db, granularity).unwrap();
            let in_memory = Checker::new(&compiled, &db).check(&pair);
            assert!(!in_memory.is_compliant(), "the testbed must violate");

            for threads in [1usize, 2, 4] {
                let checker = Checker::new(&compiled, &db).with_options(CheckOptions {
                    threads,
                    ..CheckOptions::default()
                });
                let report = pipelined(&checker, &pre, &post);
                assert_eq!(report.stats.classes, in_memory.stats.classes);
                assert_eq!(report.stats.fecs, in_memory.stats.fecs);
                assert_eq!(
                    verdict_bytes(&report),
                    verdict_bytes(&in_memory),
                    "{granularity:?}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn check_pipelined_handles_one_sided_flows_and_no_dedup() {
        let db = db();
        // overlap, pre-only, and post-only flows
        let mut pre = Snapshot::new();
        let mut post = Snapshot::new();
        pre.insert(flow("10.1.0.0/24", "x1"), linear_graph(&["x1", "A1-r1"]));
        pre.insert(flow("10.1.1.0/24", "x1"), linear_graph(&["x1", "B1-r1"]));
        post.insert(flow("10.1.0.0/24", "x1"), linear_graph(&["x1", "A1-r1"]));
        post.insert(flow("10.1.2.0/24", "x1"), linear_graph(&["x1", "D1-r1"]));
        let pair = SnapshotPair::align(&pre, &post);
        let program = crate::parser::parse_program(NOCHANGE).unwrap();
        let compiled = crate::compile::compile_program(&program, &db, Granularity::Device).unwrap();
        for dedup in [true, false] {
            let options = CheckOptions {
                dedup,
                threads: 2,
                ..CheckOptions::default()
            };
            let checker = Checker::new(&compiled, &db).with_options(options);
            let in_memory = checker.check(&pair);
            let piped = pipelined(&checker, &pre, &post);
            assert_eq!(piped.total, 3, "dedup={dedup}");
            assert_eq!(
                verdict_bytes(&piped),
                verdict_bytes(&in_memory),
                "dedup={dedup}"
            );
        }
    }

    #[test]
    fn check_pipelined_replays_fully_warm_runs_from_the_store() {
        let db = db();
        let (pre, post) = duplicated_snapshots(10);
        let pair = SnapshotPair::align(&pre, &post);
        let program = crate::parser::parse_program(NOCHANGE).unwrap();
        let compiled = crate::compile::compile_program(&program, &db, Granularity::Device).unwrap();
        let store = VerdictStore::in_memory(cache_epoch(&program, &db));
        // cold through the pipelined path populates the store...
        let checker = Checker::new(&compiled, &db).with_cache(&store);
        let cold = pipelined(&checker, &pre, &post);
        assert_eq!(cold.stats.warm_hits, 0);
        // every class stores its behavior-keyed entry plus the
        // byte-keyed twin that lets identical bytes skip the decode
        assert_eq!(store.stats().inserted, cold.stats.classes * 2);
        // ...and the warm pipelined run replays every class on the
        // workers (no decides at all) straight from the byte-keyed
        // twins — without decoding a single graph
        let warm = pipelined(&checker, &pre, &post);
        assert_eq!(warm.stats.warm_hits, warm.stats.classes);
        assert_eq!(warm.stats.graph_decodes, 0);
        assert_eq!(verdict_bytes(&warm), verdict_bytes(&cold));
        // an in-memory pair replays the very same behavior-keyed entries
        let pair_warm = Checker::new(&compiled, &db).with_cache(&store).check(&pair);
        assert_eq!(pair_warm.stats.warm_hits, pair_warm.stats.classes);
        assert_eq!(verdict_bytes(&pair_warm), verdict_bytes(&cold));
    }

    #[test]
    fn a_pair_run_warms_the_store_for_streams() {
        let db = db();
        let (pre, post) = duplicated_snapshots(10);
        let pair = SnapshotPair::align(&pre, &post);
        let program = crate::parser::parse_program(NOCHANGE).unwrap();
        let compiled = crate::compile::compile_program(&program, &db, Granularity::Device).unwrap();
        let store = VerdictStore::in_memory(cache_epoch(&program, &db));
        let checker = Checker::new(&compiled, &db).with_cache(&store);
        let cold = checker.check(&pair);
        // a pair has no byte keys: only the behavior-keyed entries
        assert_eq!(store.stats().inserted, cold.stats.classes);
        let warm = pipelined(&checker, &pre, &post);
        assert_eq!(warm.stats.warm_hits, warm.stats.classes);
        assert_eq!(verdict_bytes(&warm), verdict_bytes(&cold));
    }

    #[test]
    fn a_store_warmed_by_another_pair_replays_shared_classes_identically() {
        // pair B shares pair A's violating class byte for byte and adds
        // classes of its own (one through off-db devices); a store warmed
        // by A must leave B's report exactly as a store-less check of B
        let db = db();
        let (pre_a, post_a) = duplicated_snapshots(6);
        let (mut pre_b, mut post_b) = duplicated_snapshots(4);
        for (i, (before, after)) in [
            (["x1", "B1-r1", "y1"], ["x1", "D1-r1", "y1"]),
            (["x1", "Z9-r1", "y1"], ["x1", "A1-r1", "M4-r1"]),
        ]
        .into_iter()
        .enumerate()
        {
            let f = flow(&format!("10.5.{i}.0/24"), "x1");
            pre_b.insert(f.clone(), linear_graph(&before));
            post_b.insert(f, linear_graph(&after));
        }
        let program = crate::parser::parse_program(NOCHANGE).unwrap();
        let compiled = crate::compile::compile_program(&program, &db, Granularity::Device).unwrap();
        let store = VerdictStore::in_memory(cache_epoch(&program, &db));
        let stored = Checker::new(&compiled, &db).with_cache(&store);
        let a = pipelined(&stored, &pre_a, &post_a);
        assert!(!a.is_compliant(), "A must carry a violating class");
        let warm_b = pipelined(&stored, &pre_b, &post_b);
        assert_eq!(
            warm_b.stats.warm_hits, a.stats.classes,
            "A's classes replay"
        );
        assert!(warm_b.stats.classes > a.stats.classes, "B adds classes");
        let cold_b = pipelined(&Checker::new(&compiled, &db), &pre_b, &post_b);
        assert_eq!(cold_b.stats.warm_hits, 0);
        assert_eq!(verdict_bytes(&warm_b), verdict_bytes(&cold_b));
    }

    /// The error [`rela_net::SnapshotReader`] reports for `json`: the
    /// contract the engine's ingest errors must match byte for byte.
    fn reader_error(json: &str, label: &str) -> SnapshotError {
        rela_net::SnapshotReader::new(json.as_bytes())
            .with_label(label)
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err()
    }

    #[test]
    fn check_pipelined_matches_the_serial_error_contract() {
        use rela_net::SnapshotFramer;
        let db = db();
        let (pre, post) = duplicated_snapshots(6);
        let pre_json = pre.to_json().unwrap();
        let post_json = post.to_json().unwrap();
        // truncate the post stream inside record #3
        let third = post_json.match_indices("{\"flow\"").nth(3).unwrap().0;
        let cut = &post_json[..third + 25];
        let program = crate::parser::parse_program(NOCHANGE).unwrap();
        let compiled = crate::compile::compile_program(&program, &db, Granularity::Device).unwrap();
        let checker = Checker::new(&compiled, &db).with_options(CheckOptions {
            threads: 4,
            ..CheckOptions::default()
        });
        let serial_err = reader_error(cut, "post.json");
        let piped_err = checker
            .check_pipelined(
                SnapshotFramer::new(pre_json.as_bytes(), "pre.json"),
                SnapshotFramer::new(cut.as_bytes(), "post.json"),
            )
            .unwrap_err();
        assert_eq!(piped_err, serial_err);
        assert_eq!(piped_err.entry_index(), Some(3));
        assert_eq!(piped_err.label(), Some("post.json"));
        assert!(piped_err.byte_offset().is_some());

        // record-level decode failures carry the same contract
        let bad = r#"{"fecs": [{"graph": {"vertices": [], "edges": [],
                      "sources": [], "sinks": [], "drops": []}}]}"#;
        let serial_err = reader_error(bad, "pre.json");
        let piped_err = checker
            .check_pipelined(
                SnapshotFramer::new(bad.as_bytes(), "pre.json"),
                SnapshotFramer::new(post_json.as_bytes(), "post.json"),
            )
            .unwrap_err();
        assert_eq!(piped_err, serial_err);
        assert!(piped_err.to_string().contains("missing field `flow`"));
    }

    #[test]
    fn check_pipelined_rejects_duplicate_flows() {
        use rela_net::{SnapshotFramer, SnapshotWriter};
        let db = db();
        let g = linear_graph(&["x1", "A1-r1"]);
        let mut writer = SnapshotWriter::new(Vec::new()).unwrap();
        writer.write(&flow("10.1.0.0/24", "x1"), &g).unwrap();
        writer.write(&flow("10.1.1.0/24", "x1"), &g).unwrap();
        writer.write(&flow("10.1.0.0/24", "x1"), &g).unwrap(); // dup of #0
        let dup_json = String::from_utf8(writer.finish().unwrap()).unwrap();
        let clean = duplicated_snapshots(3).1.to_json().unwrap();
        let program = crate::parser::parse_program(NOCHANGE).unwrap();
        let compiled = crate::compile::compile_program(&program, &db, Granularity::Device).unwrap();
        let err = Checker::new(&compiled, &db)
            .check_pipelined(
                SnapshotFramer::new(dup_json.as_bytes(), "pre.json"),
                SnapshotFramer::new(clean.as_bytes(), "post.json"),
            )
            .unwrap_err();
        assert_eq!(err.entry_index(), Some(2), "{err}");
        assert_eq!(err.label(), Some("pre.json"));
        assert!(err.to_string().contains("duplicate flow"), "{err}");

        // duplicates more than one frame batch apart: whichever
        // occurrence a worker decodes first, the error must name the
        // *second* occurrence (entry 20), like the serial reader
        let mut writer = SnapshotWriter::new(Vec::new()).unwrap();
        for i in 0..20 {
            writer
                .write(&flow(&format!("10.2.{i}.0/24"), "x1"), &g)
                .unwrap();
        }
        writer.write(&flow("10.2.0.0/24", "x1"), &g).unwrap(); // dup of #0
        let wide_json = String::from_utf8(writer.finish().unwrap()).unwrap();
        let serial_err = reader_error(&wide_json, "pre.json");
        assert_eq!(serial_err.entry_index(), Some(20));
        for threads in [1usize, 4] {
            for _ in 0..4 {
                let err = Checker::new(&compiled, &db)
                    .with_options(CheckOptions {
                        threads,
                        ..CheckOptions::default()
                    })
                    .check_pipelined(
                        SnapshotFramer::new(wide_json.as_bytes(), "pre.json"),
                        SnapshotFramer::new(wide_json.as_bytes(), "post.json"),
                    )
                    .unwrap_err();
                assert_eq!(err.entry_index(), Some(20), "threads {threads}: {err}");
                assert_eq!(err.byte_offset(), serial_err.byte_offset());
            }
        }
    }

    #[test]
    fn check_pipelined_empty_streams_are_compliant() {
        use rela_net::SnapshotFramer;
        let db = db();
        let program = crate::parser::parse_program(NOCHANGE).unwrap();
        let compiled = crate::compile::compile_program(&program, &db, Granularity::Device).unwrap();
        let empty = br#"{"fecs": []}"#;
        let report = Checker::new(&compiled, &db)
            .check_pipelined(
                SnapshotFramer::new(&empty[..], "pre.json"),
                SnapshotFramer::new(&empty[..], "post.json"),
            )
            .unwrap();
        assert!(report.is_compliant());
        assert_eq!(report.total, 0);
    }
}

#[cfg(test)]
mod limit_tests {
    use super::*;
    use rela_net::{Device, FlowSpec, ForwardingGraph, Snapshot};

    use super::tests::run_check;

    fn db() -> LocationDb {
        let mut db = LocationDb::new();
        for n in ["s", "t"] {
            db.add_device(Device::new(n, n));
        }
        db
    }

    /// A graph with `n` parallel links s→t: n link-level ECMP paths.
    fn fanout(n: usize) -> ForwardingGraph {
        let mut g = ForwardingGraph::new();
        let s = g.add_vertex("s");
        let t = g.add_vertex("t");
        for i in 0..n {
            g.add_edge(s, t, format!("e{i}"), format!("e{i}"));
        }
        g.sources.push(s);
        g.sinks.push(t);
        g
    }

    fn pair_with_fanout(n: usize) -> SnapshotPair {
        let flow = FlowSpec::new("10.1.0.0/24".parse().unwrap(), "s");
        let mut pre = Snapshot::new();
        pre.insert(flow.clone(), fanout(2));
        let mut post = Snapshot::new();
        post.insert(flow, fanout(n));
        SnapshotPair::align(&pre, &post)
    }

    const SPEC: &str = "limit ecmp := 4\npspec lim := (dstPrefix == 10.0.0.0/8) -> ecmp\n\
                        spec nochange := { .* : preserve }\ncheck nochange";

    #[test]
    fn within_limit_passes() {
        // 4 paths ≤ 4: routed to the limit check, which ignores the
        // path *identity* change that nochange would flag
        let report =
            run_check(SPEC, &db(), Granularity::Device, &pair_with_fanout(4)).expect("compiles");
        assert!(report.is_compliant(), "{report}");
    }

    #[test]
    fn over_limit_fails_with_count() {
        let report =
            run_check(SPEC, &db(), Granularity::Device, &pair_with_fanout(9)).expect("compiles");
        assert!(!report.is_compliant());
        let v = &report.violations[0];
        assert_eq!(v.check_name, "ecmp");
        match &v.violations[0].detail {
            ViolationDetail::Raw(msgs) => {
                assert!(msgs[0].contains("9 ECMP paths"), "{msgs:?}");
                assert!(msgs[0].contains("limit of 4"), "{msgs:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn limit_as_default_check() {
        let spec = "limit ecmp := 128\ncheck ecmp";
        let report =
            run_check(spec, &db(), Granularity::Device, &pair_with_fanout(100)).expect("compiles");
        assert!(report.is_compliant());
    }
}
