//! Panic isolation and fault-plan containment at the session boundary.
//!
//! These tests install the **process-global** fault plan (the same
//! `RELA_FAULTS` mechanism the daemon uses), so they live in their own
//! integration binary and serialize on one lock. The property under
//! test is the tentpole containment contract: a panic injected into the
//! engine's decide path surfaces as a typed [`JobError::Panicked`] on
//! *that job only* — the session survives and the next job's report is
//! byte-identical to an unfaulted run.
//!
//! Every test holds [`PLAN_LOCK`] for its whole body, unfaulted
//! baselines included: an engine run outside the lock would consume
//! (or trip over) a plan another test thread installed.

use rela_core::{CheckReport, CheckSession, JobError, JobSpec, LabeledSource, SessionConfig};
use rela_net::faultio::{self, FaultPlan};
use rela_net::{linear_graph, Device, FlowSpec, Granularity, LocationDb, Snapshot};
use std::sync::{Mutex, MutexGuard, PoisonError};

static PLAN_LOCK: Mutex<()> = Mutex::new(());

/// Take the process-wide fault-plan lock for one test's whole body.
fn plan_lock() -> MutexGuard<'static, ()> {
    PLAN_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `body` with `spec` installed as the global plan; the caller's
/// guard proves the lock is held. Always clears the plan afterwards,
/// even when `body` panics.
fn with_plan(_held: &MutexGuard<'static, ()>, spec: &str, body: impl FnOnce()) {
    faultio::install(FaultPlan::parse(spec).expect("valid fault spec"));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    faultio::clear();
    if let Err(payload) = result {
        std::panic::resume_unwind(payload);
    }
}

fn db() -> LocationDb {
    let mut db = LocationDb::new();
    for name in ["A1", "B1", "C1"] {
        db.add_device(Device::new(name, name));
    }
    db
}

/// Two FECs routed A1→B1 and A1→C1, unchanged across the pair.
fn docs() -> (String, String) {
    let mut pre = Snapshot::new();
    let mut post = Snapshot::new();
    for (ix, tail) in [["B1"], ["C1"]].iter().enumerate() {
        let flow = FlowSpec::new(format!("10.0.{ix}.0/24").parse().unwrap(), "A1");
        let path: Vec<&str> = std::iter::once("A1").chain(tail.iter().copied()).collect();
        pre.insert(flow.clone(), linear_graph(&path));
        post.insert(flow, linear_graph(&path));
    }
    (pre.to_json().unwrap(), post.to_json().unwrap())
}

const SPEC: &str = "spec nochange := { .* : preserve }\ncheck nochange";

fn session(threads: usize) -> CheckSession {
    CheckSession::open(
        SPEC,
        db(),
        SessionConfig {
            granularity: Granularity::Device,
            threads,
            ..SessionConfig::default()
        },
    )
    .unwrap()
}

fn run(session: &CheckSession, docs: &(String, String)) -> Result<CheckReport, JobError> {
    session.run(JobSpec::streams(
        LabeledSource::new(docs.0.as_bytes(), "pre"),
        LabeledSource::new(docs.1.as_bytes(), "post"),
    ))
}

fn verdict_bytes(report: &CheckReport) -> String {
    report
        .to_string()
        .lines()
        .filter(|l| !l.starts_with("checked ") && !l.starts_with("behavior classes:"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn an_injected_decide_panic_is_contained_and_the_session_survives() {
    let lock = plan_lock();
    let docs = docs();
    let baseline = {
        let clean = session(1);
        verdict_bytes(&run(&clean, &docs).expect("unfaulted run succeeds"))
    };

    let s = session(1);
    with_plan(&lock, "panic=decide@1", || {
        let err = run(&s, &docs).expect_err("the injected panic must fail the job");
        match &err {
            JobError::Panicked { payload } => {
                assert!(payload.contains("injected fault"), "{payload}");
                assert!(payload.contains("decide"), "{payload}");
            }
            other => panic!("expected Panicked, got {other}"),
        }
        assert!(err.as_snapshot().is_none());

        // the very same session serves the next job, byte-identically
        // to a session that never saw the fault
        let report = run(&s, &docs).expect("the session must survive the panic");
        assert_eq!(verdict_bytes(&report), baseline);
        assert_eq!(s.jobs_run(), 2, "both jobs count, including the failed one");
    });
}

#[test]
fn a_panic_on_a_parallel_worker_is_contained_too() {
    let lock = plan_lock();
    let docs = docs();
    let s = session(2);
    with_plan(&lock, "panic=decide@1", || {
        let err = run(&s, &docs).expect_err("the injected panic must fail the job");
        // the payload survives the worker join: the operator sees the
        // injected cause, not an opaque re-panic
        match &err {
            JobError::Panicked { payload } => {
                assert!(payload.contains("injected fault"), "{payload}");
                assert!(payload.contains("decide"), "{payload}");
            }
            other => panic!("expected Panicked, got {other}"),
        }
        let report = run(&s, &docs).expect("the session must survive a worker panic");
        assert!(report.is_compliant());
    });
}

#[test]
fn faulted_input_streams_replay_byte_identically_across_seeds() {
    // read faults (short reads, EINTR, latency) on the snapshot streams
    // must never change a verdict: the framers retry and reassemble
    let _lock = plan_lock();
    let docs = docs();
    let baseline = {
        let s = session(1);
        verdict_bytes(&run(&s, &docs).unwrap())
    };
    for seed in 1..=4 {
        let plan = FaultPlan::parse(&format!("seed={seed},short-read=0.6,eintr=0.3")).unwrap();
        let s = session(1);
        let report = s
            .run(JobSpec::streams(
                LabeledSource::new(
                    faultio::FaultyRead::new(docs.0.as_bytes(), plan.clone()),
                    "pre",
                ),
                LabeledSource::new(faultio::FaultyRead::new(docs.1.as_bytes(), plan), "post"),
            ))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(verdict_bytes(&report), baseline, "seed {seed}");
    }
}

#[test]
fn every_class_is_decided_exactly_once() {
    // 256 flows over eight post behaviors (seven of them violating),
    // trickled in small, slow reads: the workers idle between frame
    // batches and decide classes while records still arrive. A
    // verdict decided mid-ingest is final, so counting the `decide`
    // point's firings, a run decides each class exactly once — the panic
    // scheduled past the class count never fires, the one at the class
    // count does.
    let lock = plan_lock();
    let mut pre = Snapshot::new();
    let mut post = Snapshot::new();
    for ix in 0..256usize {
        let flow = FlowSpec::new(
            format!("10.{}.{}.0/24", ix / 256, ix % 256)
                .parse()
                .unwrap(),
            "A1",
        );
        pre.insert(flow.clone(), linear_graph(&["A1", "B1"]));
        // detours through hops the location db does not know
        let hop = format!("H{}", ix % 8);
        let after = match ix % 8 {
            0 => linear_graph(&["A1", "B1"]),
            _ => linear_graph(&["A1", &hop, "B1"]),
        };
        post.insert(flow, after);
    }
    let docs = (pre.to_json().unwrap(), post.to_json().unwrap());
    let run_slow = |s: &CheckSession| {
        s.run(JobSpec::streams(
            LabeledSource::new(Trickle(docs.0.as_bytes()), "pre"),
            LabeledSource::new(Trickle(docs.1.as_bytes()), "post"),
        ))
    };
    for threads in [1usize, 2] {
        let clean = run_slow(&session(threads)).expect("unfaulted run succeeds");
        let classes = clean.stats.classes;
        assert_eq!(classes, 8, "threads {threads}");
        assert!(!clean.is_compliant());
        with_plan(&lock, &format!("panic=decide@{}", classes + 1), || {
            let report = run_slow(&session(threads))
                .unwrap_or_else(|e| panic!("threads {threads}: a class was decided twice: {e}"));
            assert_eq!(verdict_bytes(&report), verdict_bytes(&clean));
        });
        with_plan(&lock, &format!("panic=decide@{classes}"), || {
            run_slow(&session(threads)).expect_err("every class is decided");
        });
    }
}

/// A reader that hands out at most 256 bytes per call, after a short
/// sleep, so a snapshot arrives over many frame batches.
struct Trickle<'a>(&'a [u8]);

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        std::thread::sleep(std::time::Duration::from_micros(200));
        let n = buf.len().min(self.0.len()).min(256);
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}
