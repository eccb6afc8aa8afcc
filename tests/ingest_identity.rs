//! The ingest-identity property of the one check engine: an in-memory
//! pair, a full JSON snapshot, its binary packing, and a delta against
//! a retained base are encodings of the same records, so every
//! combination of container × transport (buffered or memory-mapped) ×
//! record arrival order × thread count must produce byte-identical
//! reports — and a corrupted byte stream must fail with the same
//! labelled, offset-addressed error [`SnapshotReader`] reports for it.

use rela::lang::{CheckReport, CheckSession, JobOptions, JobSpec, LabeledSource, SessionConfig};
use rela::net::{
    BinarySnapshotWriter, Granularity, MmapSource, Snapshot, SnapshotError, SnapshotFramer,
    SnapshotPair, SnapshotReader, SnapshotWriter,
};
use rela::sim::workload::{iteration_deltas, spec_of_size, synthetic_wan, WanParams};

fn params() -> WanParams {
    WanParams {
        regions: 3,
        routers_per_group: 1,
        parallel_links: 1,
        fecs_per_pair: 4,
    }
}

/// The three snapshot encodings of one evaluation pair: the canonical
/// JSON text, its binary packing, and (for the second iteration) the
/// delta documents against the first.
struct Fixture {
    spec: String,
    db: rela::net::LocationDb,
    pre_json: String,
    post_seed_json: String,
    post_json: String,
    base_epoch: rela::net::SnapshotEpoch,
    delta_pre: Vec<u8>,
    delta_post: Vec<u8>,
}

fn fixture() -> Fixture {
    let params = params();
    let wan = synthetic_wan(&params);
    let di = iteration_deltas(&wan, &params, 2);
    Fixture {
        spec: spec_of_size(4, params.regions),
        db: wan.topology.db,
        pre_json: di.pre.to_json().unwrap(),
        post_seed_json: di.posts[0].to_json().unwrap(),
        post_json: di.posts[1].to_json().unwrap(),
        base_epoch: di.deltas[0].base,
        delta_pre: di.deltas[0].pre_doc.clone(),
        delta_post: di.deltas[0].post_doc.clone(),
    }
}

fn session(fx: &Fixture, retain_base: bool) -> CheckSession {
    session_with_threads(fx, retain_base, 1)
}

fn session_with_threads(fx: &Fixture, retain_base: bool, threads: usize) -> CheckSession {
    CheckSession::open(
        &fx.spec,
        fx.db.clone(),
        SessionConfig {
            granularity: Granularity::Group,
            threads,
            retain_bases: usize::from(retain_base),
            ..SessionConfig::default()
        },
    )
    .unwrap()
}

/// Pack a canonical JSON snapshot into the binary container by raw
/// span moves — the `rela snapshot pack` path, in memory.
fn pack(json: &str) -> Vec<u8> {
    let mut framer = SnapshotFramer::new(json.as_bytes(), "pack");
    let mut writer = BinarySnapshotWriter::new(Vec::new()).unwrap();
    for raw in &mut framer {
        let raw = raw.unwrap();
        let (flow, graph) = raw.split_spans(Some("pack")).unwrap();
        writer.write_raw(flow.as_slice(), graph.as_slice()).unwrap();
    }
    writer.finish().unwrap()
}

/// The same records as `json` in a seed-shuffled order: a different
/// arrival order at the join, the registry, and the decide queue.
fn shuffled(json: &str, seed: u64) -> String {
    let mut records: Vec<_> = SnapshotReader::new(json.as_bytes())
        .collect::<Result<_, _>>()
        .unwrap();
    let mut x = seed;
    for i in (1..records.len()).rev() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        records.swap(i, (x >> 33) as usize % (i + 1));
    }
    let mut writer = SnapshotWriter::new(Vec::new()).unwrap();
    for (flow, graph) in &records {
        writer.write(flow, graph).unwrap();
    }
    String::from_utf8(writer.finish().unwrap()).unwrap()
}

/// The aligned in-memory pair behind two JSON snapshots.
fn pair_of(pre: &str, post: &str) -> SnapshotPair {
    SnapshotPair::align(
        &Snapshot::from_json(pre).unwrap(),
        &Snapshot::from_json(post).unwrap(),
    )
}

/// The error the record reader reports for `bytes` under `label`: the
/// contract every engine ingest error must match byte for byte.
fn reader_error(bytes: &[u8], label: &str) -> SnapshotError {
    SnapshotReader::new(bytes)
        .with_label(label)
        .collect::<Result<Vec<_>, _>>()
        .unwrap_err()
}

/// Verdict bytes: the report minus its timing- and stats-bearing lines
/// (the filter every engine-equivalence test uses).
fn verdict_bytes(report: &CheckReport) -> String {
    report
        .to_string()
        .lines()
        .filter(|l| !l.starts_with("checked ") && !l.starts_with("behavior classes:"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn stream_job<'a>(pre: &'a [u8], post: &'a [u8]) -> JobSpec<'a> {
    JobSpec::streams(
        LabeledSource::new(pre, "pre"),
        LabeledSource::new(post, "post"),
    )
}

/// Spool `bytes` to a temp file, memory-map it, and unlink the file —
/// the zero-copy ingest path a mapped RSNB container rides (the mapping
/// keeps the pages alive past the unlink).
fn mapped(bytes: &[u8], label: &str) -> LabeledSource<'static> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SPOOL: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "rela-ingest-identity-{}-{}",
        std::process::id(),
        SPOOL.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::write(&path, bytes).unwrap();
    let map = MmapSource::open(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    LabeledSource::mapped(map, label)
}

fn mapped_job(pre: &[u8], post: &[u8]) -> JobSpec<'static> {
    JobSpec::streams(mapped(pre, "pre"), mapped(post, "post"))
}

#[test]
fn every_container_transport_and_thread_count_agrees_with_the_pair() {
    let fx = fixture();
    let pair = pair_of(&fx.pre_json, &fx.post_json);
    let baseline = session(&fx, false).run(JobSpec::pair(&pair)).unwrap();
    assert!(!baseline.is_compliant(), "the change must be visible");
    let (pre_shuffled, post_shuffled) = (shuffled(&fx.pre_json, 7), shuffled(&fx.post_json, 11));
    assert_ne!(pre_shuffled, fx.pre_json, "the shuffle must move records");
    let containers: [(&str, Vec<u8>, Vec<u8>); 4] = [
        (
            "json",
            fx.pre_json.clone().into(),
            fx.post_json.clone().into(),
        ),
        ("binary", pack(&fx.pre_json), pack(&fx.post_json)),
        (
            "shuffled-json",
            pre_shuffled.clone().into(),
            post_shuffled.clone().into(),
        ),
        ("shuffled-binary", pack(&pre_shuffled), pack(&post_shuffled)),
    ];
    for threads in [1, 2, 4] {
        let s = session_with_threads(&fx, false, threads);
        let report = s.run(JobSpec::pair(&pair)).unwrap();
        assert_eq!(
            report.stats.graph_decodes, 0,
            "a decoded pair decodes nothing"
        );
        assert_eq!(
            verdict_bytes(&report),
            verdict_bytes(&baseline),
            "pair × {threads} threads diverged"
        );
        for (container, pre, post) in &containers {
            let report = s.run(stream_job(pre, post)).unwrap();
            assert_eq!(
                verdict_bytes(&report),
                verdict_bytes(&baseline),
                "{container} × buffered × {threads} threads diverged from the pair"
            );
            // the same container through a memory mapping: zero-copy
            // framing for RSNB, the buffered framer for JSON
            let report = s.run(mapped_job(pre, post)).unwrap();
            assert_eq!(
                verdict_bytes(&report),
                verdict_bytes(&baseline),
                "{container} × mmap × {threads} threads diverged from the pair"
            );
        }
    }
}

#[test]
fn delta_submission_agrees_with_both_containers() {
    let fx = fixture();
    let pair = pair_of(&fx.pre_json, &fx.post_json);
    let in_memory = session(&fx, false).run(JobSpec::pair(&pair)).unwrap();
    for threads in [1, 2, 4] {
        let s = session_with_threads(&fx, true, threads);
        // seed the retained base with the first iteration's pair
        s.run(stream_job(
            fx.pre_json.as_bytes(),
            fx.post_seed_json.as_bytes(),
        ))
        .unwrap();
        assert_eq!(s.base_epoch(), Some(fx.base_epoch));
        let delta_report = s
            .run(
                JobSpec::deltas(
                    LabeledSource::new(&fx.delta_pre[..], "delta:pre"),
                    LabeledSource::new(&fx.delta_post[..], "delta:post"),
                )
                .with_options(JobOptions {
                    delta_base: Some(fx.base_epoch.as_u128()),
                    ..JobOptions::default()
                }),
            )
            .unwrap();
        assert_eq!(
            verdict_bytes(&delta_report),
            verdict_bytes(&in_memory),
            "delta × {threads} threads diverged from the pair"
        );
        let binary = session_with_threads(&fx, false, threads)
            .run(stream_job(&pack(&fx.pre_json), &pack(&fx.post_json)))
            .unwrap();
        assert_eq!(verdict_bytes(&delta_report), verdict_bytes(&binary));
    }
}

/// Deterministic truncation points spread over `len` bytes, always
/// including the mid-header and one-byte-short extremes.
fn truncation_points(len: usize) -> Vec<usize> {
    let mut points = vec![3.min(len), len.saturating_sub(1)];
    let mut x = 0x9e37_79b9_u64;
    for _ in 0..12 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        points.push((x % len as u64) as usize);
    }
    points.sort_unstable();
    points.dedup();
    points
}

#[test]
fn truncation_errors_keep_the_label_offset_contract_in_every_container() {
    let fx = fixture();
    let containers: [(&str, Vec<u8>, Vec<u8>); 2] = [
        (
            "json",
            fx.pre_json.clone().into_bytes(),
            fx.post_json.clone().into_bytes(),
        ),
        ("binary", pack(&fx.pre_json), pack(&fx.post_json)),
    ];
    for (container, pre, post) in &containers {
        for cut in truncation_points(post.len()) {
            let clipped = &post[..cut];
            // the engine must surface the labelled, offset-addressed
            // error the record reader reports for the same corruption
            let expected = reader_error(clipped, "post");
            let buffered = session(&fx, false)
                .run(stream_job(pre, clipped))
                .unwrap_err();
            assert_eq!(
                buffered.label(),
                Some("post"),
                "{container} cut at {cut}: wrong label ({buffered})"
            );
            assert!(
                buffered.byte_offset().is_some(),
                "{container} cut at {cut}: no byte offset ({buffered})"
            );
            assert_eq!(
                buffered.to_string(),
                expected.to_string(),
                "{container} cut at {cut}: engine and reader errors diverged"
            );
            // a truncated *mapped* container must surface the identical
            // error: the in-place framer shares the buffered framer's
            // offset/entry contract byte for byte
            let mapped_err = session(&fx, false)
                .run(JobSpec::streams(
                    LabeledSource::new(&pre[..], "pre"),
                    mapped(clipped, "post"),
                ))
                .unwrap_err();
            assert_eq!(
                expected.to_string(),
                mapped_err.to_string(),
                "{container} cut at {cut}: mapped and buffered errors diverged"
            );
        }
    }
}

#[test]
fn truncated_delta_documents_keep_the_error_contract() {
    let fx = fixture();
    for cut in truncation_points(fx.delta_post.len()) {
        let s = session(&fx, true);
        s.run(stream_job(
            fx.pre_json.as_bytes(),
            fx.post_seed_json.as_bytes(),
        ))
        .unwrap();
        let err = s
            .run(
                JobSpec::deltas(
                    LabeledSource::new(&fx.delta_pre[..], "delta:pre"),
                    LabeledSource::new(&fx.delta_post[..cut], "delta:post"),
                )
                .with_options(JobOptions {
                    delta_base: Some(fx.base_epoch.as_u128()),
                    ..JobOptions::default()
                }),
            )
            .unwrap_err();
        assert_eq!(err.label(), Some("delta:post"), "cut at {cut}: {err}");
        assert!(
            err.byte_offset().is_some(),
            "cut at {cut}: no offset ({err})"
        );
        // a cut inside the records array addresses the broken entry
        if err.to_string().contains("entry") {
            assert!(err.entry_index().is_some(), "cut at {cut}: {err}");
        }
    }
}
