//! `cold-check`: one `rela check` process per job on the 51k-FEC pair,
//! `nochange` at group granularity, no cache. The operator's first
//! validation at WAN scale: ingest (`net`) and admission (`check`) do
//! nearly all the work.

use crate::corpus::load_db;
use crate::trace::{add_report_stats, finish_ratios, Layers, Tracer};
use crate::util::{
    geomean, median, parse_report, planted, read_file, read_reference, report_flows,
    verdict_matches, wait_with_rusage,
};
use crate::{Ctx, Outcome, Sample};
use rela::lang::{CheckSession, JobSpec, LabeledSource, SessionConfig};
use rela::net::{behavior_hash, Granularity, LocationDb, SnapshotFramer};
use std::collections::BTreeSet;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `CheckSession::open` repetitions behind `setup_s`, made before each
/// job so that they sample the whole run.
const OPENS_PER_JOB: usize = 10;
/// Jobs measured even when `--seconds` runs out first.
const MIN_JOBS: usize = 3;

struct Job {
    ok: bool,
    wall: Duration,
    rss: u64,
}

fn check_job(ctx: &Ctx, expected: &BTreeSet<String>, id: u64) -> Job {
    let dir = &ctx.corpus;
    let log =
        std::fs::File::create(ctx.work.join(format!("check-{id}.stderr"))).expect("stderr log");
    let start = Instant::now();
    // reaped by `wait_with_rusage`, which also reads its peak RSS
    #[allow(clippy::zombie_processes)]
    let mut child = Command::new(&ctx.rela)
        .arg("check")
        .arg("--spec")
        .arg(dir.join("nochange.rela"))
        .arg("--db")
        .arg(dir.join("db.json"))
        .arg("--pre")
        .arg(dir.join("pre.json"))
        .arg("--post")
        .arg(dir.join("post.json"))
        .args([
            "--granularity",
            "group",
            "--threads",
            &ctx.threads.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log)
        .spawn()
        .expect("rela check spawns");
    let mut out = Vec::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_end(&mut out)
        .expect("rela check stdout");
    let (code, rss) = wait_with_rusage(&child).expect("rela check reaped");
    let wall = start.elapsed();
    let verdict = parse_report(&String::from_utf8_lossy(&out));
    let want = if expected.is_empty() { 0 } else { 1 };
    Job {
        ok: code == want && verdict_matches(verdict.as_ref(), expected),
        wall,
        rss,
    }
}

/// Standalone passes of the framer, the record decoder and the behavior
/// hash over `files`: each layer's busy time when nothing overlaps it.
pub fn net_passes(
    files: &[&Path],
    db: &LocationDb,
    layers: &mut Layers,
    tracer: &Tracer,
    job: u64,
) {
    for path in files {
        let bytes = read_file(path);
        layers.add("net.input_mb", bytes.len() as f64 / 1e6);
        let (records, d) = tracer.span("net.frame", job, || {
            SnapshotFramer::new(&bytes[..], path.display().to_string())
                .collect::<Result<Vec<_>, _>>()
                .expect("corpus frames")
        });
        layers.add_time("net.frame_s", d);
        layers.add("net.records", records.len() as f64);
        let (graphs, d) = tracer.span("net.decode", job, || {
            records
                .iter()
                .map(|r| r.decode(None).expect("corpus decodes").1)
                .collect::<Vec<_>>()
        });
        layers.add_time("net.decode_s", d);
        let (hashes, d) = tracer.span("net.fingerprint", job, || {
            graphs
                .iter()
                .map(|g| behavior_hash(g, db, Granularity::Group))
                .collect::<Vec<_>>()
        });
        std::hint::black_box(hashes);
        layers.add_time("net.fingerprint_s", d);
    }
}

/// The same job in-process, to read the engine's statistics; returns
/// whether its verdict matches `expected`.
fn in_process(
    ctx: &Ctx,
    spec: &str,
    db: &LocationDb,
    expected: &BTreeSet<String>,
    layers: &mut Layers,
    tracer: &Tracer,
    job: u64,
) -> bool {
    let config = SessionConfig {
        granularity: Granularity::Group,
        threads: ctx.threads,
        ..SessionConfig::default()
    };
    let db = db.clone();
    let (session, d) = tracer.span("compile.open", job, || CheckSession::open(spec, db, config));
    layers.add_time("compile.open_s", d);
    let session = session.expect("spec compiles");
    let pre = std::fs::File::open(ctx.corpus.join("pre.json")).expect("pre");
    let post = std::fs::File::open(ctx.corpus.join("post.json")).expect("post");
    let (report, d) = tracer.span("check.run", job, || {
        session.run(JobSpec::streams(
            LabeledSource::new(std::io::BufReader::new(pre), "pre"),
            LabeledSource::new(std::io::BufReader::new(post), "post"),
        ))
    });
    layers.add_time("check.run_s", d);
    let report = report.expect("in-process check");
    add_report_stats(layers, &report.stats);
    report_flows(&report) == *expected
}

pub fn run(ctx: &Ctx) -> Outcome {
    let spec = String::from_utf8(read_file(&ctx.corpus.join("nochange.rela"))).expect("spec");
    let db = load_db(&ctx.corpus);
    let mut expected = read_reference(&ctx.corpus.join("reference.txt"));
    if ctx.plant {
        expected = planted(&expected);
    }
    let tracer = Tracer::new(ctx.trace);
    let config = SessionConfig {
        granularity: Granularity::Group,
        threads: ctx.threads,
        ..SessionConfig::default()
    };
    let mut opens = Vec::new();
    let mut open_sessions = |id: u64| {
        for _ in 0..OPENS_PER_JOB {
            let db = db.clone();
            let (session, d) =
                tracer.span("compile.open", id, || CheckSession::open(&spec, db, config));
            session.expect("spec compiles");
            opens.push(d.as_secs_f64());
        }
    };

    // one untimed job first, so the inputs are in the page cache as
    // they are for an operator re-running a check
    open_sessions(0);
    let warm = check_job(ctx, &expected, 0);
    let mut attempted = 1;
    let mut failed = u64::from(!warm.ok);
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut rss = Vec::new();
    let mut passes = Vec::new();
    let start = Instant::now();
    let mut id = 1u64;
    while start.elapsed().as_secs_f64() < ctx.seconds || walls.len() < MIN_JOBS {
        // traced runs alternate: odd jobs inside spans, even jobs bare,
        // so the difference of the two is the tracing overhead
        let traced = ctx.trace && id % 2 == 1;
        open_sessions(id);
        let job = if traced {
            tracer
                .span("job", id, || {
                    tracer
                        .span("rela.check", id, || check_job(ctx, &expected, id))
                        .0
                })
                .0
        } else {
            check_job(ctx, &expected, id)
        };
        attempted += 1;
        failed += u64::from(!job.ok);
        if traced {
            traced_walls.push(job.wall.as_secs_f64());
        } else {
            walls.push(job.wall.as_secs_f64());
        }
        rss.push(job.rss as f64 / 1e6);
        if ctx.trace {
            let mut layers = Layers::default();
            net_passes(
                &[&ctx.corpus.join("pre.json"), &ctx.corpus.join("post.json")],
                &db,
                &mut layers,
                &tracer,
                id,
            );
            let ok = in_process(ctx, &spec, &db, &expected, &mut layers, &tracer, id);
            attempted += 1;
            failed += u64::from(!ok);
            finish_ratios(&mut layers);
            passes.push(layers);
        }
        id += 1;
    }
    let all: Vec<f64> = walls.iter().chain(&traced_walls).copied().collect();
    let check_s = median(&all);
    let n = all.len();
    let setup = median(&opens);
    let rss_mb = median(&rss);
    let overhead_share = if traced_walls.is_empty() || walls.is_empty() {
        0.0
    } else {
        median(&traced_walls) / median(&walls) - 1.0
    };
    Outcome {
        attempted,
        failed,
        end_to_end: vec![
            Sample::new("setup_s", setup, "s", opens.len()),
            Sample::new("pass_s", check_s, "s", n),
            Sample::new("job_geomean_ms", geomean(&all) * 1e3, "ms", n),
            Sample::new("peak_rss_mb", rss_mb, "MB", rss.len()),
        ],
        detail: vec![
            Sample::new("setup_s", setup, "s", opens.len()),
            Sample::new("check_s", check_s, "s", n),
            Sample::new("peak_rss_mb", rss_mb, "MB", rss.len()),
        ],
        passes,
        overhead_share,
        trace: ctx.trace.then(|| tracer.to_value()),
    }
}
