//! `daemon-iterate`: a fresh `rela serve` per pass (empty `--cache-dir`,
//! `--retain-epochs 2`) on the 12k-FEC WAN, driven by one in-process
//! client over the `rela::proto` frames in a closed loop. It submits
//! the seed pair cold, then walks the seeded change sequence one delta
//! at a time, each delta followed by a full resubmission of the same
//! pair. `wire`, `delta` and `cache` do the work.

use crate::cold::net_passes;
use crate::corpus::load_db;
use crate::trace::{add_report_stats, finish_ratios, Layers, Tracer};
use crate::util::{
    dir_bytes, geomean, median, parse_report, planted, read_file, read_reference, report_flows,
    verdict_matches, vm_hwm,
};
use crate::{Ctx, Outcome, Sample};
use rela::cache::VerdictStore;
use rela::lang::{CheckSession, JobOptions, JobSpec, LabeledSource, SessionConfig};
use rela::net::Granularity;
use rela::proto::{
    read_frame, write_frame, KIND_DELTA_MISS, KIND_DELTA_OK, KIND_JOB, KIND_PING, KIND_PONG,
    KIND_POST, KIND_PRE, KIND_REPORT, KIND_SHUTDOWN,
};
use serde::{Serialize, Value};
use std::collections::BTreeSet;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Passes (daemon lifetimes) measured even when `--seconds` runs out.
const MIN_PASSES: usize = 2;
/// Snapshot bytes per chunk frame, as `rela submit` sends them.
const CHUNK: usize = 64 * 1024;
/// The socket, relative to the work directory both processes run in
/// (keeps the path under the 108-byte `sun_path` limit).
const SOCKET: &str = "perfbench.sock";

/// One submission of the walk, loaded into memory before timing.
struct Submission {
    kind: &'static str,
    pre: Vec<u8>,
    post: Vec<u8>,
    delta_base: Option<u128>,
    changed: usize,
    expected: BTreeSet<String>,
}

struct Reply {
    ok: bool,
    wall: Duration,
    send: Duration,
    wait: Duration,
    sent: usize,
    stats: Value,
}

fn spawn(ctx: &Ctx, cache_dir: &Path, pass: u64) -> Child {
    let log = std::fs::File::create(ctx.work.join(format!("serve-{pass}.log"))).expect("serve log");
    let dir = &ctx.corpus;
    Command::new(&ctx.rela)
        .arg("serve")
        .args(["--socket", SOCKET])
        .arg("--spec")
        .arg(dir.join("nochange.rela"))
        .arg("--db")
        .arg(dir.join("db.json"))
        .args([
            "--granularity",
            "group",
            "--threads",
            &ctx.threads.to_string(),
        ])
        .arg("--cache-dir")
        .arg(cache_dir)
        .args(["--retain-epochs", "2"])
        .current_dir(&ctx.work)
        .stdin(Stdio::null())
        .stdout(log.try_clone().expect("serve log"))
        .stderr(log)
        .spawn()
        .expect("rela serve spawns")
}

fn ping() -> bool {
    let Ok(mut stream) = UnixStream::connect(SOCKET) else {
        return false;
    };
    write_frame(&mut stream, KIND_PING, b"").is_ok()
        && matches!(read_frame(&mut stream), Ok(Some((KIND_PONG, _))))
}

/// Poll until the daemon answers a PING; `None` if it never does.
fn wait_ready(child: &mut Child) -> Option<Duration> {
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(60) {
        if ping() {
            return Some(start.elapsed());
        }
        if matches!(child.try_wait(), Ok(Some(_))) {
            return None;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    None
}

/// Drain the daemon and wait for it to exit (killing it if it hangs).
fn stop(mut child: Child) {
    if let Ok(mut stream) = UnixStream::connect(SOCKET) {
        if write_frame(&mut stream, KIND_SHUTDOWN, b"").is_ok() {
            let _ = read_frame(&mut stream);
        }
    }
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(30) {
        if matches!(child.try_wait(), Ok(Some(_))) {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().ok();
    child.wait().ok();
}

fn submit(sub: &Submission, tracer: &Tracer, job: u64) -> Reply {
    let failed = |wall| Reply {
        ok: false,
        wall,
        send: Duration::ZERO,
        wait: Duration::ZERO,
        sent: 0,
        stats: Value::Null,
    };
    let start = Instant::now();
    let Ok(mut stream) = UnixStream::connect(SOCKET) else {
        return failed(start.elapsed());
    };
    let options = JobOptions {
        delta_base: sub.delta_base,
        ..JobOptions::default()
    };
    let json = serde_json::to_string(&options.to_value()).expect("options serialize");
    let mut sent = 0;
    let (sent_ok, mut send) = tracer.span("wire.send", job, || {
        sent += json.len();
        write_frame(&mut stream, KIND_JOB, json.as_bytes()).is_ok()
    });
    if !sent_ok {
        return failed(start.elapsed());
    }
    if sub.delta_base.is_some() {
        let (reply, d) = tracer.span("wire.wait", job, || read_frame(&mut stream));
        send += d;
        match reply {
            Ok(Some((KIND_DELTA_OK, _))) => {}
            // DELTA_MISS (the base is gone) or anything else fails the job
            Ok(Some((KIND_DELTA_MISS, _))) | Ok(_) | Err(_) => return failed(start.elapsed()),
        }
    }
    let (sides_ok, d) = tracer.span("wire.send", job, || {
        // interleave the sides, as `rela submit` does, so the daemon's
        // lockstep aligner always has bytes for the side it pulls next
        let mut pre = sub.pre.chunks(CHUNK);
        let mut post = sub.post.chunks(CHUNK);
        let (mut pre_done, mut post_done) = (false, false);
        while !(pre_done && post_done) {
            for (chunks, kind, done) in [
                (&mut pre, KIND_PRE, &mut pre_done),
                (&mut post, KIND_POST, &mut post_done),
            ] {
                if *done {
                    continue;
                }
                let chunk = chunks.next().unwrap_or(&[]);
                *done = chunk.is_empty();
                sent += chunk.len();
                if write_frame(&mut stream, kind, chunk).is_err() {
                    return false;
                }
            }
        }
        true
    });
    send += d;
    if !sides_ok {
        return failed(start.elapsed());
    }
    let (reply, wait) = tracer.span("wire.wait", job, || read_frame(&mut stream));
    let wall = start.elapsed();
    let Ok(Some((KIND_REPORT, payload))) = reply else {
        return failed(wall);
    };
    let Ok(body) = serde_json::from_str::<Value>(&String::from_utf8_lossy(&payload)) else {
        return failed(wall);
    };
    let exit = body.get("exit").and_then(Value::as_i64);
    let verdict = body
        .get("report")
        .and_then(Value::as_str)
        .and_then(parse_report);
    let want = i64::from(!sub.expected.is_empty());
    Reply {
        ok: exit == Some(want) && verdict_matches(verdict.as_ref(), &sub.expected),
        wall,
        send,
        wait,
        sent,
        stats: body.get("stats").cloned().unwrap_or(Value::Null),
    }
}

fn load_walk(ctx: &Ctx) -> Vec<Submission> {
    let dir = &ctx.corpus;
    let reference = |ix: usize| {
        let set = read_reference(&dir.join(format!("reference-{ix}.txt")));
        if ctx.plant {
            planted(&set)
        } else {
            set
        }
    };
    let pre = read_file(&dir.join("pre.json"));
    let full = |ix: usize, kind| Submission {
        kind,
        pre: pre.clone(),
        post: read_file(&dir.join(format!("post-{ix}.json"))),
        delta_base: None,
        changed: 0,
        expected: reference(ix),
    };
    let mut walk = vec![full(0, "cold")];
    let deltas = ctx
        .manifest
        .get("deltas")
        .and_then(Value::as_arr)
        .expect("manifest deltas");
    for (i, meta) in deltas.iter().enumerate() {
        let ix = i + 1;
        let field = |name: &str| meta.get(name).expect("delta field");
        let kind = match field("kind").as_str() {
            Some("small") => "delta_small",
            Some("drain") => "delta_drain",
            other => panic!("unknown delta kind {other:?}"),
        };
        walk.push(Submission {
            kind,
            pre: read_file(&dir.join(format!("delta-{ix}.pre"))),
            post: read_file(&dir.join(format!("delta-{ix}.post"))),
            delta_base: Some(
                u128::from_str_radix(field("base").as_str().expect("epoch"), 16)
                    .expect("hex epoch"),
            ),
            changed: field("changed").as_u64().expect("changed") as usize,
            expected: reference(ix),
        });
        walk.push(full(ix, "full_warm"));
    }
    walk
}

/// The walk in-process against a retaining session with an attached
/// on-disk store: exposes the engine's phases and the store flush the
/// daemon pays after it replies. Returns how many replayed verdicts
/// differ from the references.
fn replay(ctx: &Ctx, walk: &[Submission], layers: &mut Layers, tracer: &Tracer, pass: u64) -> u64 {
    let spec = String::from_utf8(read_file(&ctx.corpus.join("nochange.rela"))).expect("spec");
    let config = SessionConfig {
        granularity: Granularity::Group,
        threads: ctx.threads,
        retain_bases: 2,
        ..SessionConfig::default()
    };
    let db = load_db(&ctx.corpus);
    let job0 = pass * 100;
    let (session, d) = tracer.span("compile.open", job0, || {
        CheckSession::open(&spec, db, config)
    });
    layers.add_time("compile.open_s", d);
    let mut session = session.expect("spec compiles");
    let store_dir = ctx.work.join(format!("replay-cache-{pass}"));
    std::fs::remove_dir_all(&store_dir).ok();
    session.attach_store(VerdictStore::open(&store_dir, session.epoch()).expect("store opens"));
    let mut replayed = Layers::default();
    let mut wrong = 0;
    for (ix, sub) in walk.iter().enumerate() {
        let job = job0 + ix as u64;
        let spec = match sub.delta_base {
            Some(base) => JobSpec::deltas(
                LabeledSource::new(&sub.pre[..], "delta:pre"),
                LabeledSource::new(&sub.post[..], "delta:post"),
            )
            .with_options(JobOptions {
                delta_base: Some(base),
                ..JobOptions::default()
            }),
            None => JobSpec::streams(
                LabeledSource::new(&sub.pre[..], "pre"),
                LabeledSource::new(&sub.post[..], "post"),
            ),
        };
        let (report, d) = tracer.span("check.run", job, || session.run(spec));
        layers.add_time("check.run_s", d);
        let report = report.expect("replayed job");
        add_report_stats(&mut replayed, &report.stats);
        wrong += u64::from(report_flows(&report) != sub.expected);
        let (persisted, d) = tracer.span("cache.persist", job, || session.persist_if_dirty());
        persisted.expect("store persists");
        layers.add_time("cache.persist_s", d);
    }
    for name in [
        "check.max_class_s",
        "decide.lower_s",
        "decide.determinize_s",
        "decide.equivalent_s",
        "decide.witness_s",
    ] {
        layers.set(name, replayed.get(name));
    }
    std::fs::remove_dir_all(&store_dir).ok();
    wrong
}

pub fn run(ctx: &Ctx) -> Outcome {
    std::env::set_current_dir(&ctx.work).expect("work dir");
    let walk = load_walk(ctx);
    let db = load_db(&ctx.corpus);
    let tracer = Tracer::new(ctx.trace);
    let bare = Tracer::new(false);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut setups = Vec::new();
    let mut walls: Vec<(&str, f64)> = Vec::new();
    // each walk position's walls across passes
    let mut position_walls: Vec<Vec<f64>> = vec![Vec::new(); walk.len()];
    let mut walk_walls = Vec::new();
    let mut traced_walls = Vec::new();
    // the daemon's peak RSS during each walk position, across passes
    let mut position_peaks: Vec<Vec<f64>> = vec![Vec::new(); walk.len()];
    let mut passes = Vec::new();
    let start = Instant::now();
    let mut pass = 0u64;
    while start.elapsed().as_secs_f64() < ctx.seconds
        || walk_walls.len() + traced_walls.len() < MIN_PASSES
    {
        let traced = ctx.trace && pass.is_multiple_of(2);
        let t = if traced { &tracer } else { &bare };
        let cache_dir = ctx.work.join(format!("cache-{pass}"));
        std::fs::remove_dir_all(&cache_dir).ok();
        std::fs::create_dir_all(&cache_dir).expect("cache dir");
        std::fs::remove_file(SOCKET).ok();
        let spawned = Instant::now();
        let mut child = spawn(ctx, &cache_dir, pass);
        let Some(_) = wait_ready(&mut child) else {
            // a daemon that never answers fails every job of the pass
            attempted += walk.len() as u64;
            failed += walk.len() as u64;
            stop(child);
            pass += 1;
            continue;
        };
        setups.push(spawned.elapsed().as_secs_f64());
        let mut layers = Layers::default();
        let mut walk_wall = 0.0;
        for (ix, sub) in walk.iter().enumerate() {
            let job = pass * 100 + ix as u64;
            // restart the daemon's peak RSS from its current size
            std::fs::write(format!("/proc/{}/clear_refs", child.id()), "5").ok();
            let (reply, _) = t.span("submit", job, || submit(sub, t, job));
            position_peaks[ix].push(vm_hwm(Some(child.id())).unwrap_or(0) as f64 / 1e6);
            attempted += 1;
            failed += u64::from(!reply.ok);
            walls.push((sub.kind, reply.wall.as_secs_f64()));
            position_walls[ix].push(reply.wall.as_secs_f64());
            if sub.kind != "cold" {
                walk_wall += reply.wall.as_secs_f64();
            }
            layers.add_time("wire.send_s", reply.send);
            layers.add_time("wire.wait_s", reply.wait);
            layers.add("wire.sent_mb", reply.sent as f64 / 1e6);
            if sub.delta_base.is_some() {
                layers.add(
                    "delta.doc_kb",
                    (sub.pre.len() + sub.post.len()) as f64 / 1e3,
                );
                layers.add("delta.changed_records", sub.changed as f64);
            }
            let count =
                |name: &str| reply.stats.get(name).and_then(Value::as_u64).unwrap_or(0) as f64;
            layers.add("check.classes", count("classes"));
            layers.add("check.graph_decodes", count("graph_decodes"));
            layers.add("check.fecs", count("fecs"));
            layers.add("check.dedup_hits", count("dedup_hits"));
            layers.add("cache.warm_hits", count("warm_hits"));
            layers.add("decide.fst_memo_hits", count("fst_memo_hits"));
        }
        stop(child);
        layers.add("cache.store_kb", dir_bytes(&cache_dir) as f64 / 1e3);
        std::fs::remove_dir_all(&cache_dir).ok();
        if traced {
            traced_walls.push(walk_wall);
        } else {
            walk_walls.push(walk_wall);
        }
        if traced {
            net_passes(
                &[
                    &ctx.corpus.join("pre.json"),
                    &ctx.corpus.join("post-0.json"),
                ],
                &db,
                &mut layers,
                t,
                pass * 100,
            );
            attempted += walk.len() as u64;
            failed += replay(ctx, &walk, &mut layers, t, pass);
            finish_ratios(&mut layers);
            passes.push(layers);
        }
        pass += 1;
    }
    std::fs::remove_file(SOCKET).ok();
    let of = |kind: &str| -> Vec<f64> {
        walls
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, w)| w * 1e3)
            .collect()
    };
    // a walk is estimated submission by submission, as the grid is cell
    // by cell: each position's median wall, summed (and geometric mean)
    let npasses = walk_walls.len() + traced_walls.len();
    let walk_medians: Vec<f64> = walk
        .iter()
        .zip(&position_walls)
        .filter(|(sub, _)| sub.kind != "cold")
        .map(|(_, w)| median(w))
        .collect();
    let setup = median(&setups);
    let pass_s: f64 = walk_medians.iter().sum();
    // peak of one pass: the largest of the positions' median peaks
    let rss_mb = position_peaks.iter().map(|p| median(p)).fold(0.0, f64::max);
    let overhead_share = if traced_walls.is_empty() || walk_walls.is_empty() {
        0.0
    } else {
        median(&traced_walls) / median(&walk_walls) - 1.0
    };
    let kind_sample = |name: &'static str, kind: &str| {
        let v = of(kind);
        Sample::new(name, median(&v), "ms", v.len())
    };
    Outcome {
        attempted,
        failed,
        end_to_end: vec![
            Sample::new("setup_s", setup, "s", setups.len()),
            Sample::new("pass_s", pass_s, "s", npasses),
            Sample::new(
                "job_geomean_ms",
                geomean(&walk_medians) * 1e3,
                "ms",
                npasses * walk_medians.len(),
            ),
            Sample::new("peak_rss_mb", rss_mb, "MB", npasses * walk.len()),
        ],
        detail: vec![
            Sample::new("setup_s", setup, "s", setups.len()),
            kind_sample("cold_submit_ms", "cold"),
            kind_sample("delta_small_p50_ms", "delta_small"),
            kind_sample("delta_drain_p50_ms", "delta_drain"),
            kind_sample("full_warm_p50_ms", "full_warm"),
            Sample::new("walk_s", pass_s, "s", npasses),
            Sample::new("peak_rss_mb", rss_mb, "MB", npasses * walk.len()),
        ],
        passes,
        overhead_share,
        trace: ctx.trace.then(|| tracer.to_value()),
    }
}
