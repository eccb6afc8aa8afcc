//! `spec-grid`: the Fig. 7 grid, spec sizes {1, 4, 7, 13, 37} × {group,
//! device, interface}. Each cell opens a fresh in-memory session and
//! runs it on the 360-FEC pair, so `decide` dominates and ingest is
//! zero. Size-1 (`nochange`) cells are checked against the path-diff
//! oracle; the others against committed digests of their verdicts.

use crate::corpus::{
    grid_changes, grid_pair, grid_params, load_db, Size, GRID_GRANULARITIES, GRID_SIZES,
};
use crate::trace::{add_report_stats, finish_ratios, Layers, Tracer};
use crate::util::{
    geomean, hex128, median, planted, read_file, read_reference, report_flows, reset_peak_rss,
    vm_hwm,
};
use crate::{Ctx, Outcome, Sample};
use rela::lang::{CheckReport, CheckSession, JobSpec, SessionConfig};
use rela::net::{Granularity, Snapshot, SnapshotPair};
use rela::sim::workload::spec_of_size;
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

/// Grid passes measured even when `--seconds` runs out first.
const MIN_PASSES: usize = 2;

/// A digest of a report's verdict-level content: which flows violate
/// which parts, and the per-part counts. Witness text and timings are
/// left out, so the digest survives changes to how witnesses read.
pub fn verdict_digest(report: &CheckReport) -> String {
    let mut text = format!("total {} compliant {}\n", report.total, report.compliant);
    for v in &report.violations {
        let mut parts: Vec<&str> = v.violations.iter().map(|p| p.part.as_str()).collect();
        parts.sort_unstable();
        text.push_str(&format!("{} {}\n", v.flow, parts.join(",")));
    }
    for (part, count) in &report.part_counts {
        text.push_str(&format!("part {part} {count}\n"));
    }
    hex128(text.as_bytes())
}

fn level(name: &str) -> Granularity {
    GRID_GRANULARITIES
        .iter()
        .find(|(_, n)| *n == name)
        .map(|(g, _)| *g)
        .unwrap_or_else(|| panic!("unknown granularity {name}"))
}

fn cell_report(
    source: &str,
    db: &rela::net::LocationDb,
    granularity: Granularity,
    pair: &SnapshotPair,
) -> CheckReport {
    let session = CheckSession::open(
        source,
        db.clone(),
        SessionConfig {
            granularity,
            ..SessionConfig::default()
        },
    )
    .expect("grid spec compiles");
    session.run(JobSpec::pair(pair)).expect("in-memory pair")
}

/// Recompute the committed digests of every change `spec-grid` can pick,
/// at both sizes, and write them to `out`.
pub fn bless(out: &Path) {
    let mut sizes = Vec::new();
    for size in [Size::Full, Size::Tiny] {
        let mut changes = Vec::new();
        for (id, prefix) in grid_changes(size) {
            let (wan, pre, post) = grid_pair(size, prefix);
            let pair = SnapshotPair::align(&pre, &post);
            let mut cells = Vec::new();
            for n in GRID_SIZES.into_iter().filter(|&n| n > 1) {
                let source = spec_of_size(n, grid_params(size).regions);
                for (granularity, name) in GRID_GRANULARITIES {
                    let report = cell_report(&source, &wan.topology.db, granularity, &pair);
                    cells.push((format!("{n}/{name}"), Value::Str(verdict_digest(&report))));
                }
            }
            eprintln!("bless-grid: {} {id}", size.name());
            changes.push((id, Value::Obj(cells)));
        }
        sizes.push((size.name().to_owned(), Value::Obj(changes)));
    }
    let text = serde_json::to_string_pretty(&Value::Obj(sizes)).expect("digests serialize");
    std::fs::write(out, text + "\n").expect("digests written");
}

pub fn run(ctx: &Ctx) -> Outcome {
    let dir = &ctx.corpus;
    let m = &ctx.manifest;
    let size = m
        .get("size")
        .and_then(Value::as_str)
        .expect("manifest size");
    let change = m
        .get("change")
        .and_then(Value::as_str)
        .expect("manifest change");
    let order: Vec<(usize, &str)> = m
        .get("order")
        .and_then(Value::as_arr)
        .expect("manifest order")
        .iter()
        .map(|c| {
            let (n, g) = c
                .as_str()
                .expect("cell")
                .split_once('/')
                .expect("n/granularity");
            (n.parse().expect("spec size"), g)
        })
        .collect();
    let committed: Value =
        serde_json::from_str(&String::from_utf8(read_file(&ctx.references)).expect("UTF-8"))
            .expect("committed digests parse");
    let digests = committed.get(size).and_then(|s| s.get(change));
    let pre = Snapshot::from_reader(&read_file(&dir.join("pre.json"))[..]).expect("pre parses");
    let post = Snapshot::from_reader(&read_file(&dir.join("post.json"))[..]).expect("post parses");
    let pair = SnapshotPair::align(&pre, &post);
    let db = load_db(dir);
    let specs: BTreeMap<usize, String> = GRID_SIZES
        .iter()
        .map(|&n| {
            (
                n,
                String::from_utf8(read_file(&dir.join(format!("spec-{n}.rela")))).expect("spec"),
            )
        })
        .collect();
    let oracle: BTreeMap<&str, BTreeSet<String>> = GRID_GRANULARITIES
        .iter()
        .map(|(_, name)| {
            let set = read_reference(&dir.join(format!("reference-{name}.txt")));
            (*name, if ctx.plant { planted(&set) } else { set })
        })
        .collect();
    let expected_digest = |n: usize, g: &str| -> Option<String> {
        if ctx.plant {
            return Some("planted".to_owned());
        }
        digests?
            .get(&format!("{n}/{g}"))?
            .as_str()
            .map(str::to_owned)
    };

    let tracer = Tracer::new(ctx.trace);
    let bare = Tracer::new(false);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut pass_walls = Vec::new();
    let mut traced_walls = Vec::new();
    // each cell's walls across passes, in grid order
    let mut cell_walls: Vec<Vec<f64>> = vec![Vec::new(); order.len()];
    let mut cell_opens: Vec<Vec<f64>> = vec![Vec::new(); order.len()];
    let mut cell_peaks: Vec<Vec<f64>> = vec![Vec::new(); order.len()];
    let mut passes = Vec::new();
    let start = Instant::now();
    let mut pass_ix = 0u64;
    while start.elapsed().as_secs_f64() < ctx.seconds
        || pass_walls.len() + traced_walls.len() < MIN_PASSES
    {
        let traced = ctx.trace && pass_ix.is_multiple_of(2);
        let t = if traced { &tracer } else { &bare };
        let mut layers = Layers::default();
        let mut pass_wall = 0.0;
        for (cell_ix, &(n, g)) in order.iter().enumerate() {
            // the previous cell's report is dropped by now, so this
            // reading covers only this cell
            reset_peak_rss();
            let job = pass_ix * 100 + cell_ix as u64;
            let db = db.clone();
            let config = SessionConfig {
                granularity: level(g),
                threads: ctx.threads,
                ..SessionConfig::default()
            };
            let ((report, open, run), wall) = t.span("cell", job, || {
                let (session, open) = t.span("compile.open", job, || {
                    CheckSession::open(&specs[&n], db, config)
                });
                let session = session.expect("grid spec compiles");
                let (report, run) = t.span("check.run", job, || session.run(JobSpec::pair(&pair)));
                (report.expect("in-memory pair"), open, run)
            });
            cell_peaks[cell_ix].push(vm_hwm(None).unwrap_or(0) as f64 / 1e6);
            cell_opens[cell_ix].push(open.as_secs_f64());
            cell_walls[cell_ix].push(wall.as_secs_f64());
            pass_wall += wall.as_secs_f64();
            layers.add_time("compile.open_s", open);
            layers.add_time("check.run_s", run);
            add_report_stats(&mut layers, &report.stats);
            attempted += 1;
            let ok = if n == 1 {
                report_flows(&report) == oracle[g]
            } else {
                expected_digest(n, g).as_deref() == Some(verdict_digest(&report).as_str())
            };
            failed += u64::from(!ok);
        }
        if traced {
            traced_walls.push(pass_wall);
        } else {
            pass_walls.push(pass_wall);
        }
        if ctx.trace {
            finish_ratios(&mut layers);
            passes.push(layers);
        }
        pass_ix += 1;
    }
    // a pass is estimated cell by cell: the sum (and geometric mean) of
    // each cell's median wall, so a stall in one pass moves only the
    // cell it hit and only if it hit that cell in most passes
    let npasses = pass_walls.len() + traced_walls.len();
    let cell_medians: Vec<f64> = cell_walls.iter().map(|w| median(w)).collect();
    let grid_s: f64 = cell_medians.iter().sum();
    let geo = geomean(&cell_medians);
    // set-up of one pass: every cell's median `CheckSession::open`
    let setup: f64 = cell_opens.iter().map(|o| median(o)).sum();
    // peak of one pass: the largest of the cells' median peaks
    let rss_mb = cell_peaks.iter().map(|p| median(p)).fold(0.0, f64::max);
    let overhead_share = if traced_walls.is_empty() || pass_walls.is_empty() {
        0.0
    } else {
        median(&traced_walls) / median(&pass_walls) - 1.0
    };
    Outcome {
        attempted,
        failed,
        end_to_end: vec![
            Sample::new("setup_s", setup, "s", npasses * order.len()),
            Sample::new("pass_s", grid_s, "s", npasses),
            Sample::new("job_geomean_ms", geo * 1e3, "ms", npasses * order.len()),
            Sample::new("peak_rss_mb", rss_mb, "MB", npasses * order.len()),
        ],
        detail: vec![
            Sample::new("setup_s", setup, "s", npasses * order.len()),
            Sample::new("grid_s", grid_s, "s", npasses),
            Sample::new("grid_geomean_s", geo, "s", npasses * order.len()),
            Sample::new("peak_rss_mb", rss_mb, "MB", npasses * order.len()),
        ],
        passes,
        overhead_share,
        trace: ctx.trace.then(|| tracer.to_value()),
    }
}
