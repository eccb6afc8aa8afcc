//! The benchmark harness behind `perfbench/run.py`.
//!
//! ```text
//! perfbench-harness prepare  --workload W --seed N --size full|tiny --cache DIR
//! perfbench-harness measure  --workload W --corpus DIR --seconds S --trace 0|1
//!                            --rela BIN --threads N --work DIR --references FILE
//!                            [--plant-wrong-verdict]
//! perfbench-harness bless-grid --out FILE
//! ```
//!
//! `prepare` generates (or finds) the seeded corpus and prints its
//! directory. `measure` runs one workload against it and prints one
//! JSON object: the verdict tally, the end-to-end metrics (or, with
//! `--trace 1`, the per-layer ones), and the detail record. The two
//! are separate processes so that generation never shows in the
//! measuring process's memory or caches.

mod cold;
mod corpus;
mod daemon;
mod grid;
mod trace;
mod util;

use serde::Value;
use std::path::PathBuf;
use trace::Layers;

/// The end-to-end metrics every workload reports with tracing off.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("job_geomean_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports with tracing on (zero
/// where the workload does not reach the layer).
pub const PER_LAYER: [(&str, &str); 25] = [
    ("net.frame_s", "s"),
    ("net.decode_s", "s"),
    ("net.fingerprint_s", "s"),
    ("net.records", "count"),
    ("net.input_mb", "MB"),
    ("check.run_s", "s"),
    ("check.classes", "count"),
    ("check.dedup_hit_rate", "share"),
    ("check.graph_decodes", "count"),
    ("check.max_class_s", "s"),
    ("decide.lower_s", "s"),
    ("decide.determinize_s", "s"),
    ("decide.equivalent_s", "s"),
    ("decide.witness_s", "s"),
    ("decide.fst_memo_hits", "count"),
    ("compile.open_s", "s"),
    ("cache.warm_hit_rate", "share"),
    ("cache.persist_s", "s"),
    ("cache.store_kb", "kB"),
    ("delta.doc_kb", "kB"),
    ("delta.changed_records", "count"),
    ("wire.send_s", "s"),
    ("wire.wait_s", "s"),
    ("wire.sent_mb", "MB"),
    ("trace.overhead_share", "share"),
];

/// Everything a workload needs to run.
pub struct Ctx {
    pub corpus: PathBuf,
    pub manifest: Value,
    pub seconds: f64,
    pub trace: bool,
    pub rela: PathBuf,
    pub threads: usize,
    pub plant: bool,
    pub work: PathBuf,
    /// The committed `spec-grid` verdict digests.
    pub references: PathBuf,
}

/// One named measurement: its value, unit and sample count.
pub struct Sample {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Sample {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Sample {
        Sample {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What a workload measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics, by the names in [`END_TO_END`].
    pub end_to_end: Vec<Sample>,
    /// The workload's own named metrics (`check_s`, `grid_s`, the daemon
    /// latencies by submission kind, ...), for the record line.
    pub detail: Vec<Sample>,
    /// Per-pass layer values (traced runs only).
    pub passes: Vec<Layers>,
    /// `traced / untraced - 1` of the primary job wall (traced runs).
    pub overhead_share: f64,
    pub trace: Option<Value>,
}

fn metric(value: f64, unit: &str) -> Value {
    Value::obj(vec![
        ("value", Value::Float(value)),
        ("unit", Value::Str(unit.into())),
    ])
}

fn sample_value(s: &Sample) -> Value {
    Value::obj(vec![
        ("value", Value::Float(s.value)),
        ("unit", Value::Str(s.unit.into())),
        ("samples", Value::Int(s.samples as i64)),
    ])
}

fn report(ctx: &Ctx, out: Outcome) -> Value {
    let mut metrics = Vec::new();
    let mut samples = Vec::new();
    if ctx.trace {
        for (name, unit) in PER_LAYER {
            let value = if name == "trace.overhead_share" {
                out.overhead_share
            } else {
                util::median(&out.passes.iter().map(|l| l.get(name)).collect::<Vec<_>>())
            };
            metrics.push((name.to_owned(), metric(value, unit)));
            samples.push((name.to_owned(), Value::Int(out.passes.len() as i64)));
        }
    } else {
        for (name, unit) in END_TO_END {
            let s = out
                .end_to_end
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("workload did not measure {name}"));
            assert_eq!(s.unit, unit, "{name} unit");
            metrics.push((name.to_owned(), metric(s.value, unit)));
            samples.push((name.to_owned(), Value::Int(s.samples as i64)));
        }
    }
    let attempted = out.attempted.max(1);
    let mut detail: Vec<(String, Value)> = out
        .detail
        .iter()
        .map(|s| (s.name.to_owned(), sample_value(s)))
        .collect();
    detail.push((
        "failed_share".to_owned(),
        sample_value(&Sample::new(
            "failed_share",
            out.failed as f64 / attempted as f64,
            "share",
            attempted as usize,
        )),
    ));
    let mut fields = vec![
        ("correct", Value::Bool(out.failed == 0 && out.attempted > 0)),
        ("attempted", Value::UInt(attempted)),
        ("failed", Value::UInt(out.failed)),
        ("metrics", Value::Obj(metrics)),
        ("samples", Value::Obj(samples)),
        ("detail", Value::Obj(detail)),
    ];
    if let Some(trace) = out.trace {
        let path = ctx.work.join("trace.json");
        let text = serde_json::to_string(&trace).expect("trace serializes");
        std::fs::write(&path, text).expect("trace written");
        fields.push(("trace_file", Value::Str(path.display().to_string())));
    }
    Value::obj(fields)
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|ix| args.get(ix + 1))
        .cloned()
}

fn required(args: &[String], name: &str) -> String {
    flag(args, name).unwrap_or_else(|| {
        eprintln!("perfbench-harness: missing {name}");
        std::process::exit(2)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("prepare") => {
            let size = corpus::Size::parse(&required(&args, "--size")).expect("--size full|tiny");
            let seed: u64 = required(&args, "--seed")
                .parse()
                .expect("--seed is a number");
            let dir = corpus::prepare(
                &required(&args, "--workload"),
                seed,
                size,
                &PathBuf::from(required(&args, "--cache")),
            );
            println!("{}", dir.display());
        }
        Some("measure") => {
            let corpus = PathBuf::from(required(&args, "--corpus"));
            let ctx = Ctx {
                manifest: corpus::manifest(&corpus),
                corpus,
                seconds: required(&args, "--seconds").parse().expect("--seconds"),
                trace: required(&args, "--trace") == "1",
                rela: PathBuf::from(required(&args, "--rela")),
                threads: required(&args, "--threads").parse().expect("--threads"),
                plant: args.iter().any(|a| a == "--plant-wrong-verdict"),
                work: PathBuf::from(required(&args, "--work")),
                references: PathBuf::from(required(&args, "--references")),
            };
            std::fs::create_dir_all(&ctx.work).expect("work dir");
            let out = match required(&args, "--workload").as_str() {
                "cold-check" => cold::run(&ctx),
                "spec-grid" => grid::run(&ctx),
                "daemon-iterate" => daemon::run(&ctx),
                other => {
                    eprintln!("perfbench-harness: unknown workload {other}");
                    std::process::exit(2)
                }
            };
            let value = report(&ctx, out);
            println!(
                "{}",
                serde_json::to_string(&value).expect("result serializes")
            );
        }
        Some("bless-grid") => grid::bless(&PathBuf::from(required(&args, "--out"))),
        _ => {
            eprintln!("usage: perfbench-harness prepare|measure|bless-grid ...");
            std::process::exit(2);
        }
    }
}
