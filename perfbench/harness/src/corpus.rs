//! Seeded, cached corpora.
//!
//! Every input the program sees is generated here from the workload's
//! parameters and the `--seed`, with the repo's own generators
//! (`simulate` and `change_sequence_deltas`). Simulating a WAN is slow
//! (about 18 s for the 51k-FEC snapshot and about 4 s per 12k-FEC
//! snapshot), so each corpus is cached under a key of generator
//! version, parameters and seed, and its manifest records a content
//! digest over every file. A cache hit re-hashes the files and
//! regenerates on any mismatch, so two runs that report the same digest
//! read byte-identical inputs.

use crate::util::{hex128, read_file, Rng};
use rela::baseline::oracle::oracle_verdict;
use rela::net::{Granularity, Ipv4Prefix, LocationDb, Snapshot, SnapshotPair};
use rela::sim::workload::{
    change_sequence_deltas, group_name, region_prefix, spec_of_size, synthetic_wan, SyntheticWan,
    WanParams,
};
use rela::sim::{configured, simulate, ConfigChange, DeviceSelector};
use serde::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Bumped whenever generation changes, so stale caches are never read.
const GEN_VERSION: &str = "v4";

/// IGP cost that drains a ring trunk (trunks cost 5, chords 9).
const DRAIN_COST: u32 = 100;

/// Seeded corpora kept per workload in one cache; older ones are evicted.
const KEEP_PER_WORKLOAD: usize = 4;

/// Spec sizes of the Fig. 7 grid.
pub const GRID_SIZES: [usize; 5] = [1, 4, 7, 13, 37];

/// Granularities of the Fig. 7 grid, with their names in files.
pub const GRID_GRANULARITIES: [(Granularity, &str); 3] = [
    (Granularity::Group, "group"),
    (Granularity::Device, "device"),
    (Granularity::Interface, "interface"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined at.
    Full,
    /// A few FECs per workload, for the self-test.
    Tiny,
}

impl Size {
    pub fn parse(name: &str) -> Option<Size> {
        match name {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// `cold-check`: the 51k-FEC WAN, and how many /24s a change denies.
pub fn cold_params(size: Size) -> (WanParams, usize) {
    match size {
        Size::Full => (wan(5, 2, 2, 2560), 8),
        Size::Tiny => (wan(3, 1, 1, 32), 2),
    }
}

/// `spec-grid`: the 360-FEC WAN with heavily trunked cores.
pub fn grid_params(size: Size) -> WanParams {
    match size {
        Size::Full => wan(10, 3, 8, 4),
        Size::Tiny => wan(4, 1, 2, 2),
    }
}

/// `daemon-iterate`: the 12k-FEC WAN.
pub fn daemon_params(size: Size) -> WanParams {
    match size {
        Size::Full => wan(4, 2, 2, 1024),
        Size::Tiny => wan(4, 1, 1, 16),
    }
}

fn wan(regions: usize, routers_per_group: usize, parallel_links: usize, fecs: u32) -> WanParams {
    WanParams {
        regions,
        routers_per_group,
        parallel_links,
        fecs_per_pair: fecs,
    }
}

fn params_key(p: &WanParams) -> String {
    format!(
        "{}r{}g{}l{}f",
        p.regions, p.routers_per_group, p.parallel_links, p.fecs_per_pair
    )
}

fn params_value(p: &WanParams) -> Value {
    Value::obj(vec![
        ("regions", Value::Int(p.regions as i64)),
        ("routers_per_group", Value::Int(p.routers_per_group as i64)),
        ("parallel_links", Value::Int(p.parallel_links as i64)),
        ("fecs_per_pair", Value::Int(p.fecs_per_pair as i64)),
    ])
}

/// Prepare (or find) the corpus of `workload` for `seed`; returns its
/// directory.
pub fn prepare(workload: &str, seed: u64, size: Size, cache: &Path) -> PathBuf {
    std::fs::create_dir_all(cache).expect("cache dir");
    // corpora of other generator versions are never read again
    let current = format!("-{GEN_VERSION}-");
    for entry in std::fs::read_dir(cache).expect("cache dir").flatten() {
        if !entry.file_name().to_string_lossy().contains(&current) {
            std::fs::remove_dir_all(entry.path()).ok();
        }
    }
    let dir = match workload {
        "cold-check" => cold_corpus(seed, size, cache),
        "spec-grid" => grid_corpus(seed, size, cache),
        "daemon-iterate" => daemon_corpus(seed, size, cache),
        other => panic!("unknown workload {other}"),
    };
    evict(cache, &format!("{workload}-"), &dir);
    dir
}

/// Read a corpus manifest.
pub fn manifest(dir: &Path) -> Value {
    let text = String::from_utf8(read_file(&dir.join("manifest.json"))).expect("UTF-8 manifest");
    serde_json::from_str(&text).expect("manifest parses")
}

/// The digest over every file of a corpus but its manifest.
fn digest(dir: &Path) -> String {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("corpus dir")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n != "manifest.json")
        .collect();
    names.sort();
    let mut listing = String::new();
    for name in names {
        listing.push_str(&format!(
            "{name} {}\n",
            hex128(&read_file(&dir.join(&name)))
        ));
    }
    hex128(listing.as_bytes())
}

/// Return `cache/key`, building it with `build` when it is missing or
/// its files no longer match the manifest digest. `build` writes the
/// files; the manifest (its fields plus the digest) is written last.
fn cached(
    cache: &Path,
    key: &str,
    build: impl FnOnce(&Path) -> Vec<(&'static str, Value)>,
) -> PathBuf {
    let dir = cache.join(key);
    if dir.join("manifest.json").exists() {
        let recorded = manifest(&dir)
            .get("digest")
            .and_then(Value::as_str)
            .map(str::to_owned);
        if recorded.as_deref() == Some(digest(&dir).as_str()) {
            return dir;
        }
        eprintln!("perfbench: {key}: digest mismatch, regenerating");
        std::fs::remove_dir_all(&dir).ok();
    }
    let tmp = cache.join(format!("{key}.tmp-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::create_dir_all(&tmp).expect("corpus tmp dir");
    eprintln!("perfbench: generating {key}");
    let mut fields = build(&tmp);
    fields.push(("key", Value::Str(key.to_owned())));
    fields.push(("generator", Value::Str(GEN_VERSION.to_owned())));
    fields.push(("digest", Value::Str(digest(&tmp))));
    write(
        &tmp.join("manifest.json"),
        serde_json::to_string_pretty(&Value::obj(fields))
            .expect("manifest")
            .as_bytes(),
    );
    if std::fs::rename(&tmp, &dir).is_err() {
        // another process finished the same corpus first
        std::fs::remove_dir_all(&tmp).ok();
        assert!(
            dir.join("manifest.json").exists(),
            "{key}: could not publish corpus"
        );
    }
    dir
}

/// Keep only the newest few seeded corpora of one workload.
fn evict(cache: &Path, prefix: &str, keep: &Path) {
    let mut dirs: Vec<(std::time::SystemTime, PathBuf)> = std::fs::read_dir(cache)
        .map(|it| {
            it.flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .filter(|e| !e.file_name().to_string_lossy().contains(".tmp-"))
                .filter_map(|e| Some((e.metadata().ok()?.modified().ok()?, e.path())))
                .collect()
        })
        .unwrap_or_default();
    dirs.sort();
    let excess = dirs.len().saturating_sub(KEEP_PER_WORKLOAD);
    for (_, dir) in dirs.into_iter().take(excess) {
        if dir != keep {
            std::fs::remove_dir_all(dir).ok();
        }
    }
    // mark the corpus in use as the newest
    std::fs::File::open(keep.join("manifest.json"))
        .and_then(|f| f.set_modified(std::time::SystemTime::now()))
        .ok();
    std::fs::File::open(keep)
        .and_then(|f| f.set_modified(std::time::SystemTime::now()))
        .ok();
}

fn write(path: &Path, bytes: &[u8]) {
    std::fs::write(path, bytes).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
}

fn write_snapshot(path: &Path, snapshot: &Snapshot) {
    write(
        path,
        snapshot.to_json().expect("snapshot serializes").as_bytes(),
    );
}

fn write_db(dir: &Path, wan: &SyntheticWan) {
    let db = serde_json::to_string_pretty(&wan.topology.db).expect("db serializes");
    write(&dir.join("db.json"), db.as_bytes());
}

pub fn load_db(dir: &Path) -> LocationDb {
    let text = String::from_utf8(read_file(&dir.join("db.json"))).expect("UTF-8 db");
    serde_json::from_str(&text).expect("db parses")
}

fn simulate_full(wan: &SyntheticWan, changes: &[ConfigChange]) -> Snapshot {
    let cfg = configured(&wan.config, &wan.topology, changes);
    let (snapshot, unconverged) = simulate(&wan.topology, &cfg, &wan.traffic);
    assert!(unconverged.is_empty(), "WAN must converge");
    snapshot
}

/// The /24s that carry traffic towards `region`, in address order.
fn region_24s(wan: &SyntheticWan, region: usize) -> Vec<Ipv4Prefix> {
    let home = region_prefix(region);
    let set: BTreeSet<Ipv4Prefix> = wan
        .traffic
        .iter()
        .filter(|f| home.contains(&f.dst))
        .map(|f| Ipv4Prefix::new(f.dst.addr(), 24))
        .collect();
    set.into_iter().collect()
}

/// `n` distinct /24s of `region`, in seeded order.
fn pick_24s(wan: &SyntheticWan, region: usize, n: usize, rng: &mut Rng) -> Vec<Ipv4Prefix> {
    let mut all = region_24s(wan, region);
    assert!(
        all.len() >= n,
        "region {region} has {} /24s, need {n}",
        all.len()
    );
    rng.shuffle(&mut all);
    all.truncate(n);
    all
}

fn deny(region: usize, prefixes: &[Ipv4Prefix]) -> ConfigChange {
    ConfigChange::AddAclDeny {
        devices: DeviceSelector::Group(group_name(region, 'O')),
        prefixes: prefixes.to_vec(),
    }
}

fn drain(regions: usize, trunk: usize) -> ConfigChange {
    ConfigChange::SetGroupLinkCost {
        group_a: group_name(trunk % regions, 'C'),
        group_b: group_name((trunk + 1) % regions, 'C'),
        cost: DRAIN_COST,
    }
}

/// The `nochange` flows of a pair, one per line, as the oracle sees them.
fn oracle_lines(pre: &Snapshot, post: &Snapshot, db: &LocationDb, level: Granularity) -> String {
    let pair = SnapshotPair::align(pre, post);
    oracle_verdict(&pair, db, level)
        .iter()
        .map(|flow| format!("{flow}\n"))
        .collect()
}

fn prefixes_value(prefixes: &[Ipv4Prefix]) -> Value {
    Value::Arr(prefixes.iter().map(|p| Value::Str(p.to_string())).collect())
}

// ---------------------------------------------------------------- cold

/// The seeded change of `cold-check`: denies of seeded /24s at the
/// egress group of a seeded region.
fn cold_change(
    wan: &SyntheticWan,
    params: &WanParams,
    denied: usize,
    seed: u64,
) -> (usize, Vec<Ipv4Prefix>) {
    let mut rng = Rng::new(seed);
    let region = rng.below(params.regions);
    (region, pick_24s(wan, region, denied, &mut rng))
}

fn cold_corpus(seed: u64, size: Size, cache: &Path) -> PathBuf {
    let (params, n_denied) = cold_params(size);
    let key = format!(
        "cold-check-{GEN_VERSION}-{}-d{n_denied}-s{seed}",
        params_key(&params)
    );
    cached(cache, &key, |dir| {
        let wan = synthetic_wan(&params);
        let (region, denied) = cold_change(&wan, &params, n_denied, seed);
        // the two simulations are independent; on two CPUs this halves
        // the preparation of a new seed
        let (pre, post) = std::thread::scope(|s| {
            let pre = s.spawn(|| simulate_full(&wan, &[]));
            let post = simulate_full(&wan, &[deny(region, &denied)]);
            (pre.join().expect("pre simulation"), post)
        });
        write_snapshot(&dir.join("pre.json"), &pre);
        write_snapshot(&dir.join("post.json"), &post);
        write_db(dir, &wan);
        write(
            &dir.join("nochange.rela"),
            spec_of_size(1, params.regions).as_bytes(),
        );
        let reference = oracle_lines(&pre, &post, &wan.topology.db, Granularity::Group);
        write(&dir.join("reference.txt"), reference.as_bytes());
        vec![
            ("workload", Value::Str("cold-check".into())),
            ("seed", Value::UInt(seed)),
            ("size", Value::Str(size.name().into())),
            ("params", params_value(&params)),
            ("fecs", Value::Int(pre.len() as i64)),
            ("denied_region", Value::Int(region as i64)),
            ("denied", prefixes_value(&denied)),
            ("violations", Value::Int(reference.lines().count() as i64)),
        ]
    })
}

// ---------------------------------------------------------------- grid

/// The region whose traffic a `spec-grid` change denies: region 1, as
/// in the representative change behind Fig. 7. The size-4..37 specs
/// anchor their shift chains at fixed regions, so denying another
/// region asks for different work; fixing it keeps every seed's grid
/// the same amount of work.
const GRID_REGION: usize = 1;

/// The seeded change of `spec-grid`: one denied /24 of [`GRID_REGION`].
/// Returns the /24 index and the prefix.
fn grid_change(wan: &SyntheticWan, seed: u64) -> (usize, Ipv4Prefix) {
    let all = region_24s(wan, GRID_REGION);
    let ix = Rng::new(seed).below(all.len());
    (ix, all[ix])
}

fn grid_change_id(ix: usize) -> String {
    format!("r{GRID_REGION}-j{ix}")
}

/// Every change `spec-grid` can pick, as `(id, prefix)`.
pub fn grid_changes(size: Size) -> Vec<(String, Ipv4Prefix)> {
    let wan = synthetic_wan(&grid_params(size));
    region_24s(&wan, GRID_REGION)
        .into_iter()
        .enumerate()
        .map(|(ix, p)| (grid_change_id(ix), p))
        .collect()
}

/// The grid's pre and post snapshots for one denied /24.
pub fn grid_pair(size: Size, prefix: Ipv4Prefix) -> (SyntheticWan, Snapshot, Snapshot) {
    let wan = synthetic_wan(&grid_params(size));
    let pre = simulate_full(&wan, &[]);
    let post = simulate_full(&wan, &[deny(GRID_REGION, &[prefix])]);
    (wan, pre, post)
}

fn grid_corpus(seed: u64, size: Size, cache: &Path) -> PathBuf {
    let params = grid_params(size);
    let key = format!("spec-grid-{GEN_VERSION}-{}-s{seed}", params_key(&params));
    cached(cache, &key, |dir| {
        let (ix, prefix) = grid_change(&synthetic_wan(&params), seed);
        let (wan, pre, post) = grid_pair(size, prefix);
        write_snapshot(&dir.join("pre.json"), &pre);
        write_snapshot(&dir.join("post.json"), &post);
        write_db(dir, &wan);
        for n in GRID_SIZES {
            write(
                &dir.join(format!("spec-{n}.rela")),
                spec_of_size(n, params.regions).as_bytes(),
            );
        }
        for (level, name) in GRID_GRANULARITIES {
            let reference = oracle_lines(&pre, &post, &wan.topology.db, level);
            write(
                &dir.join(format!("reference-{name}.txt")),
                reference.as_bytes(),
            );
        }
        let mut cells: Vec<String> = GRID_SIZES
            .iter()
            .flat_map(|n| {
                GRID_GRANULARITIES
                    .iter()
                    .map(move |(_, g)| format!("{n}/{g}"))
            })
            .collect();
        Rng::new(seed ^ 0xce11).shuffle(&mut cells);
        vec![
            ("workload", Value::Str("spec-grid".into())),
            ("seed", Value::UInt(seed)),
            ("size", Value::Str(size.name().into())),
            ("params", params_value(&params)),
            ("fecs", Value::Int(pre.len() as i64)),
            ("change", Value::Str(grid_change_id(ix))),
            ("denied", prefixes_value(&[prefix])),
            (
                "order",
                Value::Arr(cells.into_iter().map(Value::Str).collect()),
            ),
        ]
    })
}

// -------------------------------------------------------------- daemon

/// One step of the `daemon-iterate` walk: the drained trunk (if any)
/// and how many of the seeded /24s are denied.
#[derive(Debug, Clone, Copy)]
struct Step {
    trunk: Option<usize>,
    denied: usize,
}

/// The walk: the seed pair, then deny-list growth (`small`) alternating
/// with a drain moving one trunk along the ring (`drain`). `offset`
/// rotates the whole walk around the ring. Every position costs a full
/// simulation when a seed's corpus is prepared, so the walk is as short
/// as gives both kinds of change more than one sample per pass.
fn daemon_steps(offset: usize) -> Vec<(Step, &'static str)> {
    let s = |trunk: Option<usize>, denied| Step {
        trunk: trunk.map(|t| t + offset),
        denied,
    };
    vec![
        (s(None, 1), "seed"),
        (s(None, 2), "small"),
        (s(Some(0), 2), "drain"),
        (s(Some(0), 3), "small"),
        (s(Some(1), 3), "drain"),
        (s(Some(1), 4), "small"),
    ]
}

fn step_changes(
    params: &WanParams,
    region: usize,
    denied: &[Ipv4Prefix],
    step: Step,
) -> Vec<ConfigChange> {
    let mut changes: Vec<ConfigChange> = step
        .trunk
        .map(|t| drain(params.regions, t))
        .into_iter()
        .collect();
    changes.push(deny(region, &denied[..step.denied]));
    changes
}

/// The seeded walk of `daemon-iterate`: the rotation (which is also the
/// denied region) and the /24s in the order they are denied.
fn daemon_change(wan: &SyntheticWan, params: &WanParams, seed: u64) -> (usize, Vec<Ipv4Prefix>) {
    let mut rng = Rng::new(seed);
    let offset = rng.below(params.regions);
    let most = daemon_steps(0)
        .iter()
        .map(|(s, _)| s.denied)
        .max()
        .unwrap_or(1);
    (offset, pick_24s(wan, offset, most, &mut rng))
}

fn daemon_corpus(seed: u64, size: Size, cache: &Path) -> PathBuf {
    let params = daemon_params(size);
    let key = format!(
        "daemon-iterate-{GEN_VERSION}-{}-s{seed}",
        params_key(&params)
    );
    cached(cache, &key, |dir| {
        let wan = synthetic_wan(&params);
        let (offset, denied) = daemon_change(&wan, &params, seed);
        let steps = daemon_steps(offset);
        let sequence: Vec<Vec<ConfigChange>> = steps
            .iter()
            .map(|&(step, _)| step_changes(&params, offset, &denied, step))
            .collect();
        let walk = change_sequence_deltas(&wan, &sequence);
        write_snapshot(&dir.join("pre.json"), &walk.pre);
        write_db(dir, &wan);
        write(
            &dir.join("nochange.rela"),
            spec_of_size(1, params.regions).as_bytes(),
        );
        for (ix, post) in walk.posts.iter().enumerate() {
            write_snapshot(&dir.join(format!("post-{ix}.json")), post);
            let reference = oracle_lines(&walk.pre, post, &wan.topology.db, Granularity::Group);
            write(
                &dir.join(format!("reference-{ix}.txt")),
                reference.as_bytes(),
            );
        }
        let mut delta_meta = Vec::new();
        for (ix, delta) in walk.deltas.iter().enumerate() {
            write(&dir.join(format!("delta-{}.pre", ix + 1)), &delta.pre_doc);
            write(&dir.join(format!("delta-{}.post", ix + 1)), &delta.post_doc);
            delta_meta.push(Value::obj(vec![
                ("kind", Value::Str(steps[ix + 1].1.into())),
                ("base", Value::Str(delta.base.to_string())),
                ("epoch", Value::Str(delta.epoch.to_string())),
                ("changed", Value::Int(delta.changed as i64)),
                ("removed", Value::Int(delta.removed as i64)),
                (
                    "doc_bytes",
                    Value::Int((delta.pre_doc.len() + delta.post_doc.len()) as i64),
                ),
            ]));
        }
        vec![
            ("workload", Value::Str("daemon-iterate".into())),
            ("seed", Value::UInt(seed)),
            ("size", Value::Str(size.name().into())),
            ("params", params_value(&params)),
            ("fecs", Value::Int(walk.pre.len() as i64)),
            ("offset", Value::Int(offset as i64)),
            ("denied", prefixes_value(&denied)),
            ("steps", Value::Int(steps.len() as i64)),
            ("deltas", Value::Arr(delta_meta)),
        ]
    })
}
