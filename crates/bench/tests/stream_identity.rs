//! Streamed snapshots must be indistinguishable from an in-memory pair:
//! on the fig6/fig7 testbeds, feeding the serialized snapshots through
//! `SnapshotFramer` → `check_pipelined` — as JSON or packed as RSNB, at
//! 1, 2, and 4 threads — produces a byte-identical `CheckReport` to
//! `align` → `check` (timing lines excluded — they are the only
//! nondeterministic output).

use rela_core::{compile_program, parse_program, CheckOptions, CheckReport, Checker};
use rela_net::{BinarySnapshotWriter, Granularity, Snapshot, SnapshotFramer, SnapshotPair};
use rela_sim::workload::{spec_of_size, synthetic_wan, WanParams};
use rela_sim::{configured, simulate};

/// The report rendering minus its timing-dependent lines.
fn verdict_bytes(report: &CheckReport) -> String {
    report
        .to_string()
        .lines()
        .filter(|l| !l.starts_with("checked ") && !l.starts_with("behavior classes:"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A snapshot in the binary (RSNB) container.
fn rsnb(snapshot: &Snapshot) -> Vec<u8> {
    let mut writer = BinarySnapshotWriter::new(Vec::new()).expect("header");
    for (flow, graph) in snapshot.iter() {
        writer.write(flow, graph).expect("record");
    }
    writer.finish().expect("trailer")
}

fn assert_streamed_identical(params: &WanParams, spec_atomics: usize, granularity: Granularity) {
    let wan = synthetic_wan(params);
    let (pre, unconverged) = simulate(&wan.topology, &wan.config, &wan.traffic);
    assert!(unconverged.is_empty(), "base WAN must converge");
    let post_cfg = configured(&wan.config, &wan.topology, &wan.representative_change);
    let (post, unconverged) = simulate(&wan.topology, &post_cfg, &wan.traffic);
    assert!(unconverged.is_empty(), "changed WAN must converge");

    let program = parse_program(&spec_of_size(spec_atomics, params.regions)).expect("spec parses");
    let compiled = compile_program(&program, &wan.topology.db, granularity).expect("spec compiles");
    let in_memory =
        Checker::new(&compiled, &wan.topology.db).check(&SnapshotPair::align(&pre, &post));
    assert_eq!(in_memory.stats.graph_decodes, 0);
    let containers = [
        (
            "json",
            pre.to_json().expect("pre serializes").into_bytes(),
            post.to_json().expect("post serializes").into_bytes(),
        ),
        ("rsnb", rsnb(&pre), rsnb(&post)),
    ];
    for threads in [1, 2, 4] {
        let checker = Checker::new(&compiled, &wan.topology.db).with_options(CheckOptions {
            threads,
            ..CheckOptions::default()
        });
        for (container, pre_bytes, post_bytes) in &containers {
            let streamed = checker
                .check_pipelined(
                    SnapshotFramer::new(&pre_bytes[..], "pre"),
                    SnapshotFramer::new(&post_bytes[..], "post"),
                )
                .expect("streams are well-formed");
            assert_eq!(streamed.violations, in_memory.violations);
            assert_eq!(streamed.stats.classes, in_memory.stats.classes);
            assert_eq!(streamed.stats.dedup_hits, in_memory.stats.dedup_hits);
            assert_eq!(
                verdict_bytes(&streamed),
                verdict_bytes(&in_memory),
                "{container} streams at {threads} threads diverged from the pair"
            );
        }
    }
}

/// The Fig. 6 testbed (default WAN scale, group granularity).
#[test]
fn fig6_testbed_streams_byte_identically() {
    assert_streamed_identical(&WanParams::default(), 4, Granularity::Group);
}

/// The Fig. 7 interface-granularity column (the path-explosion one).
#[test]
fn fig7_testbed_streams_byte_identically() {
    assert_streamed_identical(&WanParams::default(), 1, Granularity::Interface);
}
