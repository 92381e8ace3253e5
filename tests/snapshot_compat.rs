//! Backward compatibility of the snapshot codec: golden format-v1 and
//! format-v2 snapshot files are checked into `tests/fixtures/` and must keep
//! decoding — and answering queries identically to a fresh build — no matter
//! how the current on-disk format (v3) evolves.
//!
//! The fixtures are frozen: the v2 encoder that wrote `pmi_v2.bin` no longer
//! exists, and v1 is only written back for an index decoded from v1 and never
//! paired with its database.

mod common;

use common::{fixture_config, fixture_graphs, fixture_query, PMI_V1, PMI_V2, PMI_V3};
use pgs::prelude::*;
use pgs_index::pmi::Pmi;
use pgs_index::FORMAT_VERSION;
use pgs_query::pipeline::QueryEngine;

/// Decodes a golden fixture and checks it answers identically to a fresh
/// build; returns the decoded (unpaired) index.
fn check_fixture(name: &str, bytes: &[u8]) -> Pmi {
    let pmi = Pmi::from_bytes(bytes).expect("golden fixture must keep decoding");
    assert_eq!(pmi.graph_count(), 8);

    let graphs = fixture_graphs();
    let fresh = QueryEngine::build(graphs.clone(), fixture_config());
    let loaded = QueryEngine::from_parts(graphs, pmi.clone(), fixture_config())
        .expect("pairing the fixture index");
    let params = QueryParams {
        epsilon: 0.2,
        delta: 1,
        variant: PruningVariant::OptSspBound,
    };
    let q = fixture_query();
    let want = fresh.query(&q, &params).unwrap();
    let got = loaded.query(&q, &params).unwrap();
    assert_eq!(got.answers, want.answers, "{name}: answers diverged");
    assert!(
        !want.answers.is_empty(),
        "fixture workload must be non-trivial"
    );
    pmi
}

#[test]
fn golden_v1_snapshot_still_round_trips() {
    let pmi = check_fixture("pmi_v1.bin", PMI_V1);
    // Unpaired, the v1 decode has no S-Index, so it re-saves as v1 — byte
    // for byte the golden file.
    assert!(pmi.sindex().is_none());
    assert_eq!(
        pmi.to_bytes(),
        PMI_V1,
        "v1 re-encode diverged from the golden bytes"
    );
}

#[test]
fn golden_v2_snapshot_still_round_trips() {
    let pmi = check_fixture("pmi_v2.bin", PMI_V2);
    // The v2 decode carries its S-Index, so it re-saves in the current
    // format, which reloads to the same index.
    let resaved = pmi.to_bytes();
    assert_eq!(resaved[8..12], FORMAT_VERSION.to_le_bytes());
    let back = Pmi::from_bytes(&resaved).unwrap();
    assert_eq!(back.sindex(), pmi.sindex());
    assert_eq!(back.stats(), pmi.stats());
    assert_eq!(back.to_bytes(), resaved);
}

/// A v3 save of the same index loads back and still matches the fixtures'
/// answers — the three formats describe one index.
#[test]
fn v3_save_of_the_fixture_database_agrees_with_the_golden_formats() {
    let graphs = fixture_graphs();
    let engine = QueryEngine::build(graphs.clone(), fixture_config());
    let bytes = engine.pmi().to_bytes();
    let reloaded = Pmi::from_bytes(&bytes).expect("v3 snapshot decodes");
    let loaded = QueryEngine::from_parts(graphs, reloaded, fixture_config()).unwrap();
    let params = QueryParams {
        epsilon: 0.2,
        delta: 1,
        variant: PruningVariant::OptSspBound,
    };
    let q = fixture_query();
    assert_eq!(
        loaded.query(&q, &params).unwrap().answers,
        engine.query(&q, &params).unwrap().answers
    );
}

/// The v3 writer is pinned: decoding the frozen one-segment fixture and
/// re-encoding it reproduces the file byte for byte, and a fresh build of
/// the fixture database writes the same bytes everywhere except the
/// wall-clock `build_seconds` field (the last 8 bytes of the fixed prefix).
#[test]
fn v3_one_segment_snapshot_is_reproduced_byte_for_byte() {
    let pmi = check_fixture("pmi_v3_one_segment.bin", PMI_V3);
    assert_eq!(
        pmi.to_bytes(),
        PMI_V3,
        "v3 re-encode diverged from the golden bytes"
    );

    let fresh = QueryEngine::build(fixture_graphs(), fixture_config());
    let bytes = fresh.pmi().to_bytes();
    assert_eq!(bytes.len(), PMI_V3.len());
    let prefix = bytes.len() - fresh.pmi().stats().size_bytes;
    let build_seconds = prefix - 8..prefix;
    assert_eq!(bytes[..build_seconds.start], PMI_V3[..build_seconds.start]);
    assert_eq!(bytes[build_seconds.end..], PMI_V3[build_seconds.end..]);
}
