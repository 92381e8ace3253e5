//! Versioned binary snapshot of the PMI (`Pmi::save` / `Pmi::load`).
//!
//! The paper builds the PMI offline precisely so query time never pays the
//! feature-mining + SIP-bound cost; a process that rebuilds the index on every
//! start pays it anyway.  The snapshot makes the index build-once/load-many.
//!
//! The current format (**v3**) is a fixed-width prefix and a head (segment
//! table, graph salts, feature definitions) followed by the segments (sparse
//! matrix columns, per-feature support lists and per-graph summaries).  The
//! writer emits exactly one segment covering the whole database.  Files with
//! several segments, written by earlier versions of the engine, still load:
//! decoding merges their segments into the same global layout.  See the
//! layout comment above the v3 section below.
//!
//! The legacy single-segment layout (v1/v2) is still read:
//!
//! ```text
//! magic   8  b"PGS-PMI\0"
//! version 4  u32 (1 or 2)
//! fprint  8  u64 fingerprint of the build parameters (threads excluded)
//! params  …  every PmiBuildParams field, fixed-width little-endian
//! build_seconds f64, churn u64
//! ─────────── payload (this part is what PmiStats::size_bytes measures) ───
//! salts    u64 count + one u64 content salt per database graph
//! features u64 count + per feature: name, vertex labels, edges,
//!          support list, frequency, discriminativity
//! matrix   u64 entry count + CSR arrays of the sparse matrix verbatim
//!          (offsets u64, feature ids u32, lower/upper bounds f64)
//! sindex   (v2 only) u64 summary count + per graph: vertex/edge counts,
//!          vertex-label histogram, edge-signature histogram, degree
//!          sequence (posting lists are a deterministic function of the
//!          summaries and are rebuilt on load)
//! ```
//!
//! All multi-byte values are little-endian; `f64`s are written as their IEEE
//! bit patterns, so bounds, frequencies and parameters round-trip exactly and
//! a loaded index answers queries byte-identically to the index that was
//! saved.  The build environment has no serde, hence the hand-rolled codec.
//!
//! Version 1 snapshots (pre-S-Index) still load: they decode to an index
//! without summaries, and `QueryEngine::from_parts` rebuilds the S-Index from
//! the database skeletons it pairs the index with.  Such an index, saved
//! before it is paired, is the one thing still *written* as v1 (it has no
//! summaries for v3 to store); v2 is never written.
//!
//! The salt list in the head ties a snapshot to the database contents it was
//! built from: `QueryEngine::from_parts` recomputes the salts of the database
//! it is given and refuses an index whose columns would not line up.

use crate::feature::Feature;
use crate::pmi::PmiBuildParams;
use crate::sindex::StructuralIndex;
use crate::sip_bounds::DisjointnessRule;
use crate::storage::SparseMatrix;
use pgs_graph::model::{Graph, Label, VertexId};
use pgs_graph::parallel::{derive_seed, mix64};
use pgs_graph::summary::{EdgeSignature, StructuralSummary, SummaryView};
use pgs_prob::montecarlo::MonteCarloConfig;
use std::fmt;
use std::path::Path;

/// Magic bytes opening every PMI snapshot.
pub const MAGIC: [u8; 8] = *b"PGS-PMI\0";

/// Current snapshot format version (v3: segments behind a fixed-width head
/// and a per-segment offset/length table).
pub const FORMAT_VERSION: u32 = 3;

/// The single-segment format with an S-Index section; still readable.
pub const FORMAT_V2: u32 = 2;

/// The pre-S-Index format version; still readable, and written for an index
/// decoded from v1 that was never paired with its database.
pub const FORMAT_V1: u32 = 1;

/// Errors surfaced by [`crate::pmi::Pmi::save`] / [`crate::pmi::Pmi::load`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The underlying filesystem operation failed.
    Io(String),
    /// The file does not start with the PMI magic bytes.
    BadMagic,
    /// The file uses a format version this build cannot read.
    UnsupportedVersion(u32),
    /// The file is structurally invalid (truncated, inconsistent counts,
    /// fingerprint mismatch, malformed feature graph, …).
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a PMI snapshot (bad magic bytes)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot format version {v} (expected {FORMAT_VERSION})"
                )
            }
            SnapshotError::Corrupt(why) => write!(f, "corrupt PMI snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The decoded parts of a snapshot of any version, consumed by
/// `Pmi::from_bytes`.
pub(crate) struct PmiParts {
    pub params: PmiBuildParams,
    pub build_seconds: f64,
    pub churn: usize,
    pub graph_salts: Vec<u64>,
    /// Support lists are empty: `supports` holds them.
    pub features: Vec<Feature>,
    /// Per feature (row) the graph ids (ascending) passing the α filter.
    pub supports: Vec<Vec<u32>>,
    pub matrix: SparseMatrix,
    /// `None` for format-v1 snapshots (pre-S-Index).
    pub sindex: Option<StructuralIndex>,
}

/// A borrowed view of an index, consumed by [`encode`].
/// The features' own support lists are ignored: row `i` of `supports` is
/// feature `i`'s support.
pub(crate) struct PartsRef<'a> {
    pub params: &'a PmiBuildParams,
    pub build_seconds: f64,
    pub churn: usize,
    pub graph_salts: &'a [u64],
    pub features: &'a [Feature],
    pub supports: &'a [Vec<u32>],
    pub matrix: &'a SparseMatrix,
    /// `None` only for an index decoded from v1 and never paired.
    pub sindex: Option<&'a StructuralIndex>,
}

/// A deterministic fingerprint of the build parameters (the query-relevant
/// ones: feature selection, bounds and seed; `threads` only affects wall-clock
/// time and is excluded).  Stored in the header and re-derived on load as a
/// corruption check; callers can also compare it against their own
/// configuration before trusting a foreign index.
pub fn params_fingerprint(params: &PmiBuildParams) -> u64 {
    params_fingerprint_at(params, FORMAT_VERSION)
}

/// The fingerprint as computed by a specific format version: the version
/// constant is mixed into the hash, so a v1 snapshot's stored fingerprint
/// must be verified with the v1 formula.
fn params_fingerprint_at(params: &PmiBuildParams, version: u32) -> u64 {
    let f = &params.features;
    let b = &params.bounds;
    derive_seed(&[
        u64::from(version),
        f.max_l as u64,
        f.alpha.to_bits(),
        f.beta.to_bits(),
        f.gamma.to_bits(),
        f.max_features as u64,
        f.max_embeddings as u64,
        b.max_embeddings as u64,
        b.max_cuts as u64,
        disjointness_tag(b.disjointness) as u64,
        u64::from(b.use_conditional),
        u64::from(b.tighten_with_clique),
        b.mc.tau.to_bits(),
        b.mc.xi.to_bits(),
        b.mc.max_samples as u64,
        params.seed,
    ])
}

fn disjointness_tag(rule: DisjointnessRule) -> u8 {
    match rule {
        DisjointnessRule::TableDisjoint => 0,
        DisjointnessRule::EdgeDisjoint => 1,
    }
}

fn disjointness_from_tag(tag: u8) -> Result<DisjointnessRule, SnapshotError> {
    match tag {
        0 => Ok(DisjointnessRule::TableDisjoint),
        1 => Ok(DisjointnessRule::EdgeDisjoint),
        other => Err(SnapshotError::Corrupt(format!(
            "unknown disjointness rule tag {other}"
        ))),
    }
}

/// Byte length of the fixed v1/v2 header (magic + version + fingerprint +
/// params + build seconds + churn counter); everything after it counts as
/// payload for `PmiStats::size_bytes`.
pub(crate) fn header_len() -> usize {
    8 + 4 + 8 + PARAMS_LEN + 8 + 8
}

/// Byte length of the fixed v3 prefix (magic + version + fingerprint +
/// head-length field + params + build seconds); everything after it counts
/// as payload for `PmiStats::size_bytes`.
pub(crate) fn header_len_v3() -> usize {
    8 + 4 + 8 + 8 + PARAMS_LEN + 8
}

/// Fixed encoded size of `PmiBuildParams`.
const PARAMS_LEN: usize = 6 * 8 /* feature params */
    + 2 * 8 + 3 /* bounds caps + three flag bytes */
    + 2 * 8 + 8 /* monte-carlo */
    + 2 * 8 /* threads + seed */;

/// Encodes an index: format v3 with one segment, or format v1 when it has no
/// S-Index to store.
pub(crate) fn encode(parts: &PartsRef<'_>) -> Vec<u8> {
    debug_assert_eq!(parts.supports.len(), parts.features.len());
    match parts.sindex {
        Some(sindex) => encode_v3(parts, sindex),
        None => encode_v1(parts),
    }
}

/// Encodes the legacy single-segment layout at format v1 (no S-Index
/// section).
fn encode_v1(parts: &PartsRef<'_>) -> Vec<u8> {
    let mut w = Writer::with_capacity(header_len() + 256);
    w.bytes(&MAGIC);
    w.u32(FORMAT_V1);
    w.u64(params_fingerprint_at(parts.params, FORMAT_V1));
    encode_params(&mut w, parts.params);
    w.f64(parts.build_seconds);
    w.u64(parts.churn as u64);
    encode_salts(&mut w, parts.graph_salts);
    w.u64(parts.features.len() as u64);
    for (f, support) in parts.features.iter().zip(parts.supports.iter()) {
        encode_feature_graph(&mut w, &f.graph);
        w.u32(support.len() as u32);
        for &gi in support {
            w.u32(gi);
        }
        w.f64(f.frequency);
        w.f64(f.discriminativity);
    }
    encode_matrix(&mut w, parts.matrix);
    w.out
}

/// Decodes a snapshot of any readable format version.
pub(crate) fn decode(bytes: &[u8]) -> Result<PmiParts, SnapshotError> {
    let mut r = Reader::new(bytes);
    if r.bytes(8)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if !matches!(version, FORMAT_V1 | FORMAT_V2 | FORMAT_VERSION) {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let stored_fingerprint = r.u64()?;
    // v3 records the head length between the fingerprint and the parameters.
    let head_len = if version == FORMAT_VERSION {
        Some(r.u64()? as usize)
    } else {
        None
    };
    let params = decode_params(&mut r)?;
    if params_fingerprint_at(&params, version) != stored_fingerprint {
        return Err(SnapshotError::Corrupt(
            "build-parameter fingerprint does not match the stored parameters".into(),
        ));
    }
    let build_seconds = r.f64()?;
    match head_len {
        Some(head_len) => decode_v3(&mut r, head_len, params, build_seconds),
        None => decode_legacy(&mut r, version, params, build_seconds),
    }
}

/// Decodes the v1/v2 payload (everything after the build seconds).
fn decode_legacy(
    r: &mut Reader,
    version: u32,
    params: PmiBuildParams,
    build_seconds: f64,
) -> Result<PmiParts, SnapshotError> {
    let churn = r.u64()? as usize;
    let graph_salts = decode_salts(r)?;
    let graph_count = graph_salts.len();
    // The smallest possible encoded feature (empty name/vertices/edges/support)
    // is 32 bytes; using that as the per-element floor keeps a corrupt count
    // from pre-allocating far beyond the file size.
    let feature_count = r.len_prefixed(32)?;
    let mut features = Vec::with_capacity(feature_count);
    let mut supports = Vec::with_capacity(feature_count);
    for id in 0..feature_count {
        let graph = decode_feature_graph(r, id)?;
        let support_len = r.len_prefixed32(4)?;
        let mut support = Vec::with_capacity(support_len);
        for _ in 0..support_len {
            let gi = r.u32()?;
            if gi as usize >= graph_count {
                return Err(SnapshotError::Corrupt(format!(
                    "feature {id}: support references graph {gi} of {graph_count}"
                )));
            }
            support.push(gi);
        }
        supports.push(support);
        features.push(decode_feature_scores(r, id, graph)?);
    }
    let matrix = decode_matrix(r, graph_count, feature_count)?;
    let sindex = if version >= FORMAT_V2 {
        let summaries = decode_summaries(r, graph_count)?;
        Some(StructuralIndex::from_summaries(summaries))
    } else {
        None
    };
    if !r.is_empty() {
        return Err(SnapshotError::Corrupt(
            "trailing bytes after the final section".into(),
        ));
    }
    Ok(PmiParts {
        params,
        build_seconds,
        churn,
        graph_salts,
        features,
        supports,
        matrix,
        sindex,
    })
}

// ---------------------------------------------------------------------------
// Format v3: segments behind a head.
//
// ```text
// magic 8 | version u32 = 3 | fingerprint u64 | head_len u64
// params (fixed width) | build_seconds f64
// ── head payload ──────────────────────────────────────────────────────────
// segment_count u64
// table: per segment { churn u64, offset u64, length u64 }   (absolute bytes)
// salts:    u64 count + u64 content salt per graph
// features: u64 count + per feature: graph, support COUNT u32,
//           frequency f64, discriminativity f64
// ── segments (contiguous, tiling [head_len, file_len)) ────────────────────
// per segment: matrix (entry count, CSR offsets over LOCAL columns, ids,
//              bounds), per-feature LOCAL support lists, member summaries
// ```
//
// The writer emits one segment, whose local ids are the global graph ids.
// A file with several segments was written by a sharded index: graph `g`
// belongs to shard `shard_of(salt[g], segment_count)`, its local id is its
// rank among that shard's members, and membership is not stored but
// re-derived from the salts.  `decode_v3` merges such segments back into the
// global layout.

fn encode_v3(parts: &PartsRef<'_>, sindex: &StructuralIndex) -> Vec<u8> {
    let mut w = Writer::with_capacity(header_len_v3() + 256);
    w.bytes(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u64(params_fingerprint_at(parts.params, FORMAT_VERSION));
    let head_len_pos = w.out.len();
    w.u64(0); // head_len, patched once the head is complete
    encode_params(&mut w, parts.params);
    w.f64(parts.build_seconds);

    w.u64(1); // segment count
    let table_pos = w.out.len();
    w.u64(parts.churn as u64);
    w.u64(0); // offset, patched below
    w.u64(0); // length, patched below
    encode_salts(&mut w, parts.graph_salts);
    w.u64(parts.features.len() as u64);
    for (f, support) in parts.features.iter().zip(parts.supports.iter()) {
        encode_feature_graph(&mut w, &f.graph);
        w.u32(support.len() as u32);
        w.f64(f.frequency);
        w.f64(f.discriminativity);
    }
    let head_len = w.out.len();
    w.out[head_len_pos..head_len_pos + 8].copy_from_slice(&(head_len as u64).to_le_bytes());

    encode_matrix(&mut w, parts.matrix);
    for support in parts.supports.iter() {
        w.u32(support.len() as u32);
        for &g in support {
            w.u32(g);
        }
    }
    w.u64(sindex.graph_count() as u64);
    for summary in sindex.summary_views() {
        encode_summary(&mut w, summary);
    }
    let len = (w.out.len() - head_len) as u64;
    w.out[table_pos + 8..table_pos + 16].copy_from_slice(&(head_len as u64).to_le_bytes());
    w.out[table_pos + 16..table_pos + 24].copy_from_slice(&len.to_le_bytes());
    w.out
}

/// Upper limit on a v3 file's segment count: far above any shard count the
/// engine ever wrote, but low enough that a corrupt or hostile count cannot
/// make the decoder allocate absurd per-segment state.
const MAX_SHARDS: usize = 64;

/// Salt folded into the hash so the shard assignment of a multi-segment file
/// is independent of every other consumer of the content salts.
const SHARD_SALT: u64 = 0x7368_6172_6421_9e37; // "shard!"

/// The shard (segment) a graph with content salt `salt` was written to in a
/// file with `shard_count` segments.
fn shard_of(salt: u64, shard_count: usize) -> usize {
    (mix64(salt ^ SHARD_SALT) % shard_count as u64) as usize
}

/// Per shard the member graph ids, ascending: row `s` lists the graphs whose
/// columns segment `s` stores, in local-id order.
fn members_of(salts: &[u64], shard_count: usize) -> Vec<Vec<u32>> {
    let mut members = vec![Vec::new(); shard_count];
    for (g, &salt) in salts.iter().enumerate() {
        members[shard_of(salt, shard_count)].push(g as u32);
    }
    members
}

/// One decoded segment of a v3 snapshot, over local member ids.
struct Segment {
    matrix: SparseMatrix,
    supports: Vec<Vec<u32>>,
    summaries: Vec<StructuralSummary>,
}

/// Decodes the v3 payload (everything after the build seconds): the head,
/// then every segment in table order, merged into the global layout.
fn decode_v3(
    r: &mut Reader,
    head_len: usize,
    params: PmiBuildParams,
    build_seconds: f64,
) -> Result<PmiParts, SnapshotError> {
    let shard_count = r.len_prefixed(24)?;
    if shard_count == 0 || shard_count > MAX_SHARDS {
        return Err(SnapshotError::Corrupt(format!(
            "shard count {shard_count} outside 1..={MAX_SHARDS}"
        )));
    }
    let mut churn = 0usize;
    let mut table = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        churn = churn.saturating_add(r.u64()? as usize);
        let offset = r.u64()?;
        let len = r.u64()?;
        table.push((offset, len));
    }
    let graph_salts = decode_salts(r)?;
    let graph_count = graph_salts.len();
    // The smallest v3 feature head record (empty name/vertices/edges) is
    // 32 bytes.
    let feature_count = r.len_prefixed(32)?;
    let mut features = Vec::with_capacity(feature_count);
    let mut support_counts = Vec::with_capacity(feature_count);
    for id in 0..feature_count {
        let graph = decode_feature_graph(r, id)?;
        support_counts.push(r.u32()? as usize);
        features.push(decode_feature_scores(r, id, graph)?);
    }
    if r.pos != head_len {
        return Err(SnapshotError::Corrupt(format!(
            "head ends at byte {} but the header claims {head_len}",
            r.pos
        )));
    }
    let members = members_of(&graph_salts, shard_count);
    let mut segments = Vec::with_capacity(shard_count);
    let mut expected = head_len as u64;
    for (s, &(offset, len)) in table.iter().enumerate() {
        if offset != expected {
            return Err(SnapshotError::Corrupt(format!(
                "segment {s} starts at byte {offset}, expected {expected} \
                 (segments must tile the file contiguously)"
            )));
        }
        let end = offset.checked_add(len).filter(|&e| e <= r.buf.len() as u64);
        let Some(end) = end else {
            return Err(SnapshotError::Corrupt(format!(
                "segment {s} ({offset}+{len} bytes) overruns the {}-byte snapshot",
                r.buf.len()
            )));
        };
        let mut seg = Reader::new(&r.buf[offset as usize..end as usize]);
        segments.push(
            decode_segment(&mut seg, members[s].len(), feature_count)
                .map_err(|e| in_segment(s, e))?,
        );
        expected = end;
    }
    if expected != r.buf.len() as u64 {
        return Err(SnapshotError::Corrupt(
            "trailing bytes after the final segment".into(),
        ));
    }
    let (matrix, supports, summaries) =
        merge_segments(&members, segments, graph_count, feature_count);
    for (id, (support, &count)) in supports.iter().zip(&support_counts).enumerate() {
        if support.len() != count {
            return Err(SnapshotError::Corrupt(format!(
                "feature {id}: head records {count} supporting graphs, segments hold {}",
                support.len()
            )));
        }
    }
    Ok(PmiParts {
        params,
        build_seconds,
        churn,
        graph_salts,
        features,
        supports,
        matrix,
        sindex: Some(StructuralIndex::from_summaries(summaries)),
    })
}

/// Prefixes a segment's decode error with the segment number.
fn in_segment(s: usize, e: SnapshotError) -> SnapshotError {
    match e {
        SnapshotError::Corrupt(why) => SnapshotError::Corrupt(format!("segment {s}: {why}")),
        other => other,
    }
}

/// Decodes one segment over `member_count` local ids.
fn decode_segment(
    r: &mut Reader,
    member_count: usize,
    feature_count: usize,
) -> Result<Segment, SnapshotError> {
    let matrix = decode_matrix(r, member_count, feature_count)?;
    let mut supports = Vec::with_capacity(feature_count);
    for fi in 0..feature_count {
        let n = r.len_prefixed32(4)?;
        let mut support = Vec::with_capacity(n);
        for _ in 0..n {
            let l = r.u32()?;
            if l as usize >= member_count {
                return Err(SnapshotError::Corrupt(format!(
                    "feature {fi} support references member {l} of {member_count}"
                )));
            }
            support.push(l);
        }
        supports.push(support);
    }
    let summaries = decode_summaries(r, member_count)?;
    if !r.is_empty() {
        return Err(SnapshotError::Corrupt(
            "trailing bytes after the segment".into(),
        ));
    }
    Ok(Segment {
        matrix,
        supports,
        summaries,
    })
}

/// Merges decoded segments into the global layout: local id `l` of shard
/// `s` is graph `members[s][l]`.  The inverse of the shard partition the
/// file was written with; one segment (`members[0] == 0..n`) merges to
/// itself.
fn merge_segments(
    members: &[Vec<u32>],
    segments: Vec<Segment>,
    graph_count: usize,
    feature_count: usize,
) -> (SparseMatrix, Vec<Vec<u32>>, Vec<StructuralSummary>) {
    let mut locator = vec![(0usize, 0usize); graph_count];
    for (s, m) in members.iter().enumerate() {
        for (l, &g) in m.iter().enumerate() {
            locator[g as usize] = (s, l);
        }
    }
    let mut matrix = SparseMatrix::new();
    for &(s, l) in &locator {
        matrix.push_column(segments[s].matrix.column(l));
    }
    let mut supports = Vec::with_capacity(feature_count);
    for fi in 0..feature_count {
        let mut support: Vec<u32> = segments
            .iter()
            .zip(members)
            .flat_map(|(seg, m)| seg.supports[fi].iter().map(|&l| m[l as usize]))
            .collect();
        support.sort_unstable();
        supports.push(support);
    }
    let mut slots: Vec<Option<StructuralSummary>> = (0..graph_count).map(|_| None).collect();
    for (seg, m) in segments.into_iter().zip(members) {
        for (summary, &g) in seg.summaries.into_iter().zip(m) {
            slots[g as usize] = Some(summary);
        }
    }
    (matrix, supports, slots.into_iter().flatten().collect())
}

fn encode_salts(w: &mut Writer, salts: &[u64]) {
    w.u64(salts.len() as u64);
    for &s in salts {
        w.u64(s);
    }
}

fn decode_salts(r: &mut Reader) -> Result<Vec<u64>, SnapshotError> {
    let count = r.len_prefixed(8)?;
    let mut salts = Vec::with_capacity(count);
    for _ in 0..count {
        salts.push(r.u64()?);
    }
    Ok(salts)
}

fn encode_matrix(w: &mut Writer, m: &SparseMatrix) {
    w.u64(m.feature_ids().len() as u64);
    for &o in m.offsets() {
        w.u64(o as u64);
    }
    for &fi in m.feature_ids() {
        w.u32(fi);
    }
    for &l in m.lowers() {
        w.f64(l);
    }
    for &u in m.uppers() {
        w.f64(u);
    }
}

/// Decodes a matrix section over `columns` graph columns.
fn decode_matrix(
    r: &mut Reader,
    columns: usize,
    feature_count: usize,
) -> Result<SparseMatrix, SnapshotError> {
    let entry_count = r.len_prefixed(20)?;
    let mut offsets = Vec::with_capacity(columns + 1);
    for _ in 0..columns + 1 {
        offsets.push(r.u64()? as usize);
    }
    let mut feature_ids = Vec::with_capacity(entry_count);
    for _ in 0..entry_count {
        let fi = r.u32()?;
        if fi as usize >= feature_count {
            return Err(SnapshotError::Corrupt(format!(
                "matrix entry references feature {fi} but only {feature_count} features exist"
            )));
        }
        feature_ids.push(fi);
    }
    let mut lowers = Vec::with_capacity(entry_count);
    for _ in 0..entry_count {
        lowers.push(r.f64()?);
    }
    let mut uppers = Vec::with_capacity(entry_count);
    for _ in 0..entry_count {
        uppers.push(r.f64()?);
    }
    SparseMatrix::from_raw(offsets, feature_ids, lowers, uppers).map_err(SnapshotError::Corrupt)
}

fn encode_summary(w: &mut Writer, s: SummaryView<'_>) {
    w.u32(s.vertex_count() as u32);
    w.u32(s.edge_count() as u32);
    w.u32(s.vertex_labels().len() as u32);
    for &(l, c) in s.vertex_labels() {
        w.u32(l.0);
        w.u32(c);
    }
    w.u32(s.edge_signatures().len() as u32);
    for &((el, la, lb), c) in s.edge_signatures() {
        w.u32(el.0);
        w.u32(la.0);
        w.u32(lb.0);
        w.u32(c);
    }
    w.u32(s.degree_sequence().len() as u32);
    for &d in s.degree_sequence() {
        w.u32(d);
    }
}

/// Decodes a summary section that must hold exactly `expected` summaries.
fn decode_summaries(
    r: &mut Reader,
    expected: usize,
) -> Result<Vec<StructuralSummary>, SnapshotError> {
    // The smallest encoded summary (empty graph) is 20 bytes.
    let count = r.len_prefixed(20)?;
    if count != expected {
        return Err(SnapshotError::Corrupt(format!(
            "{count} S-Index summaries but {expected} graphs"
        )));
    }
    let mut summaries = Vec::with_capacity(count);
    for gi in 0..count {
        summaries.push(decode_summary(r, gi)?);
    }
    Ok(summaries)
}

fn decode_summary(r: &mut Reader, gi: usize) -> Result<StructuralSummary, SnapshotError> {
    let corrupt = |why: String| SnapshotError::Corrupt(format!("S-Index summary {gi}: {why}"));
    let vertex_count = r.u32()?;
    let edge_count = r.u32()?;
    let label_count = r.len_prefixed32(8)?;
    let mut vertex_labels = Vec::with_capacity(label_count);
    for _ in 0..label_count {
        let l = Label(r.u32()?);
        let c = r.u32()?;
        vertex_labels.push((l, c));
    }
    let sig_count = r.len_prefixed32(16)?;
    let mut edge_signatures: Vec<(EdgeSignature, u32)> = Vec::with_capacity(sig_count);
    for _ in 0..sig_count {
        let sig = (Label(r.u32()?), Label(r.u32()?), Label(r.u32()?));
        let c = r.u32()?;
        edge_signatures.push((sig, c));
    }
    let degree_count = r.len_prefixed32(4)?;
    let mut degree_sequence = Vec::with_capacity(degree_count);
    for _ in 0..degree_count {
        degree_sequence.push(r.u32()?);
    }
    StructuralSummary::from_parts(
        vertex_count,
        edge_count,
        vertex_labels,
        edge_signatures,
        degree_sequence,
    )
    .map_err(corrupt)
}

/// Writes `bytes` to `path` atomically enough for our purposes (truncate +
/// write + flush via `std::fs::write`).
pub(crate) fn write_file(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    std::fs::write(path, bytes).map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))
}

pub(crate) fn read_file(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    std::fs::read(path).map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))
}

fn encode_params(w: &mut Writer, p: &PmiBuildParams) {
    let f = &p.features;
    w.u64(f.max_l as u64);
    w.f64(f.alpha);
    w.f64(f.beta);
    w.f64(f.gamma);
    w.u64(f.max_features as u64);
    w.u64(f.max_embeddings as u64);
    let b = &p.bounds;
    w.u64(b.max_embeddings as u64);
    w.u64(b.max_cuts as u64);
    w.u8(disjointness_tag(b.disjointness));
    w.u8(u8::from(b.use_conditional));
    w.u8(u8::from(b.tighten_with_clique));
    w.f64(b.mc.tau);
    w.f64(b.mc.xi);
    w.u64(b.mc.max_samples as u64);
    w.u64(p.threads as u64);
    w.u64(p.seed);
}

fn decode_params(r: &mut Reader) -> Result<PmiBuildParams, SnapshotError> {
    let mut params = PmiBuildParams::default();
    let f = &mut params.features;
    f.max_l = r.u64()? as usize;
    f.alpha = r.f64()?;
    f.beta = r.f64()?;
    f.gamma = r.f64()?;
    f.max_features = r.u64()? as usize;
    f.max_embeddings = r.u64()? as usize;
    let b = &mut params.bounds;
    b.max_embeddings = r.u64()? as usize;
    b.max_cuts = r.u64()? as usize;
    b.disjointness = disjointness_from_tag(r.u8()?)?;
    b.use_conditional = r.u8()? != 0;
    b.tighten_with_clique = r.u8()? != 0;
    b.mc = MonteCarloConfig {
        tau: r.f64()?,
        xi: r.f64()?,
        max_samples: r.u64()? as usize,
    };
    params.threads = r.u64()? as usize;
    params.seed = r.u64()?;
    Ok(params)
}

fn encode_feature_graph(w: &mut Writer, g: &Graph) {
    w.u32(g.name().len() as u32);
    w.bytes(g.name().as_bytes());
    w.u32(g.vertex_count() as u32);
    for &l in g.vertex_labels() {
        w.u32(l.0);
    }
    w.u32(g.edge_count() as u32);
    for (_, e) in g.edge_entries() {
        w.u32(e.u.0);
        w.u32(e.v.0);
        w.u32(e.label.0);
    }
}

fn decode_feature_graph(r: &mut Reader, id: usize) -> Result<Graph, SnapshotError> {
    let name_len = r.len_prefixed32(1)?;
    let name = String::from_utf8(r.bytes(name_len)?.to_vec())
        .map_err(|_| SnapshotError::Corrupt(format!("feature {id}: name is not UTF-8")))?;
    let mut graph = Graph::with_name(name);
    let vertex_count = r.len_prefixed32(4)?;
    for _ in 0..vertex_count {
        graph.add_vertex(Label(r.u32()?));
    }
    let edge_count = r.len_prefixed32(12)?;
    for _ in 0..edge_count {
        let (u, v, l) = (r.u32()?, r.u32()?, r.u32()?);
        graph
            .add_edge(VertexId(u), VertexId(v), Label(l))
            .map_err(|e| SnapshotError::Corrupt(format!("feature {id}: invalid edge: {e}")))?;
    }
    Ok(graph)
}

/// Reads the frequency and discriminativity that close a feature record.
fn decode_feature_scores(
    r: &mut Reader,
    id: usize,
    graph: Graph,
) -> Result<Feature, SnapshotError> {
    Ok(Feature {
        id,
        graph,
        support: Vec::new(),
        frequency: r.f64()?,
        discriminativity: r.f64()?,
    })
}

// ---------------------------------------------------------------------------
// Little-endian writer/reader primitives.

struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn with_capacity(n: usize) -> Writer {
        Writer {
            out: Vec::with_capacity(n),
        }
    }
    fn u8(&mut self, x: u8) {
        self.out.push(x);
    }
    fn u32(&mut self, x: u32) {
        self.out.extend_from_slice(&x.to_le_bytes());
    }
    fn u64(&mut self, x: u64) {
        self.out.extend_from_slice(&x.to_le_bytes());
    }
    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.out.extend_from_slice(b);
    }
}

/// Converts a length-checked slice into a fixed-size array with a typed
/// error instead of a panic path.  The mismatch arm is unreachable as long as
/// every caller pairs `fixed::<N>` with an `N`-byte slice, but snapshot
/// loading is a hard no-panic zone (`panic-in-library`): a future refactor
/// that breaks the pairing must surface as a [`SnapshotError::Corrupt`] a
/// caller can handle, never as a process abort mid-load.
fn fixed<const N: usize>(b: &[u8]) -> Result<[u8; N], SnapshotError> {
    b.try_into().map_err(|_| {
        SnapshotError::Corrupt(format!(
            "internal: expected a {N}-byte field, got {} bytes",
            b.len()
        ))
    })
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Corrupt(format!(
                "truncated: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes(fixed::<4>(b)?))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(fixed::<8>(b)?))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64` length prefix and sanity-checks it against the remaining
    /// bytes (each element needs at least `min_elem_bytes`), so a corrupt
    /// length cannot trigger a giant allocation.
    fn len_prefixed(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(SnapshotError::Corrupt(format!(
                "length prefix {n} exceeds the remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// `u32` variant of [`Reader::len_prefixed`].
    fn len_prefixed32(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(SnapshotError::Corrupt(format!(
                "length prefix {n} exceeds the remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sip_bounds::SipBounds;
    use pgs_graph::model::GraphBuilder;

    /// A format-v2 snapshot written by the retired v2 encoder (the golden
    /// fixture of `tests/snapshot_compat.rs`).
    const V2_FIXTURE: &[u8] = include_bytes!("../../../tests/fixtures/pmi_v2.bin");

    /// A format-v1 snapshot of the same index.
    const V1_FIXTURE: &[u8] = include_bytes!("../../../tests/fixtures/pmi_v1.bin");

    /// A format-v3 snapshot of the same index as the writer emits it: one
    /// segment.
    const V3_ONE_SEGMENT: &[u8] = include_bytes!("../../../tests/fixtures/pmi_v3_one_segment.bin");

    /// A format-v3 snapshot with three segments (a 32-graph index written by
    /// a 3-shard build, the golden fixture of `tests/arena_layout.rs`).
    const V3_THREE_SEGMENTS: &[u8] = include_bytes!("../../../tests/fixtures/pmi_v3_prearena.bin");

    fn parts_ref(parts: &PmiParts) -> PartsRef<'_> {
        PartsRef {
            params: &parts.params,
            build_seconds: parts.build_seconds,
            churn: parts.churn,
            graph_salts: &parts.graph_salts,
            features: &parts.features,
            supports: &parts.supports,
            matrix: &parts.matrix,
            sindex: parts.sindex.as_ref(),
        }
    }

    /// Encoded length of an S-Index's summaries (the v2 section after its
    /// summary count).
    fn summaries_len(sindex: &StructuralIndex) -> usize {
        let mut w = Writer::with_capacity(0);
        for summary in sindex.summary_views() {
            encode_summary(&mut w, summary);
        }
        w.out.len()
    }

    fn sample_parts() -> PmiParts {
        let fg = GraphBuilder::new()
            .name("f0")
            .vertices(&[0, 1])
            .edge(0, 1, 9)
            .build();
        let mut matrix = SparseMatrix::new();
        matrix.push_column(vec![(
            0,
            SipBounds {
                lower: 0.25,
                upper: 0.75,
            },
        )]);
        matrix.push_column(vec![]);
        PmiParts {
            params: PmiBuildParams::default(),
            build_seconds: 0.125,
            churn: 3,
            graph_salts: vec![11, 22],
            features: vec![Feature {
                id: 0,
                graph: fg,
                support: Vec::new(),
                frequency: 0.5,
                discriminativity: 1.0,
            }],
            supports: vec![vec![0u32]],
            matrix,
            sindex: None,
        }
    }

    #[test]
    fn v1_snapshots_encode_and_decode_without_an_sindex() {
        let parts = sample_parts();
        let v1 = encode(&parts_ref(&parts));
        let back = decode(&v1).unwrap();
        assert!(back.sindex.is_none());
        assert_eq!(back.build_seconds, parts.build_seconds);
        assert_eq!(back.churn, parts.churn);
        assert_eq!(back.graph_salts, parts.graph_salts);
        assert_eq!(back.matrix, parts.matrix);
        assert_eq!(back.features.len(), 1);
        assert_eq!(back.features[0].graph, parts.features[0].graph);
        assert_eq!(back.features[0].graph.name(), "f0");
        assert_eq!(back.supports, vec![vec![0]]);
        assert_eq!(back.features[0].frequency, 0.5);
        // The v1 fingerprint is the v1 formula, not the current one.
        assert_eq!(
            u64::from_le_bytes(v1[12..20].try_into().unwrap()),
            params_fingerprint_at(&parts.params, FORMAT_V1)
        );
    }

    #[test]
    fn v2_fixture_decodes_with_one_summary_per_graph() {
        let parts = decode(V2_FIXTURE).unwrap();
        let sindex = parts.sindex.as_ref().expect("v2 carries an S-Index");
        assert_eq!(sindex.graph_count(), parts.graph_salts.len());
        assert_eq!(parts.matrix.column_count(), parts.graph_salts.len());
        // v2 is v1 plus the S-Index section.
        let v1 = decode(V1_FIXTURE).unwrap();
        assert_eq!(parts.graph_salts, v1.graph_salts);
        assert_eq!(parts.matrix, v1.matrix);
        let sindex_len = summaries_len(sindex);
        assert_eq!(V2_FIXTURE.len(), V1_FIXTURE.len() + 8 + sindex_len);
    }

    #[test]
    fn summary_count_mismatch_is_rejected() {
        let parts = decode(V2_FIXTURE).unwrap();
        let sindex = parts.sindex.as_ref().unwrap();
        let sindex_len = summaries_len(sindex);
        // The summary count is the u64 right before the summaries.
        let pos = V2_FIXTURE.len() - sindex_len - 8;
        let mut bytes = V2_FIXTURE.to_vec();
        bytes[pos..pos + 8].copy_from_slice(&(sindex.graph_count() as u64 - 1).to_le_bytes());
        match decode(&bytes) {
            Err(SnapshotError::Corrupt(why)) => assert!(why.contains("summaries")),
            other => panic!("expected Corrupt, got {:?}", other.err()),
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = V2_FIXTURE.to_vec();
        bytes[0] ^= 0xFF;
        assert!(matches!(decode(&bytes), Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = V2_FIXTURE.to_vec();
        bytes[8] = 0xEE;
        match decode(&bytes) {
            Err(SnapshotError::UnsupportedVersion(_)) => {}
            other => panic!("expected UnsupportedVersion, got {:?}", other.err()),
        }
    }

    #[test]
    fn truncation_is_rejected_everywhere() {
        for bytes in [V1_FIXTURE, V2_FIXTURE, V3_ONE_SEGMENT, V3_THREE_SEGMENTS] {
            for cut in 0..bytes.len() {
                let err = decode(&bytes[..cut]).err().expect("truncation must fail");
                assert!(
                    matches!(err, SnapshotError::Corrupt(_) | SnapshotError::BadMagic),
                    "cut at {cut}: unexpected error {err:?}"
                );
            }
        }
    }

    #[test]
    fn fixed_width_fields_error_instead_of_panicking() {
        // Regression: the fixed-width LE field reads (`Reader::u32`/`u64`)
        // used to be `try_into().expect(…)` panic paths; malformed input must
        // surface as typed errors instead.
        match fixed::<4>(&[1, 2, 3]) {
            Err(SnapshotError::Corrupt(why)) => assert!(why.contains("4-byte")),
            other => panic!("expected Corrupt, got {:?}", other.err()),
        }
        assert!(matches!(
            Reader::new(&[0; 3]).u32(),
            Err(SnapshotError::Corrupt(_))
        ));
        assert!(matches!(
            Reader::new(&[0; 7]).u64(),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let mut bytes = V2_FIXTURE.to_vec();
        // Flip a bit inside the stored parameters (after magic+version+fprint).
        let off = 8 + 4 + 8 + 2;
        bytes[off] ^= 0x01;
        match decode(&bytes) {
            Err(SnapshotError::Corrupt(why)) => assert!(why.contains("fingerprint")),
            other => panic!("expected Corrupt(fingerprint), got {:?}", other.err()),
        }
    }

    #[test]
    fn fingerprint_ignores_threads() {
        let a = PmiBuildParams {
            threads: 1,
            ..PmiBuildParams::default()
        };
        let mut b = PmiBuildParams {
            threads: 8,
            ..PmiBuildParams::default()
        };
        assert_eq!(params_fingerprint(&a), params_fingerprint(&b));
        b.seed = 999;
        assert_ne!(params_fingerprint(&a), params_fingerprint(&b));
    }

    #[test]
    fn v3_segments_merge_into_the_global_layout() {
        // One segment re-encodes byte for byte.
        let one = decode(V3_ONE_SEGMENT).unwrap();
        assert_eq!(encode(&parts_ref(&one)), V3_ONE_SEGMENT);

        // Three segments merge into one global layout: one column, one
        // summary and one churn counter for every graph, ascending supports.
        let merged = decode(V3_THREE_SEGMENTS).unwrap();
        let n = merged.graph_salts.len();
        assert_eq!(n, 32);
        assert_eq!(merged.matrix.column_count(), n);
        assert_eq!(merged.sindex.as_ref().unwrap().graph_count(), n);
        assert_eq!(merged.supports.len(), merged.features.len());
        for support in merged.supports.iter() {
            assert!(support.windows(2).all(|w| w[0] < w[1]));
        }
        // Re-encoding writes one segment, which decodes to the same parts
        // and re-encodes to itself.
        let bytes = encode(&parts_ref(&merged));
        assert!(bytes.len() < V3_THREE_SEGMENTS.len());
        let again = decode(&bytes).unwrap();
        assert_eq!(again.graph_salts, merged.graph_salts);
        assert_eq!(again.matrix, merged.matrix);
        assert_eq!(again.supports, merged.supports);
        assert_eq!(again.sindex, merged.sindex);
        assert_eq!(again.churn, merged.churn);
        assert_eq!(encode(&parts_ref(&again)), bytes);
    }

    /// Byte offset of the shard count (right after the fixed v3 prefix).
    const SHARD_COUNT_AT: usize = 8 + 4 + 8 + 8 + PARAMS_LEN + 8;

    #[test]
    fn v3_rejects_zero_and_oversized_shard_counts() {
        for bytes in [V3_ONE_SEGMENT, V3_THREE_SEGMENTS] {
            for count in [0u64, MAX_SHARDS as u64 + 1] {
                let mut bytes = bytes.to_vec();
                bytes[SHARD_COUNT_AT..SHARD_COUNT_AT + 8].copy_from_slice(&count.to_le_bytes());
                match decode(&bytes) {
                    Err(SnapshotError::Corrupt(why)) => assert!(why.contains("shard count")),
                    other => panic!("count {count}: expected Corrupt, got {:?}", other.err()),
                }
            }
        }
    }

    #[test]
    fn v3_rejects_a_non_contiguous_segment_table() {
        for bytes in [V3_ONE_SEGMENT, V3_THREE_SEGMENTS] {
            let mut bytes = bytes.to_vec();
            // The first segment's offset sits 8 bytes into the first table
            // entry, right after the shard count.
            let off = SHARD_COUNT_AT + 8 + 8;
            let stored = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
            bytes[off..off + 8].copy_from_slice(&(stored + 1).to_le_bytes());
            match decode(&bytes) {
                Err(SnapshotError::Corrupt(why)) => assert!(why.contains("contiguous")),
                other => panic!("expected Corrupt, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn v3_rejects_a_support_count_the_segments_do_not_hold() {
        let mut bytes = V3_ONE_SEGMENT.to_vec();
        // The last feature's support count closes the head, followed only by
        // its frequency and discriminativity.
        let head_len = u64::from_le_bytes(bytes[20..28].try_into().unwrap()) as usize;
        let off = head_len - 16 - 4;
        let stored = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        bytes[off..off + 4].copy_from_slice(&(stored + 1).to_le_bytes());
        match decode(&bytes) {
            Err(SnapshotError::Corrupt(why)) => assert!(why.contains("supporting graphs")),
            other => panic!("expected Corrupt, got {:?}", other.err()),
        }
    }

    #[test]
    fn display_messages() {
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
        assert!(SnapshotError::UnsupportedVersion(7)
            .to_string()
            .contains('7'));
        assert!(SnapshotError::Io("x".into()).to_string().contains('x'));
        assert!(SnapshotError::Corrupt("y".into()).to_string().contains('y'));
    }
}
