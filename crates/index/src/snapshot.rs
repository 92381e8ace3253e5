//! Versioned binary snapshot of the PMI (`Pmi::save` / `Pmi::load`).
//!
//! The paper builds the PMI offline precisely so query time never pays the
//! feature-mining + SIP-bound cost; a process that rebuilds the index on every
//! start pays it anyway.  The snapshot makes the index build-once/load-many.
//!
//! The current format (**v3**) is segmented: a fixed-width prefix and an
//! eagerly-readable head (per-shard churn/offset/length table, graph salts,
//! feature definitions) followed by one self-contained segment per shard
//! (that shard's sparse matrix columns, local support lists and member
//! summaries).  `Pmi::open` reads only the head — O(shards + graphs), not
//! O(bytes) — and materializes a segment the first time its shard is touched;
//! `Pmi::load` stays fully eager.  See the layout comment above the v3
//! section below.
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
//! it is given and refuses an index whose columns would not line up.  In v3
//! the salts also carry the shard layout — membership is re-derived via
//! [`crate::shard::members_of`], never stored.

use crate::feature::Feature;
use crate::pmi::PmiBuildParams;
use crate::sindex::StructuralIndex;
use crate::sip_bounds::DisjointnessRule;
use crate::storage::SparseMatrix;
use pgs_graph::arena::FlatVecVec;
use pgs_graph::model::{Graph, Label, VertexId};
use pgs_graph::parallel::derive_seed;
use pgs_graph::summary::{EdgeSignature, StructuralSummary, SummaryView};
use pgs_prob::montecarlo::MonteCarloConfig;
use std::fmt;
use std::path::Path;

/// Magic bytes opening every PMI snapshot.
pub const MAGIC: [u8; 8] = *b"PGS-PMI\0";

/// Current snapshot format version (v3: sharded segments behind a
/// fixed-width head + per-shard offset/length table, so `Pmi::open` can
/// materialize shards lazily).
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

/// The decoded parts of a snapshot, consumed by `Pmi`'s constructor.
pub(crate) struct PmiParts {
    pub params: PmiBuildParams,
    pub build_seconds: f64,
    pub churn: usize,
    pub graph_salts: Vec<u64>,
    pub features: Vec<Feature>,
    pub matrix: SparseMatrix,
    /// `None` for format-v1 snapshots (pre-S-Index).
    pub sindex: Option<StructuralIndex>,
}

/// A borrowed view of a single-segment index without an S-Index, consumed
/// by [`encode_v1`].  The features' own support lists are ignored: row `i`
/// of `supports` is feature `i`'s support.
pub(crate) struct V1PartsRef<'a> {
    pub params: &'a PmiBuildParams,
    pub build_seconds: f64,
    pub churn: usize,
    pub graph_salts: &'a [u64],
    pub features: &'a [Feature],
    pub supports: &'a FlatVecVec<u32>,
    pub matrix: &'a SparseMatrix,
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

/// Encoded size of one structural summary.
pub(crate) fn summary_len(s: SummaryView<'_>) -> usize {
    4 + 4
        + 4
        + 8 * s.vertex_labels().len()
        + 4
        + 16 * s.edge_signatures().len()
        + 4
        + 4 * s.degree_sequence().len()
}

/// Byte length of the fixed v1/v2 header (magic + version + fingerprint +
/// params + build seconds + churn counter); everything after it counts as
/// payload for `PmiStats::size_bytes`.
pub(crate) fn header_len() -> usize {
    8 + 4 + 8 + PARAMS_LEN + 8 + 8
}

/// Fixed encoded size of `PmiBuildParams`.
pub(crate) const PARAMS_LEN: usize = 6 * 8 /* feature params */
    + 2 * 8 + 3 /* bounds caps + three flag bytes */
    + 2 * 8 + 8 /* monte-carlo */
    + 2 * 8 /* threads + seed */;

/// Encoded size of a v3 feature head record (the graph, a global support
/// *count* instead of the per-graph support list, frequency and
/// discriminativity).
pub(crate) fn feature_head_len(f: &Feature) -> usize {
    feature_graph_len(f) + 4 + 8 + 8
}

fn feature_graph_len(f: &Feature) -> usize {
    4 + f.graph.name().len() + 4 + 4 * f.graph.vertex_count() + 4 + 12 * f.graph.edge_count()
}

/// Encoded size of one v1/v2 feature record when its support list would hold
/// `support` entries — lets the v1 size estimate work on an index whose
/// supports live in shard segments.
pub(crate) fn feature_len_with(f: &Feature, support: usize) -> usize {
    feature_graph_len(f) + 4 + 4 * support + 8 + 8
}

/// Encodes the legacy single-segment layout at format v1 (no S-Index
/// section).
pub(crate) fn encode_v1(parts: &V1PartsRef<'_>) -> Vec<u8> {
    debug_assert_eq!(parts.supports.len(), parts.features.len());
    let mut w = Writer::with_capacity(header_len() + 256);
    w.bytes(&MAGIC);
    w.u32(FORMAT_V1);
    w.u64(params_fingerprint_at(parts.params, FORMAT_V1));
    encode_params(&mut w, parts.params);
    w.f64(parts.build_seconds);
    w.u64(parts.churn as u64);

    w.u64(parts.graph_salts.len() as u64);
    for &s in parts.graph_salts {
        w.u64(s);
    }

    w.u64(parts.features.len() as u64);
    for (f, support) in parts.features.iter().zip(parts.supports.iter()) {
        encode_feature(&mut w, f, support);
    }

    let m = parts.matrix;
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
    w.out
}

pub(crate) fn decode(bytes: &[u8]) -> Result<PmiParts, SnapshotError> {
    let mut r = Reader::new(bytes);
    if r.bytes(8)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_V2 && version != FORMAT_V1 {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let stored_fingerprint = r.u64()?;
    let params = decode_params(&mut r)?;
    if params_fingerprint_at(&params, version) != stored_fingerprint {
        return Err(SnapshotError::Corrupt(
            "build-parameter fingerprint does not match the stored parameters".into(),
        ));
    }
    let build_seconds = r.f64()?;
    let churn = r.u64()? as usize;

    let salt_count = r.len_prefixed(8)?;
    let mut graph_salts = Vec::with_capacity(salt_count);
    for _ in 0..salt_count {
        graph_salts.push(r.u64()?);
    }

    // The smallest possible encoded feature (empty name/vertices/edges/support)
    // is 32 bytes; using that as the per-element floor keeps a corrupt count
    // from pre-allocating far beyond the file size.
    let feature_count = r.len_prefixed(32)?;
    let mut features = Vec::with_capacity(feature_count);
    for id in 0..feature_count {
        features.push(decode_feature(&mut r, id, graph_salts.len())?);
    }

    let entry_count = r.len_prefixed(20)?;
    let mut offsets = Vec::with_capacity(graph_salts.len() + 1);
    for _ in 0..graph_salts.len() + 1 {
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

    let sindex = if version >= FORMAT_V2 {
        // The smallest encoded summary (empty graph) is 20 bytes.
        let summary_count = r.len_prefixed(20)?;
        if summary_count != graph_salts.len() {
            return Err(SnapshotError::Corrupt(format!(
                "{summary_count} S-Index summaries but {} graph salts",
                graph_salts.len()
            )));
        }
        let mut summaries = Vec::with_capacity(summary_count);
        for gi in 0..summary_count {
            summaries.push(decode_summary(&mut r, gi)?);
        }
        Some(StructuralIndex::from_summaries(summaries))
    } else {
        None
    };

    if !r.is_empty() {
        return Err(SnapshotError::Corrupt(
            "trailing bytes after the final section".into(),
        ));
    }
    let matrix = SparseMatrix::from_raw(offsets, feature_ids, lowers, uppers)
        .map_err(SnapshotError::Corrupt)?;
    Ok(PmiParts {
        params,
        build_seconds,
        churn,
        graph_salts,
        features,
        matrix,
        sindex,
    })
}

// ---------------------------------------------------------------------------
// Format v3: sharded segments behind an eagerly-readable head.
//
// ```text
// magic 8 | version u32 = 3 | fingerprint u64 | head_len u64
// params (fixed width) | build_seconds f64
// ── head payload ──────────────────────────────────────────────────────────
// shard_count u64
// table: per shard { churn u64, offset u64, length u64 }   (absolute bytes)
// salts:    u64 count + u64 content salt per graph
// features: u64 count + per feature: graph, global support COUNT u32,
//           frequency f64, discriminativity f64
// ── segments (contiguous, tiling [head_len, file_len)) ────────────────────
// per shard: matrix (entry count, CSR offsets over LOCAL columns, ids,
//            bounds), per-feature LOCAL support lists, member summaries
// ```
//
// Shard membership is not stored: it is re-derived from the salts via
// `shard::members_of`, which is exactly how the index assigned it.  The head
// is everything `Pmi::open` reads; a segment is only decoded when its shard
// is first touched.

/// One decoded shard segment of a v3 snapshot.
pub(crate) struct SegmentParts {
    pub matrix: SparseMatrix,
    /// Per feature (row) the local member ids (ascending) passing the α
    /// filter, packed flat.
    pub supports: FlatVecVec<u32>,
    pub sindex: StructuralIndex,
}

/// A borrowed view of one shard segment, used by the v3 encoder.
pub(crate) struct SegmentRef<'a> {
    pub matrix: &'a SparseMatrix,
    pub supports: &'a FlatVecVec<u32>,
    pub sindex: &'a StructuralIndex,
}

/// The fully decoded parts of a v3 snapshot (the eager `Pmi::load` path).
pub(crate) struct ShardedParts {
    pub params: PmiBuildParams,
    pub build_seconds: f64,
    pub graph_salts: Vec<u64>,
    /// Support lists are empty: the per-shard segments hold them.
    pub features: Vec<Feature>,
    pub support_counts: Vec<usize>,
    pub shard_churn: Vec<usize>,
    pub segments: Vec<SegmentParts>,
}

/// A borrowed view of a sharded index, consumed by [`encode_v3`].
pub(crate) struct ShardedPartsRef<'a> {
    pub params: &'a PmiBuildParams,
    pub build_seconds: f64,
    pub graph_salts: &'a [u64],
    pub features: &'a [Feature],
    pub support_counts: &'a [usize],
    pub shard_churn: &'a [usize],
    pub segments: Vec<SegmentRef<'a>>,
}

/// The eagerly-read head of a v3 snapshot: everything except the segments,
/// plus the table telling a lazy reader where each segment lives.
pub(crate) struct V3Head {
    pub params: PmiBuildParams,
    pub build_seconds: f64,
    pub graph_salts: Vec<u64>,
    pub features: Vec<Feature>,
    pub support_counts: Vec<usize>,
    pub shard_churn: Vec<usize>,
    /// Per shard: absolute byte offset and length of its segment.
    pub table: Vec<(u64, u64)>,
}

/// Result of decoding a snapshot of any readable version.  Both variants are
/// boxed: the parts structs are hundreds of bytes and the value is
/// destructured exactly once per load.
pub(crate) enum AnyParts {
    /// Format v1/v2: one global segment.
    Legacy(Box<PmiParts>),
    /// Format v3: per-shard segments.
    V3(Box<ShardedParts>),
}

/// Result of peeking a snapshot file's head without touching segment bytes.
pub(crate) enum OpenedSnapshot {
    /// A v1/v2 file — no segment table, the caller must load it eagerly.
    Legacy,
    /// A v3 file: the decoded head, ready for lazy segment materialization.
    /// Boxed so the no-data `Legacy` variant stays pointer-sized.
    V3(Box<V3Head>),
}

/// Byte length of the fixed v3 prefix (magic + version + fingerprint +
/// head-length field + params + build seconds); everything after it counts
/// as payload for `PmiStats::size_bytes`.
pub(crate) fn header_len_v3() -> usize {
    8 + 4 + 8 + 8 + PARAMS_LEN + 8
}

pub(crate) fn encode_v3(parts: &ShardedPartsRef<'_>) -> Vec<u8> {
    let shard_count = parts.segments.len();
    debug_assert_eq!(parts.shard_churn.len(), shard_count);
    debug_assert_eq!(parts.support_counts.len(), parts.features.len());
    let mut w = Writer::with_capacity(header_len_v3() + 256);
    w.bytes(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u64(params_fingerprint_at(parts.params, FORMAT_VERSION));
    let head_len_pos = w.out.len();
    w.u64(0); // head_len, patched once the head is complete
    encode_params(&mut w, parts.params);
    w.f64(parts.build_seconds);

    w.u64(shard_count as u64);
    let table_pos = w.out.len();
    for &churn in parts.shard_churn {
        w.u64(churn as u64);
        w.u64(0); // offset, patched per segment
        w.u64(0); // length, patched per segment
    }
    w.u64(parts.graph_salts.len() as u64);
    for &s in parts.graph_salts {
        w.u64(s);
    }
    w.u64(parts.features.len() as u64);
    for (f, &count) in parts.features.iter().zip(parts.support_counts) {
        encode_feature_graph(&mut w, &f.graph);
        w.u32(count as u32);
        w.f64(f.frequency);
        w.f64(f.discriminativity);
    }
    let head_len = w.out.len() as u64;
    w.out[head_len_pos..head_len_pos + 8].copy_from_slice(&head_len.to_le_bytes());

    for (s, seg) in parts.segments.iter().enumerate() {
        let start = w.out.len();
        encode_segment(&mut w, seg);
        let len = (w.out.len() - start) as u64;
        let entry = table_pos + s * 24;
        w.out[entry + 8..entry + 16].copy_from_slice(&(start as u64).to_le_bytes());
        w.out[entry + 16..entry + 24].copy_from_slice(&len.to_le_bytes());
    }
    w.out
}

fn encode_segment(w: &mut Writer, seg: &SegmentRef<'_>) {
    let m = seg.matrix;
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
    for sup in seg.supports.iter() {
        w.u32(sup.len() as u32);
        for &l in sup {
            w.u32(l);
        }
    }
    w.u64(seg.sindex.graph_count() as u64);
    for summary in seg.sindex.summary_views() {
        encode_summary(w, summary);
    }
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

/// Decodes a snapshot of any readable format version.
pub(crate) fn decode_any(bytes: &[u8]) -> Result<AnyParts, SnapshotError> {
    match peek_version(bytes)? {
        FORMAT_VERSION => decode_v3(bytes).map(|parts| AnyParts::V3(Box::new(parts))),
        _ => decode(bytes).map(|parts| AnyParts::Legacy(Box::new(parts))),
    }
}

/// The format version of a snapshot byte string (after checking the magic).
fn peek_version(bytes: &[u8]) -> Result<u32, SnapshotError> {
    let mut r = Reader::new(bytes);
    if r.bytes(8)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION && version != FORMAT_V2 && version != FORMAT_V1 {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    Ok(version)
}

/// Decodes the v3 head from a reader positioned at byte 0.  On success the
/// reader sits exactly at `head_len` (the start of the first segment).
fn decode_v3_head(r: &mut Reader) -> Result<V3Head, SnapshotError> {
    if r.bytes(8)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let stored_fingerprint = r.u64()?;
    let head_len = r.u64()? as usize;
    let params = decode_params(r)?;
    if params_fingerprint_at(&params, FORMAT_VERSION) != stored_fingerprint {
        return Err(SnapshotError::Corrupt(
            "build-parameter fingerprint does not match the stored parameters".into(),
        ));
    }
    let build_seconds = r.f64()?;
    let shard_count = r.len_prefixed(24)?;
    if shard_count == 0 || shard_count > crate::shard::MAX_SHARDS {
        return Err(SnapshotError::Corrupt(format!(
            "shard count {shard_count} outside 1..={}",
            crate::shard::MAX_SHARDS
        )));
    }
    let mut shard_churn = Vec::with_capacity(shard_count);
    let mut table = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        shard_churn.push(r.u64()? as usize);
        let offset = r.u64()?;
        let len = r.u64()?;
        table.push((offset, len));
    }
    let salt_count = r.len_prefixed(8)?;
    let mut graph_salts = Vec::with_capacity(salt_count);
    for _ in 0..salt_count {
        graph_salts.push(r.u64()?);
    }
    // The smallest v3 feature head record (empty name/vertices/edges) is
    // 32 bytes.
    let feature_count = r.len_prefixed(32)?;
    let mut features = Vec::with_capacity(feature_count);
    let mut support_counts = Vec::with_capacity(feature_count);
    for id in 0..feature_count {
        let graph = decode_feature_graph(r, id)?;
        let count = r.u32()? as usize;
        if count > salt_count {
            return Err(SnapshotError::Corrupt(format!(
                "feature {id}: support count {count} exceeds {salt_count} graphs"
            )));
        }
        let frequency = r.f64()?;
        let discriminativity = r.f64()?;
        features.push(Feature {
            id,
            graph,
            support: Vec::new(),
            frequency,
            discriminativity,
        });
        support_counts.push(count);
    }
    if r.pos != head_len {
        return Err(SnapshotError::Corrupt(format!(
            "head ends at byte {} but the header claims {head_len}",
            r.pos
        )));
    }
    Ok(V3Head {
        params,
        build_seconds,
        graph_salts,
        features,
        support_counts,
        shard_churn,
        table,
    })
}

/// Eagerly decodes a complete v3 snapshot (the `Pmi::load`/`from_bytes`
/// path): head first, then every segment in table order.
pub(crate) fn decode_v3(bytes: &[u8]) -> Result<ShardedParts, SnapshotError> {
    let mut r = Reader::new(bytes);
    let head = decode_v3_head(&mut r)?;
    let members = crate::shard::members_of(&head.graph_salts, head.table.len());
    let mut expected = r.pos as u64;
    let mut segments = Vec::with_capacity(head.table.len());
    for (s, &(offset, len)) in head.table.iter().enumerate() {
        if offset != expected {
            return Err(SnapshotError::Corrupt(format!(
                "segment {s} starts at byte {offset}, expected {expected} \
                 (segments must tile the file contiguously)"
            )));
        }
        let end = offset.checked_add(len).filter(|&e| e <= bytes.len() as u64);
        let Some(end) = end else {
            return Err(SnapshotError::Corrupt(format!(
                "segment {s} ({offset}+{len} bytes) overruns the {}-byte snapshot",
                bytes.len()
            )));
        };
        segments.push(decode_segment(
            &bytes[offset as usize..end as usize],
            s,
            members.row_len(s),
            head.features.len(),
        )?);
        expected = end;
    }
    if expected != bytes.len() as u64 {
        return Err(SnapshotError::Corrupt(
            "trailing bytes after the final segment".into(),
        ));
    }
    Ok(ShardedParts {
        params: head.params,
        build_seconds: head.build_seconds,
        graph_salts: head.graph_salts,
        features: head.features,
        support_counts: head.support_counts,
        shard_churn: head.shard_churn,
        segments,
    })
}

/// Decodes one shard segment from its byte slice.  `member_count` and
/// `feature_count` come from the (already validated) head.
pub(crate) fn decode_segment(
    bytes: &[u8],
    shard: usize,
    member_count: usize,
    feature_count: usize,
) -> Result<SegmentParts, SnapshotError> {
    let corrupt = |why: String| SnapshotError::Corrupt(format!("shard {shard}: {why}"));
    let mut r = Reader::new(bytes);
    let entry_count = r.len_prefixed(20)?;
    let mut offsets = Vec::with_capacity(member_count + 1);
    for _ in 0..member_count + 1 {
        offsets.push(r.u64()? as usize);
    }
    let mut feature_ids = Vec::with_capacity(entry_count);
    for _ in 0..entry_count {
        let fi = r.u32()?;
        if fi as usize >= feature_count {
            return Err(corrupt(format!(
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
    let mut supports = FlatVecVec::with_capacity(feature_count, 0);
    for fi in 0..feature_count {
        let n = r.len_prefixed32(4)?;
        let mut sup = Vec::with_capacity(n);
        for _ in 0..n {
            let l = r.u32()?;
            if l as usize >= member_count {
                return Err(corrupt(format!(
                    "feature {fi} support references member {l} of {member_count}"
                )));
            }
            sup.push(l);
        }
        supports.push_row(sup);
    }
    let summary_count = r.len_prefixed(20)?;
    if summary_count != member_count {
        return Err(corrupt(format!(
            "{summary_count} summaries but {member_count} members"
        )));
    }
    let mut summaries = Vec::with_capacity(summary_count);
    for gi in 0..summary_count {
        summaries.push(decode_summary(&mut r, gi)?);
    }
    if !r.is_empty() {
        return Err(corrupt("trailing bytes after the segment".into()));
    }
    let matrix = SparseMatrix::from_raw(offsets, feature_ids, lowers, uppers).map_err(corrupt)?;
    Ok(SegmentParts {
        matrix,
        supports,
        sindex: StructuralIndex::from_summaries(summaries),
    })
}

/// Reads a snapshot file's head without touching any segment bytes: the
/// O(head) part of `Pmi::open`.  Returns [`OpenedSnapshot::Legacy`] for v1/v2
/// files (no segment table — the caller falls back to an eager load, which
/// also produces the right error for garbage files too short to classify).
pub(crate) fn open_head(path: &Path) -> Result<OpenedSnapshot, SnapshotError> {
    use std::io::Read as _;
    let io_err = |e: std::io::Error| SnapshotError::Io(format!("{}: {e}", path.display()));
    let mut file = std::fs::File::open(path).map_err(io_err)?;
    let file_len = file.metadata().map_err(io_err)?.len();
    let mut prefix = vec![0u8; (file_len.min(28)) as usize];
    file.read_exact(&mut prefix).map_err(io_err)?;
    if prefix.len() < 12 || prefix[..8] != MAGIC {
        return Ok(OpenedSnapshot::Legacy);
    }
    let version = u32::from_le_bytes(fixed::<4>(&prefix[8..12])?);
    if version != FORMAT_VERSION {
        return Ok(OpenedSnapshot::Legacy);
    }
    if prefix.len() < 28 {
        return Err(SnapshotError::Corrupt(
            "v3 snapshot truncated inside the fixed prefix".into(),
        ));
    }
    let head_len = u64::from_le_bytes(fixed::<8>(&prefix[20..28])?);
    if head_len < 28 || head_len > file_len {
        return Err(SnapshotError::Corrupt(format!(
            "head length {head_len} outside the {file_len}-byte file"
        )));
    }
    let mut head_bytes = prefix;
    head_bytes.resize(head_len as usize, 0);
    file.read_exact(&mut head_bytes[28..]).map_err(io_err)?;
    let mut r = Reader::new(&head_bytes);
    let head = decode_v3_head(&mut r)?;
    // Validate the table against the real file size now, so a truncated v3
    // file fails at open time rather than panicking at first shard touch.
    let mut expected = head_len;
    for (s, &(offset, len)) in head.table.iter().enumerate() {
        if offset != expected {
            return Err(SnapshotError::Corrupt(format!(
                "segment {s} starts at byte {offset}, expected {expected} \
                 (segments must tile the file contiguously)"
            )));
        }
        expected = offset
            .checked_add(len)
            .ok_or_else(|| SnapshotError::Corrupt(format!("segment {s} offset overflow")))?;
    }
    if expected != file_len {
        return Err(SnapshotError::Corrupt(format!(
            "segments end at byte {expected} but the file is {file_len} bytes"
        )));
    }
    Ok(OpenedSnapshot::V3(Box::new(head)))
}

/// Reads and decodes one shard segment straight from the file — the lazy
/// materialization path behind `Pmi::open`.
pub(crate) fn load_segment_from_file(
    path: &Path,
    offset: u64,
    len: u64,
    shard: usize,
    member_count: usize,
    feature_count: usize,
) -> Result<SegmentParts, SnapshotError> {
    use std::io::{Read as _, Seek as _, SeekFrom};
    let io_err = |e: std::io::Error| SnapshotError::Io(format!("{}: {e}", path.display()));
    let mut file = std::fs::File::open(path).map_err(io_err)?;
    file.seek(SeekFrom::Start(offset)).map_err(io_err)?;
    let mut buf = vec![0u8; len as usize];
    file.read_exact(&mut buf).map_err(io_err)?;
    decode_segment(&buf, shard, member_count, feature_count)
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

fn encode_feature(w: &mut Writer, f: &Feature, support: &[u32]) {
    encode_feature_graph(w, &f.graph);
    w.u32(support.len() as u32);
    for &gi in support {
        w.u32(gi);
    }
    w.f64(f.frequency);
    w.f64(f.discriminativity);
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

fn decode_feature(r: &mut Reader, id: usize, graph_count: usize) -> Result<Feature, SnapshotError> {
    let graph = decode_feature_graph(r, id)?;
    let support_len = r.len_prefixed32(4)?;
    let mut support = Vec::with_capacity(support_len);
    for _ in 0..support_len {
        let gi = r.u32()? as usize;
        if gi >= graph_count {
            return Err(SnapshotError::Corrupt(format!(
                "feature {id}: support references graph {gi} of {graph_count}"
            )));
        }
        support.push(gi);
    }
    let frequency = r.f64()?;
    let discriminativity = r.f64()?;
    Ok(Feature {
        id,
        graph,
        support,
        frequency,
        discriminativity,
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

    /// Encodes legacy parts (support lists inside the features) as v1.
    fn encode_parts_v1(parts: &PmiParts) -> Vec<u8> {
        let supports = FlatVecVec::from_rows(
            parts
                .features
                .iter()
                .map(|f| f.support.iter().map(|&g| g as u32)),
        );
        encode_v1(&V1PartsRef {
            params: &parts.params,
            build_seconds: parts.build_seconds,
            churn: parts.churn,
            graph_salts: &parts.graph_salts,
            features: &parts.features,
            supports: &supports,
            matrix: &parts.matrix,
        })
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
                support: vec![0],
                frequency: 0.5,
                discriminativity: 1.0,
            }],
            matrix,
            sindex: None,
        }
    }

    #[test]
    fn v1_snapshots_encode_and_decode_without_an_sindex() {
        let parts = sample_parts();
        let v1 = encode_parts_v1(&parts);
        let back = decode(&v1).unwrap();
        assert!(back.sindex.is_none());
        assert_eq!(back.build_seconds, parts.build_seconds);
        assert_eq!(back.churn, parts.churn);
        assert_eq!(back.graph_salts, parts.graph_salts);
        assert_eq!(back.matrix, parts.matrix);
        assert_eq!(back.features.len(), 1);
        assert_eq!(back.features[0].graph, parts.features[0].graph);
        assert_eq!(back.features[0].graph.name(), "f0");
        assert_eq!(back.features[0].support, vec![0]);
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
        let sindex_len: usize = sindex.summary_views().map(summary_len).sum();
        assert_eq!(V2_FIXTURE.len(), V1_FIXTURE.len() + 8 + sindex_len);
    }

    #[test]
    fn summary_count_mismatch_is_rejected() {
        let parts = decode(V2_FIXTURE).unwrap();
        let sindex = parts.sindex.as_ref().unwrap();
        let sindex_len: usize = sindex.summary_views().map(summary_len).sum();
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
        for bytes in [V1_FIXTURE, V2_FIXTURE] {
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
        // Regression: the fixed-width LE field reads (`Reader::u32`/`u64`,
        // the v3 prefix in `open_head`) used to be `try_into().expect(…)`
        // panic paths; malformed input must surface as typed errors instead.
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

        // A v3 file cut anywhere inside its fixed prefix must come back from
        // `open_head` as a typed error (or the legacy fallback for cuts too
        // short to classify) — never a panic.
        let bytes = sample_v3();
        let dir = std::env::temp_dir().join("pgs-snapshot-fixed-width-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        for cut in [0, 5, 9, 12, 13, 20, 27] {
            let path = dir.join(format!("cut{cut}.bin"));
            std::fs::write(&path, &bytes[..cut]).expect("write truncated snapshot");
            match open_head(&path) {
                Ok(OpenedSnapshot::Legacy) | Err(SnapshotError::Corrupt(_)) => {}
                Ok(OpenedSnapshot::V3(_)) => panic!("cut at {cut}: classified as v3"),
                Err(e) => panic!("cut at {cut}: unexpected error {e:?}"),
            }
        }
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

    /// A hand-built 3-shard v3 snapshot over 4 graphs: membership is derived
    /// from the salts exactly the way the codec re-derives it.
    fn sample_v3() -> Vec<u8> {
        let salts = vec![11u64, 22, 33, 44];
        let shards = 3;
        let members = crate::shard::members_of(&salts, shards);
        let feature = Feature {
            id: 0,
            graph: GraphBuilder::new()
                .name("f0")
                .vertices(&[0, 1])
                .edge(0, 1, 9)
                .build(),
            support: Vec::new(),
            frequency: 0.5,
            discriminativity: 1.0,
        };
        let mut matrices = Vec::new();
        let mut supports = Vec::new();
        let mut sindexes = Vec::new();
        for m in members.iter() {
            let mut matrix = SparseMatrix::new();
            for l in 0..m.len() {
                if l == 0 {
                    matrix.push_column(vec![(
                        0,
                        SipBounds {
                            lower: 0.25,
                            upper: 0.75,
                        },
                    )]);
                } else {
                    matrix.push_column(vec![]);
                }
            }
            supports.push(FlatVecVec::from_rows(vec![if m.is_empty() {
                vec![]
            } else {
                vec![0u32]
            }]));
            let graphs: Vec<_> = m
                .iter()
                .map(|_| GraphBuilder::new().vertices(&[0, 1]).edge(0, 1, 9).build())
                .collect();
            sindexes.push(StructuralIndex::build(&graphs));
            matrices.push(matrix);
        }
        let support_counts = vec![members.iter().filter(|m| !m.is_empty()).count()];
        encode_v3(&ShardedPartsRef {
            params: &PmiBuildParams::default(),
            build_seconds: 0.5,
            graph_salts: &salts,
            features: std::slice::from_ref(&feature),
            support_counts: &support_counts,
            shard_churn: &[0, 2, 0],
            segments: (0..shards)
                .map(|s| SegmentRef {
                    matrix: &matrices[s],
                    supports: &supports[s],
                    sindex: &sindexes[s],
                })
                .collect(),
        })
    }

    #[test]
    fn v3_round_trips_through_decode_any() {
        let bytes = sample_v3();
        let parts = match decode_any(&bytes).unwrap() {
            AnyParts::V3(p) => p,
            AnyParts::Legacy(_) => panic!("expected a v3 decode"),
        };
        assert_eq!(parts.graph_salts, vec![11, 22, 33, 44]);
        assert_eq!(parts.shard_churn, vec![0, 2, 0]);
        assert_eq!(parts.build_seconds, 0.5);
        assert_eq!(parts.features.len(), 1);
        assert!(parts.features[0].support.is_empty());
        let members = crate::shard::members_of(&parts.graph_salts, 3);
        let mut total_members = 0;
        for (seg, m) in parts.segments.iter().zip(members.iter()) {
            assert_eq!(seg.matrix.column_count(), m.len());
            assert_eq!(seg.sindex.graph_count(), m.len());
            assert_eq!(seg.supports.len(), 1);
            total_members += m.len();
        }
        assert_eq!(total_members, 4);
        // Re-encoding the decoded parts is byte-identical.
        let again = encode_v3(&ShardedPartsRef {
            params: &parts.params,
            build_seconds: parts.build_seconds,
            graph_salts: &parts.graph_salts,
            features: &parts.features,
            support_counts: &parts.support_counts,
            shard_churn: &parts.shard_churn,
            segments: parts
                .segments
                .iter()
                .map(|s| SegmentRef {
                    matrix: &s.matrix,
                    supports: &s.supports,
                    sindex: &s.sindex,
                })
                .collect(),
        });
        assert_eq!(again, bytes);
    }

    #[test]
    fn v3_truncation_is_rejected_everywhere() {
        let bytes = sample_v3();
        for cut in 0..bytes.len() {
            let err = decode_any(&bytes[..cut])
                .err()
                .expect("truncation must fail");
            assert!(
                matches!(err, SnapshotError::Corrupt(_) | SnapshotError::BadMagic),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn v3_rejects_a_zero_shard_count() {
        let mut bytes = sample_v3();
        // shard_count sits right after the fixed prefix.
        let off = header_len_v3();
        bytes[off..off + 8].copy_from_slice(&0u64.to_le_bytes());
        match decode_any(&bytes) {
            Err(SnapshotError::Corrupt(why)) => assert!(why.contains("shard count")),
            other => panic!("expected Corrupt, got {:?}", other.err()),
        }
    }

    #[test]
    fn v3_rejects_a_non_contiguous_segment_table() {
        let mut bytes = sample_v3();
        // First segment offset sits 8 bytes into the first table entry.
        let off = header_len_v3() + 8 + 8;
        let stored = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        bytes[off..off + 8].copy_from_slice(&(stored + 1).to_le_bytes());
        match decode_any(&bytes) {
            Err(SnapshotError::Corrupt(why)) => assert!(why.contains("contiguous")),
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
