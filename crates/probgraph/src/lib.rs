//! # pgs-prob — probabilistic graph model
//!
//! Implements the probabilistic graph model of the paper (Definitions 2–4):
//! a deterministic skeleton graph plus **joint probability tables (JPTs)** over
//! *neighbor edge sets*, possible-world semantics, the projected bitset worlds
//! the samplers of Algorithms 3 and 5 draw, exact subgraph-isomorphism /
//! similarity probabilities (one `u64`-mask world enumerator) used as exact
//! short-circuits, test oracles and experimental baselines, and the
//! independent-edge model (the `IND` baseline of Figure 14).
//!
//! ## Correlation model
//!
//! The paper attaches one JPT to every neighbor-edge set and defines the weight
//! of a possible world as the product of the JPTs (Equation 1).  That product
//! is a normalised probability measure exactly when the neighbor-edge sets are
//! variable-disjoint, and the paper's own sampler (Algorithm 3, line 3:
//! "sample each neighbor edge set ne of g according to Pr(x_ne)") samples the
//! groups independently.  [`model::ProbabilisticGraph`] therefore requires the
//! neighbor-edge sets to form a **partition** of the edge set — each group
//! still being a genuine neighbor-edge set (edges sharing a vertex or forming a
//! triangle), see [`neighbor`].  The construction used by the data generator
//! mirrors the paper's STRING pre-processing (max-rule JPTs).  This
//! substitution is documented in `DESIGN.md` §3.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod conditional;
pub mod error;
pub mod exact;
pub mod independent;
pub mod jpt;
pub mod model;
pub mod montecarlo;
pub mod neighbor;
pub mod union_sampler;
pub mod world;

pub use alias::AliasTable;
pub use conditional::{conditional_event_probability, EventKind};
pub use error::ProbError;
pub use exact::{exact_sip, exact_ssp};
pub use independent::to_independent_model;
pub use jpt::JointProbTable;
pub use model::ProbabilisticGraph;
pub use montecarlo::MonteCarloConfig;
pub use neighbor::partition_neighbor_edges;
pub use union_sampler::{ProjectedWorlds, UnionSampler};
pub use world::{enumerate_worlds, PossibleWorld};
