//! # catrisk-riskquery
//!
//! A QuPARA-style query engine: ad-hoc aggregate risk queries over columnar
//! Year Loss Table stores.
//!
//! The Aggregate Risk Engine in `catrisk-engine` answers one fixed question
//! per run — a Year Loss Table per layer.  Production aggregate risk
//! analysis looks different: analysts fire *many* ad-hoc questions at the
//! same simulation outputs ("the TVaR of hurricane losses in Europe", "an
//! OEP curve per line of business", "mean annual loss by peril for layers
//! 2–5 over the first 100k trials").  QuPARA (Rau-Chaplin et al.) framed
//! this as query-driven portfolio aggregate risk analysis on MapReduce;
//! this crate is the same architecture in-memory and multi-core.
//!
//! ## The QuPARA mapping
//!
//! | QuPARA (MapReduce)                   | this crate                                  |
//! |--------------------------------------|---------------------------------------------|
//! | distributed file of per-layer YLTs   | [`ResultStore`]: columnar loss vectors      |
//! | query (filters + grouping + metrics) | [`Query`] AST built by [`QueryBuilder`]     |
//! | input-format filter pushdown         | [`plan`]: segment pruning by tag            |
//! | mapper: per-split partial aggregates | [`exec`]: per-shard [`PartialAggregate`]    |
//! | combiner/reducer: merge + finalize   | monoid `combine` + metric finalisation      |
//! | batch of queries per job             | [`QuerySession`]: one scan, many queries    |
//!
//! A *segment* is the store's unit of data: one YLT (one loss value per
//! trial) tagged with its dimensions — layer, peril, region, line of
//! business ([`SegmentMeta`]).  Filters prune whole segments by tag
//! without touching loss data (pushdown); grouping assigns surviving
//! segments to groups; per-trial loss vectors of each group are summed
//! (year losses) and max-merged (occurrence losses) shard-by-shard and the
//! shard partials are combined in segment order, so results are
//! bit-identical to a sequential scan.  Aggregates — mean, standard
//! deviation, VaR, TVaR, PML, AEP/OEP exceedance curves, attachment
//! probability, maximum loss — reuse the kernels in `catrisk-metrics`.
//!
//! ```
//! use catrisk_riskquery::prelude::*;
//! use catrisk_engine::ylt::{TrialOutcome, YearLossTable};
//! use catrisk_eventgen::peril::{Peril, Region};
//! use catrisk_finterms::layer::LayerId;
//!
//! // A store with two segments over three trials.
//! let mut store = ResultStore::new(3);
//! let outcome = |l: f64| TrialOutcome { year_loss: l, max_occurrence_loss: l, nonzero_events: 1 };
//! store
//!     .ingest(
//!         &YearLossTable::new(LayerId(0), vec![outcome(1.0), outcome(0.0), outcome(5.0)]),
//!         SegmentMeta::new(LayerId(0), Peril::Hurricane, Region::Europe, LineOfBusiness::Property),
//!     )
//!     .unwrap();
//! store
//!     .ingest(
//!         &YearLossTable::new(LayerId(1), vec![outcome(2.0), outcome(4.0), outcome(0.0)]),
//!         SegmentMeta::new(LayerId(1), Peril::Flood, Region::Europe, LineOfBusiness::Marine),
//!     )
//!     .unwrap();
//!
//! // Mean annual loss by peril.
//! let query = QueryBuilder::new()
//!     .group_by(Dimension::Peril)
//!     .aggregate(Aggregate::Mean)
//!     .build()
//!     .unwrap();
//! let result = execute(&store, &query).unwrap();
//! assert_eq!(result.rows.len(), 2);
//! ```
//!
//! The scan pipeline is generic over [`SegmentSource`], so the same
//! queries run against the in-memory [`ResultStore`], against
//! persistent stores reopened from disk by the `catrisk-riskstore` crate
//! (whose reader hands the scan zero-copy column slices), and against a
//! whole catalog of such stores at once along either sharding axis:
//! [`ShardedSource`] is the **segment**-union view (shards own disjoint
//! segment sets over one shared trial axis; their tags concatenate, global
//! segment indices map to shard-local column offsets), while
//! [`TrialShardedSource`] is the **trial**-union view (shards own
//! disjoint trial windows of the *same* segments — the paper's own
//! partition axis — stitched by the adjacent-window monoid, with
//! [`TrialPartial`] as the cacheable per-shard unit of reuse).  Both are
//! bit-identical to a single store holding everything; see
//! `docs/ARCHITECTURE.md` at the repository root for the two-axis
//! picture.  The
//! `catrisk-riskserve` crate serves concurrent client requests by
//! coalescing them into [`QuerySession`] batches — [`Query`] is cheap to
//! clone and `Eq + Hash` (with a total, NaN-free float treatment) exactly
//! so that front-end can dedup identical requests across submitters.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod dims;
pub mod exec;
pub mod kernel;
pub mod parse;
pub mod partial;
pub mod plan;
pub mod query;
pub mod result;
pub mod segmentation;
pub mod session;
pub mod sharded;
pub mod store;
pub mod trial_sharded;

pub use dims::{Dimension, LineOfBusiness, SegmentMeta};
pub use exec::{execute, finalize, PartialAggregate};
pub use kernel::SimdLevel;
pub use parse::{parse_group_by, parse_query, parse_select, parse_where};
pub use partial::{
    combine, combine_trial_partial_refs, group_by_key, plan_cells, scan_trial_partial,
    scan_trial_partials_fused, split_plan_by_segments, Cell, Grid, TrialPartial,
};
pub use plan::{QueryPlan, ScanAttribution};
pub use query::{Aggregate, Basis, Filter, LossRange, Query, QueryBuilder};
pub use result::{AggValue, DimValue, QueryResult, ResultRow};
pub use segmentation::{split_pairs_by_peril, SegmentedBook, SegmentedInput};
pub use session::QuerySession;
pub use sharded::ShardedSource;
pub use store::{ResultStore, SegmentSource};
pub use trial_sharded::TrialShardedSource;

/// Convenience re-exports for query construction and execution.
pub mod prelude {
    pub use crate::dims::{Dimension, LineOfBusiness, SegmentMeta};
    pub use crate::exec::execute;
    pub use crate::query::{Aggregate, Basis, Filter, LossRange, Query, QueryBuilder};
    pub use crate::result::{AggValue, DimValue, QueryResult, ResultRow};
    pub use crate::session::QuerySession;
    pub use crate::sharded::ShardedSource;
    pub use crate::store::{ResultStore, SegmentSource};
    pub use crate::trial_sharded::TrialShardedSource;
}

/// Errors produced while building, parsing or executing queries.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The query text could not be parsed.
    Parse(String),
    /// The query is structurally invalid (bad level, empty aggregate list,
    /// duplicate group-by dimension, ...).
    InvalidQuery(String),
    /// The store rejected an ingest or the query references data the store
    /// does not hold.
    Store(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(msg) => write!(f, "query parse error: {msg}"),
            QueryError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            QueryError::Store(msg) => write!(f, "store error: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Result alias for query operations.
pub type Result<T> = std::result::Result<T, QueryError>;
