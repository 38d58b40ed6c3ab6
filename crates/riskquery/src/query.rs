//! The typed query AST and its builder.

use serde::{Deserialize, Serialize};

use catrisk_eventgen::peril::{Peril, Region};

use crate::dims::{Dimension, LineOfBusiness, SegmentMeta};
use crate::{QueryError, Result};

/// Which loss column an exceedance-style aggregate is computed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Basis {
    /// Aggregate (annual) losses: the year-loss column.
    Aep,
    /// Occurrence losses: the per-trial maximum-occurrence-loss column.
    Oep,
}

/// An inclusive range predicate over per-trial annual losses.
///
/// Applied *after* grouping, per trial: a trial survives for a result group
/// when the group's summed year loss in that trial lies in `[min, max]`.
/// This is the conditional-analysis primitive — "statistics of years where
/// the selection lost at least x" — and it is pushed into the scan: trials
/// are dropped block-by-block while the loss slices are hot, never
/// materialised and post-filtered.
///
/// # Total equality and hashing
///
/// `LossRange` implements [`Eq`] and [`Hash`](std::hash::Hash) even though
/// its bounds are floats, because every constructor in this crate keeps the
/// bounds **NaN-free**: [`QueryBuilder::build`] and the textual parser both
/// reject NaN bounds, and the `at_least` / `at_most` helpers only produce
/// finite or `+∞` values.  On NaN-free values `==` is a total equivalence
/// and hashing the bit patterns (with `-0.0` normalised to `0.0`, so the
/// two representations of zero that compare equal also hash equally) is
/// consistent with it.  This is what lets a serving front-end key
/// cross-client scan-spec dedup maps on [`Query::scan_spec`] without
/// collisions or misses.  Code that builds a `LossRange` by hand (the
/// fields are public) must uphold the no-NaN invariant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossRange {
    /// Smallest year loss kept (inclusive).  Losses are non-negative, so
    /// `0.0` means "no lower bound".
    pub min: f64,
    /// Largest year loss kept (inclusive).  `f64::INFINITY` means "no upper
    /// bound".
    pub max: f64,
}

impl LossRange {
    /// `[min, ∞)`.
    pub fn at_least(min: f64) -> Self {
        Self {
            min,
            max: f64::INFINITY,
        }
    }

    /// `[0, max]`.
    pub fn at_most(max: f64) -> Self {
        Self { min: 0.0, max }
    }

    /// True when `loss` lies in the range.
    #[inline]
    pub fn contains(&self, loss: f64) -> bool {
        loss >= self.min && loss <= self.max
    }
}

impl Default for LossRange {
    fn default() -> Self {
        Self {
            min: 0.0,
            max: f64::INFINITY,
        }
    }
}

// Total by the no-NaN invariant documented on the type.
impl Eq for LossRange {}

impl std::hash::Hash for LossRange {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        hash_f64_total(self.min, state);
        hash_f64_total(self.max, state);
    }
}

/// Hashes a NaN-free float consistently with `==`: `-0.0` is normalised to
/// `0.0` (they compare equal, so they must hash equally), every other value
/// hashes its IEEE-754 bit pattern.
fn hash_f64_total<H: std::hash::Hasher>(value: f64, state: &mut H) {
    use std::hash::Hash;
    (value + 0.0).to_bits().hash(state);
}

/// Conjunctive segment filter: a segment survives when every specified
/// dimension list contains its value.  `None` means "no constraint".
///
/// The trial filter restricts the scanned trial window (half-open range),
/// which is how convergence-style queries ("the same metric over the first
/// N trials") are expressed.  The loss filter conditions each result group
/// on the trials whose summed year loss lies in a [`LossRange`].
///
/// `Filter` is [`Eq`] + [`Hash`](std::hash::Hash) — the only float-bearing
/// field is the [`LossRange`], whose totality argument (NaN-free by
/// construction) is documented on that type — so filters can key dedup
/// maps directly.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Filter {
    /// Perils to keep.
    pub perils: Option<Vec<Peril>>,
    /// Regions to keep.
    pub regions: Option<Vec<Region>>,
    /// Lines of business to keep.
    pub lobs: Option<Vec<LineOfBusiness>>,
    /// Layer ids to keep (raw `LayerId` values).
    pub layers: Option<Vec<u32>>,
    /// Half-open trial window `[start, end)`.
    pub trials: Option<(usize, usize)>,
    /// Per-trial year-loss range each group is conditioned on.
    pub loss: Option<LossRange>,
}

impl Filter {
    /// The unconstrained filter.
    pub fn all() -> Self {
        Self::default()
    }

    /// True when a segment tagged `meta` passes every dimension list —
    /// the pushdown test, decided before any loss data is touched (the
    /// trial window and loss range apply inside the scan instead).
    pub fn matches(&self, meta: &SegmentMeta) -> bool {
        fn allows<T: PartialEq>(list: &Option<Vec<T>>, value: T) -> bool {
            list.as_ref().is_none_or(|values| values.contains(&value))
        }
        allows(&self.layers, meta.layer.0)
            && allows(&self.perils, meta.peril)
            && allows(&self.regions, meta.region)
            && allows(&self.lobs, meta.lob)
    }
}

/// An aggregate computed per result group.
///
/// Implements [`Eq`] + [`Hash`](std::hash::Hash): the float parameters
/// (confidence levels, return periods) are NaN-free by construction —
/// [`Aggregate::validate`](QueryBuilder::build) rejects NaN levels (a NaN
/// fails the `[0, 1]` range check) and non-finite return periods — so
/// bit-pattern hashing with `-0.0` normalised is consistent with `==`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Aggregate {
    /// Mean annual loss (expected loss under the simulation measure).
    Mean,
    /// Population standard deviation of the annual loss.
    StdDev,
    /// Largest annual loss across trials.
    MaxLoss,
    /// Fraction of trials with a non-zero annual loss.
    AttachProb,
    /// Value at Risk at the given confidence level.
    Var {
        /// Confidence level in `[0, 1]`.
        level: f64,
    },
    /// Tail Value at Risk at the given confidence level.
    Tvar {
        /// Confidence level in `[0, 1]`.
        level: f64,
    },
    /// Probable Maximum Loss at a return period, over the chosen basis.
    Pml {
        /// Return period in years (>= 1).
        return_period: f64,
        /// Loss column the PML is read from.
        basis: Basis,
    },
    /// A sampled exceedance-probability curve over the chosen basis.
    EpCurve {
        /// Loss column the curve is built from.
        basis: Basis,
        /// Number of sampled `(probability, loss)` points (>= 2).
        points: usize,
    },
}

// Total by the no-NaN invariant documented on the type.
impl Eq for Aggregate {}

impl std::hash::Hash for Aggregate {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Aggregate::Mean | Aggregate::StdDev | Aggregate::MaxLoss | Aggregate::AttachProb => {}
            Aggregate::Var { level } | Aggregate::Tvar { level } => hash_f64_total(*level, state),
            Aggregate::Pml {
                return_period,
                basis,
            } => {
                hash_f64_total(*return_period, state);
                basis.hash(state);
            }
            Aggregate::EpCurve { basis, points } => {
                basis.hash(state);
                points.hash(state);
            }
        }
    }
}

impl Aggregate {
    /// Short column label used in rendered result tables.
    pub fn label(&self) -> String {
        match self {
            Aggregate::Mean => "mean".to_string(),
            Aggregate::StdDev => "stddev".to_string(),
            Aggregate::MaxLoss => "maxloss".to_string(),
            Aggregate::AttachProb => "attach".to_string(),
            Aggregate::Var { level } => format!("var({level})"),
            Aggregate::Tvar { level } => format!("tvar({level})"),
            Aggregate::Pml {
                return_period,
                basis: Basis::Aep,
            } => format!("pml({return_period})"),
            Aggregate::Pml {
                return_period,
                basis: Basis::Oep,
            } => {
                format!("opml({return_period})")
            }
            Aggregate::EpCurve {
                basis: Basis::Aep,
                points,
            } => format!("aep({points})"),
            Aggregate::EpCurve {
                basis: Basis::Oep,
                points,
            } => format!("oep({points})"),
        }
    }

    fn validate(&self) -> Result<()> {
        match self {
            Aggregate::Var { level } | Aggregate::Tvar { level }
                if !(0.0..=1.0).contains(level) =>
            {
                return Err(QueryError::InvalidQuery(format!(
                    "confidence level must be in [0, 1], got {level}"
                )));
            }
            Aggregate::Pml { return_period, .. }
                if (!return_period.is_finite() || *return_period < 1.0) =>
            {
                return Err(QueryError::InvalidQuery(format!(
                    "return period must be at least 1 year, got {return_period}"
                )));
            }
            Aggregate::EpCurve { points, .. } if *points < 2 => {
                return Err(QueryError::InvalidQuery(format!(
                    "an EP curve needs at least 2 points, got {points}"
                )));
            }
            _ => {}
        }
        Ok(())
    }
}

/// An ad-hoc aggregate risk query: filter, grouping, aggregates.
///
/// Queries are cheap to [`Clone`] (a few small vectors) and implement
/// [`Eq`] + [`Hash`](std::hash::Hash) — see [`Filter`] and [`Aggregate`]
/// for why the float-bearing parts are total — so a serving front-end can
/// move them between threads and dedup identical requests from different
/// submitters.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Query {
    /// Segment and trial filter.
    pub filter: Filter,
    /// Dimensions to group surviving segments by (empty = one total row).
    pub group_by: Vec<Dimension>,
    /// Aggregates computed per group, in output order.
    pub aggregates: Vec<Aggregate>,
}

impl Query {
    /// The scan specification — the part of the query whose evaluation cost
    /// a [`QuerySession`](crate::session::QuerySession) can share between
    /// queries.  Two queries with equal scan specs group the exact same
    /// loss vectors.
    ///
    /// The returned tuple is [`Eq`] + [`Hash`](std::hash::Hash) with the
    /// total float treatment documented on [`LossRange`], so it can be used
    /// directly as a `HashMap` key — the session and the serving front-end
    /// both key their cross-query dedup on it.
    pub fn scan_spec(&self) -> (&Filter, &[Dimension]) {
        (&self.filter, &self.group_by)
    }
}

/// Fluent builder for [`Query`].
///
/// ```
/// use catrisk_riskquery::prelude::*;
/// use catrisk_eventgen::peril::Peril;
///
/// let query = QueryBuilder::new()
///     .with_perils([Peril::Hurricane, Peril::Flood])
///     .trials(0..10_000)
///     .group_by(Dimension::Region)
///     .aggregate(Aggregate::Mean)
///     .aggregate(Aggregate::Tvar { level: 0.99 })
///     .build()
///     .unwrap();
/// assert_eq!(query.aggregates.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryBuilder {
    filter: Filter,
    group_by: Vec<Dimension>,
    aggregates: Vec<Aggregate>,
}

impl QueryBuilder {
    /// Starts an unconstrained query with no aggregates.
    pub fn new() -> Self {
        Self::default()
    }

    /// Keeps only segments with one of the given perils.
    pub fn with_perils(mut self, perils: impl IntoIterator<Item = Peril>) -> Self {
        self.filter.perils = Some(perils.into_iter().collect());
        self
    }

    /// Keeps only segments in one of the given regions.
    pub fn in_regions(mut self, regions: impl IntoIterator<Item = Region>) -> Self {
        self.filter.regions = Some(regions.into_iter().collect());
        self
    }

    /// Keeps only segments writing one of the given lines of business.
    pub fn for_lobs(mut self, lobs: impl IntoIterator<Item = LineOfBusiness>) -> Self {
        self.filter.lobs = Some(lobs.into_iter().collect());
        self
    }

    /// Keeps only segments belonging to one of the given layer ids.
    pub fn in_layers(mut self, layers: impl IntoIterator<Item = u32>) -> Self {
        self.filter.layers = Some(layers.into_iter().collect());
        self
    }

    /// Replaces the whole filter (how [`parse_query`](crate::parse::parse_query)
    /// applies a parsed where clause); [`build`](Self::build) validates it
    /// like any other.
    pub(crate) fn filter(mut self, filter: Filter) -> Self {
        self.filter = filter;
        self
    }

    /// Restricts the scan to a half-open trial window.
    pub fn trials(mut self, range: std::ops::Range<usize>) -> Self {
        self.filter.trials = Some((range.start, range.end));
        self
    }

    /// Conditions each group on trials whose summed year loss is at least
    /// `min` (inclusive).  Combines with an earlier upper bound.
    pub fn loss_at_least(mut self, min: f64) -> Self {
        let mut range = self.filter.loss.unwrap_or_default();
        range.min = min;
        self.filter.loss = Some(range);
        self
    }

    /// Conditions each group on trials whose summed year loss is at most
    /// `max` (inclusive).  Combines with an earlier lower bound.
    pub fn loss_at_most(mut self, max: f64) -> Self {
        let mut range = self.filter.loss.unwrap_or_default();
        range.max = max;
        self.filter.loss = Some(range);
        self
    }

    /// Conditions each group on trials whose summed year loss lies in
    /// `[min, max]` (both inclusive).
    pub fn loss_in(mut self, min: f64, max: f64) -> Self {
        self.filter.loss = Some(LossRange { min, max });
        self
    }

    /// Adds a group-by dimension (call order defines key order).
    pub fn group_by(mut self, dimension: Dimension) -> Self {
        self.group_by.push(dimension);
        self
    }

    /// Adds an aggregate column.
    pub fn aggregate(mut self, aggregate: Aggregate) -> Self {
        self.aggregates.push(aggregate);
        self
    }

    /// Validates and produces the query.
    pub fn build(self) -> Result<Query> {
        if self.aggregates.is_empty() {
            return Err(QueryError::InvalidQuery(
                "a query needs at least one aggregate".to_string(),
            ));
        }
        for aggregate in &self.aggregates {
            aggregate.validate()?;
        }
        let mut seen = Vec::new();
        for dim in &self.group_by {
            if seen.contains(dim) {
                return Err(QueryError::InvalidQuery(format!(
                    "duplicate group-by dimension `{dim}`"
                )));
            }
            seen.push(*dim);
        }
        if let Some((start, end)) = self.filter.trials {
            if start >= end {
                return Err(QueryError::InvalidQuery(format!(
                    "empty trial window {start}..{end}"
                )));
            }
        }
        if let Some(range) = self.filter.loss {
            if range.min.is_nan() || range.max.is_nan() {
                return Err(QueryError::InvalidQuery(
                    "loss range bounds must not be NaN".to_string(),
                ));
            }
            if range.min > range.max {
                return Err(QueryError::InvalidQuery(format!(
                    "empty loss range [{}, {}]",
                    range.min, range.max
                )));
            }
        }
        for (name, list) in [
            ("peril", self.filter.perils.as_ref().map(Vec::len)),
            ("region", self.filter.regions.as_ref().map(Vec::len)),
            ("lob", self.filter.lobs.as_ref().map(Vec::len)),
            ("layer", self.filter.layers.as_ref().map(Vec::len)),
        ] {
            if list == Some(0) {
                return Err(QueryError::InvalidQuery(format!(
                    "empty `{name}` filter list matches nothing; omit the filter instead"
                )));
            }
        }
        Ok(Query {
            filter: self.filter,
            group_by: self.group_by,
            aggregates: self.aggregates,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates() {
        assert!(matches!(
            QueryBuilder::new().build(),
            Err(QueryError::InvalidQuery(_))
        ));
        assert!(QueryBuilder::new()
            .aggregate(Aggregate::Var { level: 1.5 })
            .build()
            .is_err());
        assert!(QueryBuilder::new()
            .aggregate(Aggregate::Pml {
                return_period: 0.5,
                basis: Basis::Aep
            })
            .build()
            .is_err());
        assert!(QueryBuilder::new()
            .aggregate(Aggregate::EpCurve {
                basis: Basis::Oep,
                points: 1
            })
            .build()
            .is_err());
        assert!(QueryBuilder::new()
            .group_by(Dimension::Peril)
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::Mean)
            .build()
            .is_err());
        assert!(QueryBuilder::new()
            .trials(5..5)
            .aggregate(Aggregate::Mean)
            .build()
            .is_err());
        assert!(QueryBuilder::new()
            .loss_in(10.0, 5.0)
            .aggregate(Aggregate::Mean)
            .build()
            .is_err());
        assert!(QueryBuilder::new()
            .loss_at_least(f64::NAN)
            .aggregate(Aggregate::Mean)
            .build()
            .is_err());
        assert!(QueryBuilder::new()
            .with_perils([])
            .aggregate(Aggregate::Mean)
            .build()
            .is_err());
    }

    #[test]
    fn builder_happy_path() {
        let query = QueryBuilder::new()
            .with_perils([Peril::Hurricane])
            .in_regions([Region::Europe, Region::Japan])
            .for_lobs([LineOfBusiness::Property])
            .in_layers([0, 1])
            .trials(10..20)
            .group_by(Dimension::Peril)
            .group_by(Dimension::Region)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::EpCurve {
                basis: Basis::Aep,
                points: 5,
            })
            .build()
            .unwrap();
        assert_eq!(query.group_by.len(), 2);
        assert_eq!(query.filter.trials, Some((10, 20)));
        let (filter, dims) = query.scan_spec();
        assert_eq!(filter, &query.filter);
        assert_eq!(dims, &query.group_by[..]);
    }

    #[test]
    fn loss_bounds_combine_into_one_range() {
        let query = QueryBuilder::new()
            .loss_at_least(100.0)
            .loss_at_most(500.0)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        assert_eq!(
            query.filter.loss,
            Some(LossRange {
                min: 100.0,
                max: 500.0
            })
        );
        let range = LossRange::at_least(2.0);
        assert!(range.contains(2.0));
        assert!(!range.contains(1.9));
        assert!(range.contains(f64::MAX));
        let range = LossRange::at_most(2.0);
        assert!(range.contains(0.0));
        assert!(!range.contains(2.1));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Aggregate::Mean.label(), "mean");
        assert_eq!(Aggregate::Var { level: 0.99 }.label(), "var(0.99)");
        assert_eq!(
            Aggregate::Pml {
                return_period: 250.0,
                basis: Basis::Oep
            }
            .label(),
            "opml(250)"
        );
        assert_eq!(
            Aggregate::EpCurve {
                basis: Basis::Oep,
                points: 9
            }
            .label(),
            "oep(9)"
        );
    }

    fn hash_of(value: &impl std::hash::Hash) -> u64 {
        use std::hash::Hasher;
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn scan_spec_hash_agrees_with_eq() {
        let build = |min: f64| {
            QueryBuilder::new()
                .with_perils([Peril::Hurricane])
                .loss_at_least(min)
                .group_by(Dimension::Region)
                .aggregate(Aggregate::Mean)
                .build()
                .unwrap()
        };
        // Equal specs (including the two representations of zero that
        // compare equal) hash equally.
        let a = build(0.0);
        let b = build(-0.0);
        assert_eq!(a.scan_spec(), b.scan_spec());
        assert_eq!(hash_of(&a.scan_spec()), hash_of(&b.scan_spec()));
        assert_eq!(hash_of(&a), hash_of(&b));
        // Different bounds produce different specs (and, for these values,
        // different hashes — bit-pattern hashing has no accidental
        // collapse).
        let c = build(1.0e6);
        assert_ne!(a.scan_spec(), c.scan_spec());
        assert_ne!(hash_of(&a.scan_spec()), hash_of(&c.scan_spec()));
        // A whole Query keys a map: same query from two "clients" dedups.
        let mut seen = std::collections::HashMap::new();
        seen.insert(a.clone(), 1);
        *seen.entry(b).or_insert(0) += 1;
        seen.insert(c, 1);
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[&a], 2);
    }

    #[test]
    fn aggregate_hash_distinguishes_variants() {
        // Same float payload under different constructors must not collide
        // via discriminant-free hashing.
        assert_ne!(
            hash_of(&Aggregate::Var { level: 0.99 }),
            hash_of(&Aggregate::Tvar { level: 0.99 })
        );
        assert_eq!(
            hash_of(&Aggregate::Var { level: 0.99 }),
            hash_of(&Aggregate::Var { level: 0.99 })
        );
    }

    #[test]
    fn serde_round_trip() {
        let query = QueryBuilder::new()
            .with_perils([Peril::Flood])
            .group_by(Dimension::Lob)
            .aggregate(Aggregate::Tvar { level: 0.95 })
            .build()
            .unwrap();
        let json = serde_json::to_string(&query).unwrap();
        assert_eq!(serde_json::from_str::<Query>(&json).unwrap(), query);
    }
}
