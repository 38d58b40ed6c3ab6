//! The fused-partial equivalence battery: every path that produces a
//! [`TrialPartial`] must agree bit-for-bit with every other, and with
//! the unsharded scan, under any schedule.
//!
//! Three equalities are pinned, each exact (no tolerance):
//!
//! 1. **Fused ≡ per-query.**  `scan_trial_partials_fused` over a batch
//!    of plans emits, per plan, the same partial `scan_trial_partial`
//!    (the reference, unfused loop) produces alone — the fusion shares
//!    the block walk, never the arithmetic.
//! 2. **Stitched ≡ unsharded.**  Combining the per-window partials
//!    through `combine_trial_partial_refs` reproduces `execute` on the
//!    unsplit store, across random trial splits.
//! 3. **Schedule-independence.**  Both equalities hold at every thread
//!    count (1/2/8) and every available SIMD lane width (the same sweep
//!    `CATRISK_SIMD` exposes), because trial-block partials merge by
//!    exact concatenation and the kernels are bit-identical across
//!    levels.
//!
//! A second set of deterministic tests pins the segment-axis combine's
//! ±0.0 edge cases: the monoid-identity argument (ARCHITECTURE.md §3)
//! only holds because the kernel normalises `-0.0` on init, so stores
//! built *entirely* of `-0.0` loss columns, empty shards, and empty
//! trial clips must all still combine to the fused union's exact bits.

use proptest::prelude::*;

use catrisk_engine::ylt::{TrialOutcome, YearLossTable};
use catrisk_eventgen::peril::{Peril, Region};
use catrisk_finterms::layer::LayerId;
use catrisk_riskquery::kernel;
use catrisk_riskquery::prelude::*;
use catrisk_riskquery::{
    combine, combine_trial_partial_refs, finalize, scan_trial_partial, scan_trial_partials_fused,
    split_plan_by_segments, QueryPlan, TrialPartial,
};
use catrisk_simkit::rng::RngFactory;

/// Restores the SIMD override and the scan-granularity knob on scope
/// exit, so a failing case cannot poison later tests in the process.
struct RestoreKnobs;

impl Drop for RestoreKnobs {
    fn drop(&mut self) {
        kernel::force_level(None);
        kernel::set_scan_chunks_per_thread(None);
    }
}

fn random_store(trials: usize, segments: usize, seed: u64) -> ResultStore {
    let factory = RngFactory::new(seed).derive("partial-equivalence");
    let mut store = ResultStore::new(trials);
    for s in 0..segments {
        let mut rng = factory.stream(s as u64);
        let outcomes: Vec<TrialOutcome> = (0..trials)
            .map(|_| {
                let year = if rng.uniform() < 0.4 {
                    rng.uniform() * 1.0e6
                } else {
                    0.0
                };
                TrialOutcome {
                    year_loss: year,
                    max_occurrence_loss: year * rng.uniform(),
                    nonzero_events: u32::from(year > 0.0),
                }
            })
            .collect();
        let meta = SegmentMeta::new(
            LayerId((s / 2) as u32),
            Peril::ALL[s % Peril::ALL.len()],
            Region::ALL[(s / 3) % Region::ALL.len()],
            LineOfBusiness::ALL[s % LineOfBusiness::ALL.len()],
        );
        store
            .ingest(&YearLossTable::new(LayerId((s / 2) as u32), outcomes), meta)
            .expect("ingest");
    }
    store
}

/// The query pool random batches are drawn from: scalar metrics, order
/// statistics, curves, dimension filters, trial windows, loss ranges,
/// and two entries that *share* a scan spec (same filter + grouping,
/// different aggregates), whose plans ride the fused pass as duplicates.
fn query_pool(trials: usize) -> Vec<Query> {
    vec![
        QueryBuilder::new()
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::Tvar { level: 0.97 })
            .build()
            .unwrap(),
        QueryBuilder::new()
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::StdDev)
            .build()
            .unwrap(),
        QueryBuilder::new()
            .with_perils([Peril::Hurricane, Peril::Flood])
            .group_by(Dimension::Region)
            .aggregate(Aggregate::Var { level: 0.95 })
            .aggregate(Aggregate::EpCurve {
                basis: Basis::Aep,
                points: 5,
            })
            .build()
            .unwrap(),
        QueryBuilder::new()
            .trials(1..trials.max(2) - 1)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::MaxLoss)
            .build()
            .unwrap(),
        QueryBuilder::new()
            .group_by(Dimension::Layer)
            .loss_at_least(2.0e5)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap(),
        QueryBuilder::new()
            .group_by(Dimension::Lob)
            .aggregate(Aggregate::Pml {
                return_period: 50.0,
                basis: Basis::Oep,
            })
            .build()
            .unwrap(),
    ]
}

/// Runs the whole fused-vs-per-query-vs-execute comparison for one
/// (store, queries, cuts) instance under whatever pool/SIMD level is
/// currently installed.  Panics (via assert) on any bit divergence.
fn check_fused_equivalence(store: &ResultStore, queries: &[Query], bounds: &[usize]) {
    let plans: Vec<QueryPlan> = queries
        .iter()
        .map(|query| QueryPlan::new(store, query).expect("plan"))
        .collect();

    // Per query, the per-window partials accumulated in window order.
    let mut parts: Vec<Vec<TrialPartial>> = (0..queries.len()).map(|_| Vec::new()).collect();
    for window in bounds.windows(2) {
        // Group the plans by clipped window, exactly as the serving
        // planner does: each group rides one fused scan.
        let mut groups: Vec<((usize, usize), Vec<usize>)> = Vec::new();
        for (index, plan) in plans.iter().enumerate() {
            let clip = (
                window[0].clamp(plan.trial_start, plan.trial_end),
                window[1].clamp(plan.trial_start, plan.trial_end),
            );
            match groups.iter_mut().find(|(existing, _)| *existing == clip) {
                Some((_, members)) => members.push(index),
                None => groups.push((clip, vec![index])),
            }
        }
        for ((start, end), members) in groups {
            let group_plans: Vec<&QueryPlan> = members.iter().map(|&m| &plans[m]).collect();
            let fused = scan_trial_partials_fused(store, &group_plans, start, end);
            assert_eq!(fused.len(), members.len());
            for (&member, fused_part) in members.iter().zip(fused) {
                // Equality 1: the fused scan's partial for this plan is
                // bit-identical to the lone per-query scan's.
                let solo = scan_trial_partial(store, &plans[member], start, end);
                assert_eq!(
                    fused_part, solo,
                    "fused partial diverged from the per-query scan \
                     (query {member}, window [{start}, {end}))"
                );
                parts[member].push(fused_part);
            }
        }
    }

    // Equality 2: the stitched partials reproduce the unsharded scan.
    for (index, (query, parts)) in queries.iter().zip(&parts).enumerate() {
        let refs: Vec<&TrialPartial> = parts.iter().collect();
        let stitched = combine_trial_partial_refs(query, &refs).expect("stitch");
        let flat = execute(store, query).expect("execute");
        assert_eq!(
            stitched, flat,
            "stitched fused partials diverged from execute (query {index})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The battery: random query batches × random trial splits × thread
    /// counts (1/2/8) × every available SIMD level, all bit-identical.
    #[test]
    fn fused_partials_match_per_query_and_execute(
        trials in 8..96usize,
        segments in 1..12usize,
        shards in 1..5usize,
        seed in 0..400u64,
        query_mask in 1..64u32,
    ) {
        let _restore = RestoreKnobs;
        let store = random_store(trials, segments, seed);
        let pool_queries = query_pool(trials);
        let queries: Vec<Query> = pool_queries
            .iter()
            .enumerate()
            .filter(|(index, _)| query_mask & (1 << index) != 0)
            .map(|(_, query)| query.clone())
            .collect();
        // query_mask ∈ [1, 64) always selects at least one of the six.
        prop_assert!(!queries.is_empty());

        // Deterministic, seed-dependent trial cuts.
        let shards = shards.min(trials);
        let mut bounds: Vec<usize> = (0..shards - 1)
            .map(|k| 1 + (seed as usize * 29 + k * 13 + k * k * 5) % (trials - 1))
            .collect();
        bounds.push(0);
        bounds.push(trials);
        bounds.sort_unstable();
        bounds.dedup();

        for level in kernel::available_levels() {
            kernel::force_level(Some(level));
            for threads in [1usize, 2, 8] {
                let pool = catrisk_simkit::parallel::build_pool(threads);
                pool.install(|| check_fused_equivalence(&store, &queries, &bounds));
            }
        }
    }
}

/// A store whose every loss value is `-0.0`: the adversarial input for
/// the ±0.0 monoid-identity argument.  The kernel normalises on init
/// (`0.0 + v` / clamp-to-`+0.0`), so partials built from it contain no
/// `-0.0` and combine against the identity vector without changing bits.
fn minus_zero_store(trials: usize, segments: usize) -> ResultStore {
    let mut store = ResultStore::new(trials);
    for s in 0..segments {
        let outcomes: Vec<TrialOutcome> = (0..trials)
            .map(|_| TrialOutcome {
                year_loss: -0.0,
                max_occurrence_loss: -0.0,
                nonzero_events: 0,
            })
            .collect();
        let meta = SegmentMeta::new(
            LayerId((s / 2) as u32),
            Peril::ALL[s % Peril::ALL.len()],
            Region::ALL[s % Region::ALL.len()],
            LineOfBusiness::ALL[s % LineOfBusiness::ALL.len()],
        );
        store
            .ingest(&YearLossTable::new(LayerId((s / 2) as u32), outcomes), meta)
            .expect("ingest");
    }
    store
}

/// Splits `[0, num_segments)` at `cut` and runs the full segment-axis
/// combine (split → one fused scan of both restricted plans → `combine`
/// along segments → `finalize`), asserting bit-equality with the flat
/// `execute` — the exact shape the serving executor runs per scan spec.
fn check_segment_combine(store: &ResultStore, query: &Query, cut: usize) {
    let total = store.num_segments();
    let ranges = [(0usize, cut), (cut, total)];
    let plan = QueryPlan::new(store, query).expect("plan");
    let restricted =
        split_plan_by_segments(&plan, &ranges).expect("test setup must produce an aligned plan");
    let plan_refs: Vec<&QueryPlan> = restricted.iter().collect();
    let partials = scan_trial_partials_fused(store, &plan_refs, plan.trial_start, plan.trial_end);
    let part_refs: Vec<&TrialPartial> = partials.iter().collect();
    let combined = combine(&plan, &part_refs, ranges.len()).expect("combine");
    let results = finalize(
        [query],
        &plan.keys,
        &plan.segment_counts(),
        plan.num_trials(),
        &combined,
    );
    assert_eq!(
        results,
        [execute(store, query).expect("execute")],
        "segment-axis combine diverged from the flat scan"
    );
}

/// All-`-0.0` loss columns survive the segment-axis combine bit-for-bit:
/// the normalised partials sum against identity vectors without
/// resurrecting `-0.0`.
#[test]
fn segment_combine_of_minus_zero_columns_is_bit_identical() {
    let store = minus_zero_store(16, 6);
    let query = QueryBuilder::new()
        .group_by(Dimension::Layer)
        .aggregate(Aggregate::Mean)
        .aggregate(Aggregate::MaxLoss)
        .build()
        .unwrap();
    // Layer groups are segment pairs (s / 2), so any even cut is aligned.
    check_segment_combine(&store, &query, 2);
    check_segment_combine(&store, &query, 4);
}

/// An empty shard range contributes only identity vectors: the combine
/// over `[(0, n), (n, n)]` must equal the flat scan exactly, and the
/// empty shard's restricted plan must carry no groups at all.
#[test]
fn segment_combine_with_empty_shard_is_bit_identical() {
    let store = random_store(24, 6, 9);
    let total = store.num_segments();
    let query = QueryBuilder::new()
        .group_by(Dimension::Layer)
        .loss_at_least(1.0e5)
        .aggregate(Aggregate::Mean)
        .aggregate(Aggregate::Tvar { level: 0.95 })
        .build()
        .unwrap();
    let plan = QueryPlan::new(&store, &query).expect("plan");
    let split = split_plan_by_segments(&plan, &[(0, total), (total, total)]).expect("aligned");
    assert!(
        split[1].segments.is_empty() && split[1].keys.is_empty(),
        "an empty range must restrict to an empty plan"
    );
    check_segment_combine(&store, &query, total);
    check_segment_combine(&store, &query, 0);
}

/// A trial window clipped to emptiness on one shard stitches exactly:
/// the empty-clip partial is the zero-trial monoid identity, and the
/// stitched result matches the flat scan of the filtered window — also
/// under all-`-0.0` columns, where the identity claim is sharpest.
#[test]
fn empty_trial_clip_stitches_bit_identically() {
    for store in [random_store(32, 5, 11), minus_zero_store(32, 5)] {
        let query = QueryBuilder::new()
            .trials(0..16)
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::EpCurve {
                basis: Basis::Oep,
                points: 4,
            })
            .build()
            .unwrap();
        let plan = QueryPlan::new(&store, &query).expect("plan");
        // Shard windows [0, 16) and [16, 32): the second clips to the
        // empty window [16, 16).
        let clips = [(0usize, 16usize), (16, 16)];
        let parts: Vec<TrialPartial> = clips
            .iter()
            .map(|&(start, end)| scan_trial_partial(&store, &plan, start, end))
            .collect();
        assert_eq!(parts[1].window, (16, 16), "the clip must be empty");
        let refs: Vec<&TrialPartial> = parts.iter().collect();
        let stitched = combine_trial_partial_refs(&query, &refs).expect("stitch");
        assert_eq!(
            stitched,
            execute(&store, &query).expect("execute"),
            "empty-clip stitch diverged from the flat scan"
        );
    }
}
