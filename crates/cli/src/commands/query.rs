//! `catrisk query` — ad-hoc aggregate risk queries over a dimension-sliced
//! synthetic world (the QuPARA-style serving path).
//!
//! The command builds the synthetic world, slices each exposure book's ELT
//! by peril into tagged segments, runs the chosen engine once, ingests the
//! Year Loss Tables into the columnar store, and answers the query given by
//! `--select` / `--where` / `--group-by`.

use std::sync::Arc;

use catrisk_engine::chunked::ChunkedEngine;
use catrisk_engine::parallel::ParallelEngine;
use catrisk_engine::sequential::SequentialEngine;
use catrisk_engine::streaming::StreamingEngine;
use catrisk_engine::ylt::AnalysisOutput;
use catrisk_finterms::terms::LayerTerms;
use catrisk_riskquery::{execute, parse_query, LineOfBusiness, SegmentedBook, SegmentedInput};
use catrisk_simkit::timing::Stopwatch;

use super::world::{World, WorldConfig};
use super::Options;

/// Detailed usage of the query command, shown by `catrisk query --help`.
pub const QUERY_HELP: &str = "usage: catrisk query [options]

Builds a synthetic world, slices it into (book, peril) segments tagged with
peril / region / line of business / layer, runs the aggregate risk engine,
and answers an ad-hoc aggregate query over the resulting columnar store.

options:
  --trials N       number of YET trials (default 20000)
  --locations N    locations per exposure book (default 2000)
  --events N       catalog size (default 50000)
  --seed S         master random seed (default 2012)
  --engine E       sequential | parallel | chunked | streaming (default parallel)
  --select LIST    aggregates: mean, stddev, maxloss, attach, var(l), tvar(l),
                   pml(rp), opml(rp), aep(n), oep(n)      (default \"mean,tvar(0.99)\")
  --where EXPR     filter: space-separated dimension=value|value constraints
                   over peril, region, lob, layer, plus trial=start..end and
                   loss ranges loss>=x, loss<=x, loss=[min,max]
  --group-by LIST  comma-separated: layer, peril, region, lob
  --json           print the result as JSON instead of a table
  --profile        answer through an in-process traced server and print
                   the request's span-tree execution profile (queue,
                   refresh, cache lookup, scan with per-shard
                   attribution) to stderr alongside the result

examples:
  # TVaR and an aggregate EP curve of hurricane+flood losses, by region:
  catrisk query --trials 50000 \\
      --select \"tvar(0.99),aep(10)\" --where \"peril=HU|FL\" --group-by region

  # Occurrence PML at 250 years per line of business over the first 10k trials:
  catrisk query --select \"opml(250),mean\" --where \"trial=0..10000\" --group-by lob";

/// Runs the query command.
pub fn run(options: &Options) -> Result<(), String> {
    if options.has_flag("help") {
        println!("{QUERY_HELP}");
        return Ok(());
    }
    let config = WorldConfig {
        seed: options.get("seed", 2012u64)?,
        num_events: options.get("events", 50_000u32)?,
        locations: options.get("locations", 2_000usize)?,
        trials: options.get("trials", 20_000usize)?,
    };
    let engine = options.get("engine", "parallel".to_string())?;
    let select = options.get("select", "mean,tvar(0.99)".to_string())?;
    let where_clause = options.get("where", String::new())?;
    let group_by = options.get("group-by", String::new())?;
    let as_json = options.has_flag("json");

    // Assemble the query up front so malformed input fails fast, before the
    // expensive world build.
    let query = parse_query(&select, &where_clause, &group_by).map_err(|e| e.to_string())?;
    if !ENGINES.contains(&engine.as_str()) {
        return Err(unknown_engine(&engine));
    }

    let segmented = build_segmented_world(&config)?;

    let sw = Stopwatch::start();
    let output = run_engine(&engine, &segmented)?;
    let store = segmented.ingest(&output).map_err(|e| e.to_string())?;
    eprintln!(
        "  {} engine produced {} YLTs, store holds {:.1} MB of loss columns  [{:.2}s]",
        engine,
        output.num_layers(),
        store.memory_bytes() as f64 / 1.0e6,
        sw.elapsed_secs()
    );

    let sw = Stopwatch::start();
    if options.has_flag("profile") {
        // The same execution path a server request takes, traced: the
        // profile is the real span taxonomy, not a re-implementation.
        let server = catrisk_riskserve::Server::new(
            Arc::new(store),
            catrisk_riskserve::ServerConfig {
                workers: 1,
                ..catrisk_riskserve::ServerConfig::default()
            },
        );
        let reply = server
            .submit_traced(query)
            .map_err(|e| e.to_string())?
            .wait()
            .map_err(|e| e.to_string())?;
        eprintln!("  query answered in {:.4}s\n", sw.elapsed_secs());
        let trace = reply
            .trace
            .as_ref()
            .expect("a traced submit yields a profile");
        eprintln!("{trace}\n");
        return print_result(&reply.result, as_json);
    }
    let result = execute(&store, &query).map_err(|e| e.to_string())?;
    eprintln!("  query answered in {:.4}s\n", sw.elapsed_secs());

    print_result(&result, as_json)
}

/// Prints a query result as a table, or as JSON under `--json` (shared by
/// `query` and `store query`).
pub(crate) fn print_result(
    result: &catrisk_riskquery::QueryResult,
    as_json: bool,
) -> Result<(), String> {
    if as_json {
        println!(
            "{}",
            serde_json::to_string_pretty(result).map_err(|e| e.to_string())?
        );
    } else {
        println!("{result}");
    }
    Ok(())
}

/// Builds the synthetic world and slices it into tagged `(book, peril)`
/// segments (shared by `query` and `store write`).  Lines of business are
/// assigned round-robin so the lob dimension is populated.
pub(crate) fn build_segmented_world(config: &WorldConfig) -> Result<SegmentedInput, String> {
    eprintln!(
        "building synthetic world: {} events, {} locations/book, {} trials ...",
        config.num_events, config.locations, config.trials
    );
    let sw = Stopwatch::start();
    let world = World::build(config)?;

    let books: Vec<SegmentedBook> = world
        .elts
        .iter()
        .zip(&world.books)
        .enumerate()
        .map(|(i, (elt, (_, region)))| {
            let scale = (elt.total_mean_loss() / 1_000.0).max(1.0);
            Ok::<SegmentedBook, String>(SegmentedBook {
                pairs: elt.loss_pairs(),
                financial_terms: elt.financial_terms,
                layer_terms: LayerTerms::new(0.05 * scale, 5.0 * scale, 0.0, 20.0 * scale)
                    .map_err(|e| e.to_string())?,
                region: *region,
                lob: LineOfBusiness::ALL[i % LineOfBusiness::ALL.len()],
            })
        })
        .collect::<Result<_, _>>()?;

    let segmented = SegmentedInput::build(Arc::clone(&world.yet), &world.catalog, &books)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "  {} segments over {} books  [{:.2}s]",
        segmented.metas.len(),
        books.len(),
        sw.elapsed_secs()
    );
    Ok(segmented)
}

/// Engine names accepted by `--engine`, the single source for both the
/// fail-fast check and `run_engine`'s dispatch error.
pub(crate) const ENGINES: [&str; 4] = ["sequential", "parallel", "chunked", "streaming"];

pub(crate) fn unknown_engine(name: &str) -> String {
    format!("unknown engine `{name}` (expected {})", ENGINES.join(", "))
}

pub(crate) fn run_engine(
    engine: &str,
    segmented: &SegmentedInput,
) -> Result<AnalysisOutput, String> {
    match engine {
        "sequential" => Ok(SequentialEngine::new().run(&segmented.input)),
        "parallel" => Ok(ParallelEngine::new().run(&segmented.input)),
        "chunked" => Ok(ChunkedEngine::default().run(&segmented.input)),
        "streaming" => {
            // Reassemble the streamed blocks into a full output.
            let mut outcomes: Vec<Vec<catrisk_engine::ylt::TrialOutcome>> =
                vec![Vec::new(); segmented.input.layers().len()];
            StreamingEngine::new(8_192).run_with(&segmented.input, |_, _, block| {
                for (i, ylt) in block.layers().iter().enumerate() {
                    outcomes[i].extend_from_slice(ylt.outcomes());
                }
            });
            Ok(AnalysisOutput::new(
                segmented
                    .input
                    .layers()
                    .iter()
                    .zip(outcomes)
                    .map(|(layer, outcomes)| {
                        catrisk_engine::ylt::YearLossTable::new(layer.id, outcomes)
                    })
                    .collect(),
            ))
        }
        other => Err(unknown_engine(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn query_command_runs_small() {
        let options = Options::parse(&strings(&[
            "--trials",
            "150",
            "--locations",
            "120",
            "--events",
            "2500",
            "--seed",
            "5",
            "--select",
            "mean,tvar(0.99),aep(4)",
            "--where",
            "peril=HU|FL|EQ",
            "--group-by",
            "region",
        ]))
        .unwrap();
        run(&options).unwrap();
    }

    #[test]
    fn query_command_group_by_lob_and_json() {
        let options = Options::parse(&strings(&[
            "--trials",
            "100",
            "--locations",
            "100",
            "--events",
            "2000",
            "--seed",
            "5",
            "--select",
            "opml(50),mean",
            "--where",
            "trial=0..80",
            "--group-by",
            "lob",
            "--engine",
            "sequential",
            "--json",
        ]))
        .unwrap();
        run(&options).unwrap();
    }

    #[test]
    fn query_command_profile_prints_a_trace() {
        let options = Options::parse(&strings(&[
            "--trials",
            "100",
            "--locations",
            "100",
            "--events",
            "2000",
            "--seed",
            "5",
            "--select",
            "mean",
            "--group-by",
            "peril",
            "--profile",
        ]))
        .unwrap();
        run(&options).unwrap();
    }

    #[test]
    fn query_command_rejects_bad_input_without_panicking() {
        for args in [
            vec!["--select", "frobnicate"],
            vec!["--select", "var(nope)"],
            vec!["--where", "peril=Atlantis"],
            vec!["--where", "trial=9..3"],
            vec!["--group-by", "continent"],
            vec![
                "--engine",
                "quantum",
                "--trials",
                "50",
                "--locations",
                "50",
                "--events",
                "1000",
            ],
        ] {
            let options = Options::parse(&strings(&args)).unwrap();
            assert!(run(&options).is_err(), "{args:?} must fail gracefully");
        }
    }

    #[test]
    fn query_help_flag_prints() {
        let options = Options::parse(&strings(&["--help"])).unwrap();
        run(&options).unwrap();
    }
}
