//! `catrisk store` — write portfolio results to a persistent columnar
//! store file and query it back without re-simulation.
//!
//! `store write` builds the synthetic world, runs the chosen engine, and
//! spills every tagged segment into a `catrisk-riskstore` file with
//! incremental commits (the streaming engine feeds the writer through
//! [`StreamIngestor`]).  `store query` reopens such a file — from this or
//! any earlier process — and answers ad-hoc queries over it.

use catrisk_riskquery::{execute, parse_query, Dimension};
use catrisk_riskserve::{SourceProvider, StoreCatalog};
use catrisk_riskstore::{StoreOptions, StoreReader, StoreWriter, StreamIngestor};
use catrisk_simkit::timing::Stopwatch;

use super::query::{build_segmented_world, print_result, run_engine, unknown_engine, ENGINES};
use super::world::WorldConfig;
use super::Options;

/// Detailed usage of the store command, shown by `catrisk store --help`.
pub const STORE_HELP: &str = "usage: catrisk store <write|query|split|catalog> [options]

write   run the aggregate risk engine over a synthetic world and spill the
        tagged segments into a persistent columnar store file:
  --out PATH       store file to create or append to (required)
  --append         append to an existing store instead of creating
  --trials N       number of YET trials (default 20000)
  --locations N    locations per exposure book (default 2000)
  --events N       catalog size (default 50000)
  --seed S         master random seed (default 2012)
  --engine E       sequential | parallel | chunked | streaming (default streaming)
  --commit-every K commit after every K appended segments (default 8,
                   0 = one commit at the end)
  --page-trials N  trials per checksummed loss page (default 4096; fixed at
                   creation, cannot be changed by --append)
  --trial-offset N stamp the store as covering trials [N, N+trials) of a
                   larger logical trial axis (default 0 = self-contained;
                   fixed at creation).  A trial-sharded ingest fleet gives
                   each writer its own offset; `catrisk serve` stitches
                   the windows back together

query   reopen a store file and answer an ad-hoc aggregate query:
  --in PATH        store file to open (required)
  --select LIST    aggregates: mean, stddev, maxloss, attach, var(l), tvar(l),
                   pml(rp), opml(rp), aep(n), oep(n)   (default \"mean,tvar(0.99)\")
  --where EXPR     filter: dimension=value|value constraints plus
                   trial=start..end and loss>=x / loss<=x / loss=[min,max]
  --group-by LIST  comma-separated: layer, peril, region, lob
  --json           print the result as JSON instead of a table

split   cut an existing store into trial-window shards — the trial-axis
        catalog `catrisk serve` stitches back bit-identically (each shard
        holds every segment over its window, stamped with its offset):
  --in PATH        store file to split (required)
  --shards K       number of equal trial windows (default 2)
  --out-prefix P   shard files are written to P-part<k>.clm (default: the
                   input path minus its extension)

catalog inspect a multi-store catalog: per-shard segment counts, trial
        counts and windows, the sharding axis, commit generations and
        resident sizes, plus the union the query router would serve.
        Takes the same positional CATALOG arguments as `catrisk serve`:
        one directory of store files, or one or more store file paths

examples:
  catrisk store write --out portfolio.clm --trials 50000 --engine streaming
  catrisk store write --out portfolio.clm --append --seed 2013
  catrisk store query --in portfolio.clm \\
      --select \"tvar(0.99),aep(10)\" --where \"peril=HU|FL\" --group-by region
  catrisk store split --in portfolio.clm --shards 4
  catrisk store catalog /data/stores
  catrisk store catalog eu.clm na.clm
  catrisk store catalog portfolio-part0.clm portfolio-part1.clm";

/// Runs the store command: dispatches on the `write` / `query` action.
pub fn run(args: &[String]) -> Result<(), String> {
    let Some(action) = args.first() else {
        println!("{STORE_HELP}");
        return Ok(());
    };
    match action.as_str() {
        "--help" | "help" => {
            println!("{STORE_HELP}");
            Ok(())
        }
        "write" => write(&Options::parse(&args[1..])?),
        "query" => query(&Options::parse(&args[1..])?),
        "split" => split(&Options::parse(&args[1..])?),
        "catalog" => {
            // Same addressing as `catrisk serve`: leading positional
            // paths (a directory or store files).
            let split = args[1..]
                .iter()
                .position(|a| a.starts_with("--"))
                .map_or(args.len(), |p| p + 1);
            catalog(&args[1..split], &Options::parse(&args[split..])?)
        }
        other => Err(format!(
            "unknown store action `{other}` (expected write, query, split or catalog)"
        )),
    }
}

fn write(options: &Options) -> Result<(), String> {
    if options.has_flag("help") {
        println!("{STORE_HELP}");
        return Ok(());
    }
    let out = options.get("out", String::new())?;
    if out.is_empty() {
        return Err("store write needs --out PATH".to_string());
    }
    let config = WorldConfig {
        seed: options.get("seed", 2012u64)?,
        num_events: options.get("events", 50_000u32)?,
        locations: options.get("locations", 2_000usize)?,
        trials: options.get("trials", 20_000usize)?,
    };
    let engine = options.get("engine", "streaming".to_string())?;
    let commit_every = options.get("commit-every", 8usize)?;
    let page_trials = options.get("page-trials", 4096u32)?;
    let trial_offset = options.get("trial-offset", 0u64)?;
    let append = options.has_flag("append");
    if !ENGINES.contains(&engine.as_str()) {
        return Err(unknown_engine(&engine));
    }

    // Open (and for --append, validate against) the store file first, so a
    // bad path or an option mismatch fails before the expensive world
    // build.
    let mut writer = if append {
        StoreWriter::open_append(&out).map_err(|e| e.to_string())?
    } else {
        StoreWriter::create_with(
            &out,
            config.trials,
            StoreOptions {
                page_trials,
                trial_offset,
            },
        )
        .map_err(|e| e.to_string())?
    };
    if writer.num_trials() != config.trials {
        return Err(format!(
            "store `{out}` holds {}-trial segments, the requested world has {} trials",
            writer.num_trials(),
            config.trials
        ));
    }
    if append && options.has_value("page-trials") && writer.page_trials() != page_trials {
        return Err(format!(
            "store `{out}` was created with {}-trial pages; --page-trials {} cannot change \
             an existing store's page size",
            writer.page_trials(),
            page_trials
        ));
    }
    if append && options.has_value("trial-offset") && writer.trial_offset() != trial_offset {
        return Err(format!(
            "store `{out}` covers trials starting at {}; --trial-offset {} cannot move \
             an existing store's window",
            writer.trial_offset(),
            trial_offset
        ));
    }
    let already = writer.num_segments();

    let segmented = build_segmented_world(&config)?;

    let sw = Stopwatch::start();
    if engine == "streaming" {
        // The incremental path: streamed trial blocks feed the writer
        // through the ingestor, committing every `commit_every` segments.
        let mut ingestor =
            StreamIngestor::new(segmented.input.layers().len(), segmented.input.num_trials());
        let mut failed = None;
        catrisk_engine::streaming::StreamingEngine::new(8_192).run_with(
            &segmented.input,
            |_, _, block| {
                if failed.is_none() {
                    failed = ingestor.push_block(block).err();
                }
            },
        );
        if let Some(err) = failed {
            return Err(err.to_string());
        }
        ingestor
            .finish(&mut writer, &segmented.metas, commit_every)
            .map_err(|e| e.to_string())?;
    } else {
        let output = run_engine(&engine, &segmented)?;
        if output.num_layers() != segmented.metas.len() {
            return Err(format!(
                "{} engine layers but {} segment tags",
                output.num_layers(),
                segmented.metas.len()
            ));
        }
        for (ylt, meta) in output.layers().iter().zip(&segmented.metas) {
            writer.append_ylt(ylt, *meta).map_err(|e| e.to_string())?;
            if commit_every > 0 && writer.uncommitted_segments() >= commit_every {
                writer.commit().map_err(|e| e.to_string())?;
            }
        }
    }
    writer.commit().map_err(|e| e.to_string())?;
    let segments = writer.num_segments();
    let commits = writer.commit_seq();
    writer.finish().map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&out).map_err(|e| e.to_string())?.len();
    eprintln!(
        "  {} engine wrote {} segments ({} new) in {} commits, {:.1} MB on disk  [{:.2}s]",
        engine,
        segments,
        segments - already,
        commits,
        bytes as f64 / 1.0e6,
        sw.elapsed_secs()
    );
    println!("{out}");
    Ok(())
}

fn query(options: &Options) -> Result<(), String> {
    if options.has_flag("help") {
        println!("{STORE_HELP}");
        return Ok(());
    }
    let input = options.get("in", String::new())?;
    if input.is_empty() {
        return Err("store query needs --in PATH".to_string());
    }
    let select = options.get("select", "mean,tvar(0.99)".to_string())?;
    let where_clause = options.get("where", String::new())?;
    let group_by = options.get("group-by", String::new())?;
    let as_json = options.has_flag("json");
    let query = parse_query(&select, &where_clause, &group_by).map_err(|e| e.to_string())?;

    let sw = Stopwatch::start();
    let reader = StoreReader::open(&input).map_err(|e| e.to_string())?;
    eprintln!(
        "  opened {}: {} segments x {} trials, {:.1} MB of loss columns, commit {}  [{:.4}s]",
        input,
        reader.num_segments(),
        reader.num_trials(),
        reader.memory_bytes() as f64 / 1.0e6,
        reader.commit_seq(),
        sw.elapsed_secs()
    );

    let sw = Stopwatch::start();
    let result = execute(&reader, &query).map_err(|e| e.to_string())?;
    eprintln!("  query answered in {:.4}s\n", sw.elapsed_secs());

    print_result(&result, as_json)
}

/// `store split`: cut an existing store into trial-window shard files —
/// the inverse of the trial-axis stitch `catrisk serve` performs.  Each
/// shard holds every segment of the input over its window, stamped with
/// the window's offset so `StoreCatalog::open` detects the axis.
fn split(options: &Options) -> Result<(), String> {
    if options.has_flag("help") {
        println!("{STORE_HELP}");
        return Ok(());
    }
    let input = options.get("in", String::new())?;
    if input.is_empty() {
        return Err("store split needs --in PATH".to_string());
    }
    let shards = options.get("shards", 2usize)?;
    if shards == 0 {
        return Err("--shards must be positive".to_string());
    }
    let default_prefix = input
        .strip_suffix(".clm")
        .unwrap_or(input.as_str())
        .to_string();
    let prefix = options.get("out-prefix", default_prefix)?;

    let sw = Stopwatch::start();
    let reader = StoreReader::open(&input).map_err(|e| e.to_string())?;
    if reader.trial_offset() != 0 {
        return Err(format!(
            "store `{input}` is itself a trial shard (offset {}); split the original \
             full-axis store instead",
            reader.trial_offset()
        ));
    }
    let trials = reader.num_trials();
    if trials < shards {
        return Err(format!(
            "cannot split {trials} trials into {shards} non-empty windows"
        ));
    }
    let base = trials / shards;
    let extra = trials % shards;
    let mut start = 0usize;
    for index in 0..shards {
        let len = base + usize::from(index < extra);
        let end = start + len;
        let path = format!("{prefix}-part{index}.clm");
        let mut writer = StoreWriter::create_with(
            &path,
            len,
            StoreOptions {
                // Shards inherit the input's page tuning.
                page_trials: reader.page_trials(),
                trial_offset: start as u64,
            },
        )
        .map_err(|e| e.to_string())?;
        for segment in 0..reader.num_segments() {
            use catrisk_riskquery::SegmentSource;
            writer
                .append_segment(
                    *reader.meta(segment),
                    &SegmentSource::year_losses(&reader, segment)[start..end],
                    &SegmentSource::max_occ_losses(&reader, segment)[start..end],
                )
                .map_err(|e| e.to_string())?;
        }
        writer.finish().map_err(|e| e.to_string())?;
        eprintln!(
            "  wrote {path}: {} segments covering trials {start}..{end}",
            reader.num_segments()
        );
        println!("{path}");
        start = end;
    }
    eprintln!(
        "  split {} segments x {trials} trials into {shards} trial windows  [{:.2}s]",
        reader.num_segments(),
        sw.elapsed_secs()
    );
    Ok(())
}

/// `store catalog`: open the shard list through the exact
/// [`StoreCatalog`] path `catrisk serve` uses (so accept/reject
/// behaviour cannot drift) and print the per-shard state plus the union
/// view the query router serves.
fn catalog(positionals: &[String], options: &Options) -> Result<(), String> {
    if options.has_flag("help") {
        println!("{STORE_HELP}");
        return Ok(());
    }
    let source = super::serve::resolve_sources(positionals, options)
        .map_err(|e| format!("store catalog: {e}"))?;

    let sw = Stopwatch::start();
    let catalog = match &source {
        super::serve::ServeSource::Files(stores) => StoreCatalog::open(stores),
        super::serve::ServeSource::Dir(dir) => StoreCatalog::open_dir(dir),
    }
    .map_err(|e| format!("these shards cannot form one catalog: {e}"))?;
    println!("{}", catalog.describe());
    catalog.with_source(|snapshot| {
        let union = snapshot.source;
        let distinct = |dim| {
            let values = union.metas().iter().map(|meta| meta.value(dim));
            values.collect::<std::collections::HashSet<_>>().len()
        };
        println!(
            "union: {} shards along the {} axis, {} segments x {} trials (generations \
             {:?}); dictionaries: {} layers, {} perils, {} regions, {} lobs  [{:.4}s]",
            catalog.num_shards(),
            catalog.axis(),
            union.num_segments(),
            union.num_trials(),
            snapshot.generations,
            distinct(Dimension::Layer),
            distinct(Dimension::Peril),
            distinct(Dimension::Region),
            distinct(Dimension::Lob),
            sw.elapsed_secs()
        );
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn temp_store(name: &str) -> String {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "catrisk-cli-store-{}-{}.clm",
            std::process::id(),
            name
        ));
        path.to_string_lossy().into_owned()
    }

    fn small_world(out: &str, extra: &[&str]) -> Vec<String> {
        let mut args = strings(&[
            "--out",
            out,
            "--trials",
            "120",
            "--locations",
            "100",
            "--events",
            "2000",
            "--seed",
            "5",
        ]);
        args.extend(strings(extra));
        args
    }

    #[test]
    fn write_then_query_round_trips() {
        let out = temp_store("roundtrip");
        // Streaming (incremental) write with frequent commits.
        run(&[
            vec!["write".to_string()],
            small_world(&out, &["--commit-every", "2", "--page-trials", "64"]),
        ]
        .concat())
        .unwrap();
        // Append a second world run to the same store.
        run(&[
            vec!["write".to_string()],
            small_world(&out, &["--append", "--seed", "7", "--engine", "parallel"]),
        ]
        .concat())
        .unwrap();
        // And query it back.
        run(&strings(&[
            "query",
            "--in",
            &out,
            "--select",
            "mean,tvar(0.9),aep(4)",
            "--where",
            "peril=HU|FL loss>=0",
            "--group-by",
            "region",
            "--json",
        ]))
        .unwrap();
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn catalog_inspects_shards_and_rejects_mismatches() {
        let a = temp_store("catalog-a");
        let b = temp_store("catalog-b");
        run(&[vec!["write".to_string()], small_world(&a, &[])].concat()).unwrap();
        run(&[vec!["write".to_string()], small_world(&b, &["--seed", "9"])].concat()).unwrap();
        run(&strings(&["catalog", &a, &b])).unwrap();

        // A shard with a different trial count cannot join the catalog.
        let c = temp_store("catalog-c");
        let mut mismatched = small_world(&c, &[]);
        let trials_at = mismatched.iter().position(|arg| arg == "120").unwrap();
        mismatched[trials_at] = "64".to_string();
        run(&[vec!["write".to_string()], mismatched].concat()).unwrap();
        assert!(run(&strings(&["catalog", &a, &c])).is_err());

        assert!(
            run(&strings(&["catalog"])).is_err(),
            "a catalog is required"
        );
        assert!(run(&strings(&["catalog", "/nonexistent/x.clm"])).is_err());
        for path in [&a, &b, &c] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn split_produces_a_trial_catalog_equivalent_to_the_whole() {
        use catrisk_riskquery::{execute, parse_select, QueryBuilder, SegmentSource};

        let out = temp_store("split");
        run(&[vec!["write".to_string()], small_world(&out, &[])].concat()).unwrap();
        let prefix = out.strip_suffix(".clm").unwrap().to_string();
        run(&strings(&["split", "--in", &out, "--shards", "3"])).unwrap();
        let parts: Vec<String> = (0..3).map(|k| format!("{prefix}-part{k}.clm")).collect();

        // The parts form a trial-axis catalog the inspector accepts...
        run(&strings(&["catalog", &parts[0], &parts[1], &parts[2]])).unwrap();

        // ...whose stitched answers are bit-identical to the original.
        let whole = StoreReader::open(&out).unwrap();
        let catalog = StoreCatalog::open(&parts).unwrap();
        let mut builder = QueryBuilder::new().group_by(catrisk_riskquery::Dimension::Region);
        for aggregate in parse_select("mean,tvar(0.9),aep(4)").unwrap() {
            builder = builder.aggregate(aggregate);
        }
        let query = builder.build().unwrap();
        let stitched = catalog.with_source(|snapshot| {
            assert_eq!(
                SegmentSource::num_trials(snapshot.source),
                whole.num_trials()
            );
            execute(snapshot.source, &query).unwrap()
        });
        assert_eq!(stitched, execute(&whole, &query).unwrap());

        // Splitting a shard (nonzero offset) is refused; so are bad args.
        assert!(run(&strings(&["split", "--in", &parts[1]])).is_err());
        assert!(run(&strings(&["split"])).is_err(), "--in is required");
        assert!(run(&strings(&["split", "--in", &out, "--shards", "0"])).is_err());
        assert!(run(&strings(&["split", "--in", &out, "--shards", "999"])).is_err());

        let _ = std::fs::remove_file(&out);
        for part in &parts {
            let _ = std::fs::remove_file(part);
        }
    }

    #[test]
    fn store_errors_are_graceful() {
        let out = temp_store("errors");
        assert!(run(&strings(&["frobnicate"])).is_err());
        assert!(run(&strings(&["write"])).is_err(), "--out is required");
        assert!(run(&strings(&["query"])).is_err(), "--in is required");
        assert!(run(&strings(&["query", "--in", "/nonexistent/x.clm"])).is_err());
        assert!(run(&[
            vec!["write".to_string()],
            small_world(&out, &["--engine", "quantum"])
        ]
        .concat())
        .is_err());
        // Appending with a mismatched trial count is rejected.
        run(&[vec!["write".to_string()], small_world(&out, &[])].concat()).unwrap();
        // `catalog` takes positional paths only: the removed --store flag
        // is refused by name, even for a store that exists.
        let err = run(&strings(&["catalog", "--store", &out])).unwrap_err();
        assert!(
            err.starts_with("store catalog: --store is not an option here"),
            "{err}"
        );
        let mut mismatched = small_world(&out, &["--append"]);
        let trials_at = mismatched.iter().position(|a| a == "120").unwrap();
        mismatched[trials_at] = "64".to_string();
        assert!(run(&[vec!["write".to_string()], mismatched].concat()).is_err());
        // So is trying to change the page size of an existing store.
        assert!(run(&[
            vec!["write".to_string()],
            small_world(&out, &["--append", "--page-trials", "64"]),
        ]
        .concat())
        .is_err());
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn store_help_prints() {
        run(&[]).unwrap();
        run(&strings(&["--help"])).unwrap();
        run(&strings(&["write", "--help"])).unwrap();
        run(&strings(&["query", "--help"])).unwrap();
    }
}
