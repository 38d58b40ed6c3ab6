//! `catrisk serve` — a micro-batched TCP query server over a catalog of
//! persistent stores — and `catrisk loadgen` — an open-loop load
//! generator against it.
//!
//! `serve` opens one or more `catrisk-riskstore` files as a
//! [`StoreCatalog`], routes every query across the shards (exact
//! cross-shard merge, bit-identical to one concatenated store), refreshes
//! shards live as ingest writers commit, answers repeated queries from a
//! generation-keyed result cache, and speaks the line protocol of
//! `catrisk-riskserve` until a client sends `shutdown`.  `loadgen` drives
//! a mixed query workload at a running server from many concurrent
//! connections and prints throughput and latency percentiles — with
//! `--refresh-writer` it also appends and commits segments to one shard
//! mid-run, exercising the serve-while-ingesting path under load.

use std::path::{Path, PathBuf};
use std::time::Duration;

use catrisk_riskclient::ClientConfig;
use catrisk_riskserve::{
    loadgen, Fleet, FleetOptions, LoadgenOptions, Server, ServerConfig, StoreCatalog, TcpFrontEnd,
};

use super::Options;

/// Detailed usage of the serve command, shown by `catrisk serve --help`.
pub const SERVE_HELP: &str = "usage: catrisk serve <CATALOG...> [options]

Serves ad-hoc aggregate queries over a catalog of persistent store files,
coalescing concurrent requests into micro-batches (one fused scan per
batch), refreshing shards as ingest writers commit, and caching per-query
results keyed on each shard's committed generation.

CATALOG is either one *directory* of store files, or one or more store
*file* paths:

  catrisk serve /data/stores           every *.clm in the directory, with
                                       auto-discovery: new store files
                                       dropped in later (a `store split`
                                       output, an ingest writer's next
                                       --trial-offset window) are adopted
                                       and served live, without restart
  catrisk serve eu.clm na.clm          a fixed file list (no discovery)

The sharding axis is detected from the stores' trial offsets: offset-0
shards union along the segment axis; shards written with distinct
--trial-offset windows (see `catrisk store write/split`) stitch along
the trial axis, where the server additionally caches per-shard partial
aggregates so a refresh of one shard rescans only that shard's trial
window.  Speaks a line protocol: one query text per line in, one JSON
reply per line out (the normative spec is docs/PROTOCOL.md):

  select mean, tvar(0.99) where peril=HU|FL group by region
  ping | stats | quit | shutdown

The server runs until a client sends `shutdown` (see `catrisk loadgen
--shutdown`).

options:
  --replicas N     serve a replica fleet: spawn N child serve processes
                   over the same catalog directory (requires the
                   directory form), print each replica's address on its
                   own stdout line, restart replicas that die, and exit
                   once every replica has drained a protocol shutdown.
                   Clients spread over the addresses and fail over to a
                   live sibling when a replica dies (see `catrisk
                   loadgen --addr A --addr B`)
  --addr A         listen address (default 127.0.0.1:7433, port 0 = ephemeral)
  --max-batch N    close a batch window at N requests (default 64)
  --window-us U    batch window in microseconds (default 200)
  --queue-depth N  reject submits past N queued requests (default 1024)
  --workers N      batch worker threads (default 2)
  --cache N        result-cache capacity in unique queries (default 1024,
                   0 disables caching)
  --partial-cache N  per-shard partial-aggregate cache capacity in
                   (query, shard) entries, trial-axis catalogs only
                   (default 4096, 0 disables partial caching)
  --refresh-ms MS  minimum milliseconds between shard-header refresh
                   probes (default 0 = probe every batch; raise on slow
                   or networked filesystems to bound per-batch syscalls
                   at the cost of commits surfacing up to MS later)
  --metrics-threshold-us U  batches slower than U microseconds emit a
                   `slow-batch` flight-recorder event (default 0 = off)
  --recorder-capacity N  flight-recorder ring capacity in events
                   (default 256, 0 disables the recorder); dump it live
                   with `catrisk stats --recorder` or the `recorder`
                   protocol command
  --trace-sample N trace every Nth admitted request (1 = every request,
                   default 0 = only requests that ask via the wire
                   `trace` prefix); traced requests build a span-tree
                   execution profile and stamp histogram exemplars
  --trace-capacity N  completed traces retained for `trace <id>` lookups
                   and `catrisk stats --slowest` (default 256, plus a
                   fixed pool of the slowest; 0 disables retention)";

/// Detailed usage of the loadgen command, shown by `catrisk loadgen --help`.
pub const LOADGEN_HELP: &str = "usage: catrisk loadgen [options]

Drives load at a running `catrisk serve` instance from many concurrent
connections and prints throughput, latency percentiles and the server's
cache/refresh counters.  Fails (exit 1) if any request errors or every
reply is empty, so it doubles as a smoke check.

options:
  --addr A         server address (default 127.0.0.1:7433); repeat for
                   every replica of a fleet — clients then spread
                   round-robin and fail over to a live sibling when a
                   replica dies mid-run
  --clients N      concurrent connections (default 32)
  --requests N     total requests across all clients (default 3200)
  --rps R          open-loop target rate, requests/second across all
                   clients; 0 = closed loop (default 0)
  --query LINE     use this query line instead of the built-in mix
  --skewed         replace the mix with the power-law trial-window
                   preset: the run probes the server for its trial
                   count, then fires windowed queries whose lengths
                   halve geometrically — a few full-axis scans among
                   many small windows, the per-request cost skew the
                   scan layer's self-scheduling exists for (takes
                   precedence over --query)
  --connect-timeout S  seconds to retry the initial connect (default 30)
  --refresh-writer PATH  append+commit segments to this served shard file
                   while the clients run (serve-while-ingesting); fails if
                   the commits never become visible to queries.  Repeat
                   for a trial-sharded catalog: each round appends the
                   same new layer to every listed window, which is when
                   the union can serve it
  --refresh-commits N    ingest rounds the writer makes (default 4)
  --refresh-every-ms MS  pause between ingest rounds (default 250)
  --expect-cache-hits    fail unless the server reports a nonzero
                   result-cache hit count after the run
  --expect-partial-hits  fail unless the server reports a nonzero
                   per-shard partial-cache hit count after the run
                   (trial-sharded catalogs only)
  --require-stats  fail (exit 1) when the post-run server stats/metrics
                   scrape cannot be fetched, instead of just warning —
                   set this in CI so a silently absent server-side
                   report cannot pass
  --trace-every N  send every Nth request per client with the `trace`
                   prefix (default 0 = never): the report then prints the
                   slowest traced request's execution profile
  --shutdown       send `shutdown` after the run, stopping the server

The report includes the server's own per-stage latency histograms
(queue wait, scan, batch execution) scraped via the `metrics` protocol
command — see docs/OBSERVABILITY.md for the stage taxonomy.";

/// What the positional `CATALOG` arguments resolved to.
pub(crate) enum ServeSource {
    /// A fixed list of store files.
    Files(Vec<String>),
    /// One catalog directory, served with auto-discovery on.
    Dir(PathBuf),
}

/// Resolves the serve addressing form: positional paths, where a
/// directory means auto-discovery.  The removed `--store` / `--in` flags
/// are rejected by name — [`Options::parse`] accepts any `--key value`,
/// and silently ignoring a path would serve the wrong catalog.
pub(crate) fn resolve_sources(
    positionals: &[String],
    options: &Options,
) -> Result<ServeSource, String> {
    for removed in ["store", "in"] {
        if options.has_value(removed) || options.has_flag(removed) {
            return Err(format!(
                "--{removed} is not an option here: pass store files or one catalog \
                 directory as positional arguments (e.g. `catrisk serve a.clm b.clm`)"
            ));
        }
    }
    let mut files: Vec<String> = Vec::new();
    let mut dirs: Vec<PathBuf> = Vec::new();
    for arg in positionals {
        let path = Path::new(arg);
        if path.is_dir() {
            dirs.push(path.to_path_buf());
        } else {
            files.push(arg.clone());
        }
    }
    match (dirs.len(), files.is_empty()) {
        (0, true) => Err(
            "a catalog argument is required: one directory of store files \
             (auto-discovering) or one or more store file paths (create stores \
             with `catrisk store write`)"
                .to_string(),
        ),
        (0, false) => Ok(ServeSource::Files(files)),
        (1, true) => Ok(ServeSource::Dir(dirs.remove(0))),
        (1, false) => Err("cannot mix a catalog directory with store file paths".to_string()),
        _ => Err("at most one catalog directory is allowed".to_string()),
    }
}

/// Runs the serve command from raw arguments: leading non-`--`
/// arguments are the positional CATALOG paths.
pub fn run_serve_args(args: &[String]) -> Result<(), String> {
    let split = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    let (positionals, rest) = args.split_at(split);
    let options = Options::parse(rest)?;
    run_serve(positionals, &options)
}

/// Runs the serve command: binds the front-end (or spawns the replica
/// fleet) and blocks until shutdown.
pub fn run_serve(positionals: &[String], options: &Options) -> Result<(), String> {
    if options.has_flag("help") {
        println!("{SERVE_HELP}");
        return Ok(());
    }
    let replicas = options.get("replicas", 1usize)?;
    if replicas > 1 {
        return run_fleet(positionals, options, replicas);
    }
    let front = bind_front_end(positionals, options)?;
    front
        .wait()
        .map_err(|e| format!("server terminated abnormally: {e}"))?;
    eprintln!("  server drained and stopped cleanly");
    Ok(())
}

/// Opens the catalog, starts the batching server and binds the TCP
/// listener (split from [`run_serve`] so tests can drive an
/// ephemeral-port instance).
pub(crate) fn bind_front_end(
    positionals: &[String],
    options: &Options,
) -> Result<TcpFrontEnd<StoreCatalog>, String> {
    let source = resolve_sources(positionals, options)?;
    let addr = options.get("addr", "127.0.0.1:7433".to_string())?;
    let config = ServerConfig {
        max_batch: options.get("max-batch", 64usize)?,
        batch_window: Duration::from_micros(options.get("window-us", 200u64)?),
        queue_depth: options.get("queue-depth", 1024usize)?,
        workers: options.get("workers", 2usize)?,
        cache_capacity: options.get("cache", 1024usize)?,
        partial_cache_capacity: options.get("partial-cache", 4096usize)?,
        metrics_threshold_us: options.get("metrics-threshold-us", 0u64)?,
        recorder_capacity: options.get("recorder-capacity", 256usize)?,
        trace_sample_every: options.get("trace-sample", 0u64)?,
        trace_capacity: options.get("trace-capacity", 256usize)?,
    };

    let catalog = match &source {
        ServeSource::Files(stores) => StoreCatalog::open(stores).map_err(|e| e.to_string())?,
        ServeSource::Dir(dir) => StoreCatalog::open_dir(dir).map_err(|e| e.to_string())?,
    };
    catalog.set_refresh_interval(Duration::from_millis(options.get("refresh-ms", 0u64)?));
    if catalog.shard_segments().iter().sum::<usize>() == 0 {
        return Err(format!(
            "catalog holds no committed segments across {} shard(s)",
            catalog.num_shards()
        ));
    }
    eprintln!(
        "  serving a {}-shard {}-axis catalog ({:.1} MB resident):",
        catalog.num_shards(),
        catalog.axis(),
        catalog.memory_bytes() as f64 / 1.0e6
    );
    if let ServeSource::Dir(dir) = &source {
        eprintln!(
            "  auto-discovery on: new store files dropped into {} are adopted live",
            dir.display()
        );
    }
    for line in catalog.describe().lines() {
        eprintln!("    {line}");
    }
    let server = Server::new(catalog, config);
    let front =
        TcpFrontEnd::bind(server, &addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    // The bound address goes to stdout so scripts can capture it (it
    // differs from --addr when port 0 was requested).
    println!("{}", front.local_addr());
    eprintln!(
        "  listening on {} (max-batch {}, window {}us, queue depth {}, {} workers, cache {})",
        front.local_addr(),
        config.max_batch,
        config.batch_window.as_micros(),
        config.queue_depth,
        config.workers,
        config.cache_capacity
    );
    Ok(front)
}

/// Server-tuning options a fleet parent forwards verbatim to each
/// replica child.
const FORWARDED_OPTIONS: &[&str] = &[
    "max-batch",
    "window-us",
    "queue-depth",
    "workers",
    "cache",
    "partial-cache",
    "refresh-ms",
    "metrics-threshold-us",
    "recorder-capacity",
    "trace-sample",
    "trace-capacity",
];

/// `serve --replicas N`: spawn N child serve processes over one catalog
/// directory, print each replica's address on its own stdout line, then
/// monitor — restarting replicas that die on their old address (so
/// client address lists stay valid) — until every replica has drained a
/// protocol shutdown.
fn run_fleet(positionals: &[String], options: &Options, replicas: usize) -> Result<(), String> {
    let ServeSource::Dir(dir) = resolve_sources(positionals, options)? else {
        return Err(
            "--replicas needs a catalog directory every replica can share \
             (`catrisk serve DIR --replicas N`)"
                .to_string(),
        );
    };
    if options.has_value("addr") {
        return Err(
            "--addr cannot be combined with --replicas: each replica picks its own \
             ephemeral port and announces it on stdout"
                .to_string(),
        );
    }
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the catrisk binary: {e}"))?;
    let mut forwarded: Vec<String> = Vec::new();
    for key in FORWARDED_OPTIONS {
        for value in options.get_all(key) {
            forwarded.push(format!("--{key}"));
            forwarded.push(value);
        }
    }
    let dir_arg = dir.to_string_lossy().into_owned();
    let command: catrisk_riskserve::fleet::ReplicaCommand = Box::new(move |_index, pin| {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("serve")
            .arg(&dir_arg)
            .arg("--addr")
            .arg(pin.unwrap_or("127.0.0.1:0"))
            .args(&forwarded);
        cmd
    });
    let mut fleet = Fleet::spawn(
        command,
        FleetOptions {
            replicas,
            client: ClientConfig {
                connect_timeout: Duration::from_millis(500),
                read_timeout: Some(Duration::from_secs(10)),
            },
            spawn_timeout: Duration::from_secs(60),
            stats_staleness: Duration::from_secs(60),
        },
    )
    .map_err(|e| e.to_string())?;

    // The replica addresses go to stdout, one per line, in replica
    // order — the fleet-aware equivalent of single-serve's bound-addr
    // line — so scripts can capture them for `loadgen --addr`.
    for addr in fleet.addrs() {
        println!("{addr}");
    }
    use std::io::Write;
    let _ = std::io::stdout().flush();
    for (index, (addr, pid)) in fleet.addrs().iter().zip(fleet.pids()).enumerate() {
        eprintln!("  replica {index} (pid {pid}) listening on {addr}");
    }
    eprintln!(
        "  fleet of {replicas} replicas over {} (auto-discovery on); \
         stop with `catrisk loadgen --shutdown` against every replica",
        dir.display()
    );

    loop {
        std::thread::sleep(Duration::from_millis(500));
        match fleet.restart_dead() {
            Ok(restarted) => {
                for index in restarted {
                    eprintln!(
                        "  replica {index} died; restarted on {} (pid {})",
                        fleet.addrs()[index],
                        fleet.pids()[index]
                    );
                }
            }
            Err(err) => eprintln!("  warning: replica restart failed (will retry): {err}"),
        }
        if fleet.drained() {
            break;
        }
        let _ = fleet.probe();
    }
    eprintln!("  fleet drained and stopped cleanly");
    Ok(())
}

/// Runs the loadgen command.
pub fn run_loadgen(options: &Options) -> Result<(), String> {
    if options.has_flag("help") {
        println!("{LOADGEN_HELP}");
        return Ok(());
    }
    let loadgen_options = loadgen_options(options)?;
    let report = loadgen::run(&loadgen_options)?;
    println!("{report}");
    if report.ok == 0 {
        return Err("no successful replies".to_string());
    }
    if report.rows == 0 {
        return Err("replies held no result rows".to_string());
    }
    if report.errors > 0 {
        return Err(format!("{} requests failed", report.errors));
    }
    if let Some(ingest) = &report.ingest {
        if !ingest.visible {
            return Err(
                "segments committed during the run never became visible to queries".to_string(),
            );
        }
    }
    if options.has_flag("expect-cache-hits") {
        match &report.server_stats {
            Some(stats) if stats.cache_hits > 0 => {}
            Some(stats) => {
                return Err(format!(
                    "--expect-cache-hits: the server reported zero cache hits ({} misses)",
                    stats.cache_misses
                ));
            }
            None => return Err("--expect-cache-hits: could not fetch server stats".to_string()),
        }
    }
    if options.has_flag("expect-partial-hits") {
        match &report.server_stats {
            Some(stats) if stats.partial_hits > 0 => {}
            Some(stats) => {
                return Err(format!(
                    "--expect-partial-hits: the server reported zero partial-cache hits \
                     ({} shard-window rescans)",
                    stats.partial_misses
                ));
            }
            None => return Err("--expect-partial-hits: could not fetch server stats".to_string()),
        }
    }
    Ok(())
}

pub(crate) fn loadgen_options(options: &Options) -> Result<LoadgenOptions, String> {
    let mut addrs = options.get_all("addr");
    if addrs.is_empty() {
        addrs.push("127.0.0.1:7433".to_string());
    }
    let mut loadgen_options = LoadgenOptions {
        addrs,
        clients: options.get("clients", 32usize)?,
        requests: options.get("requests", 3200usize)?,
        rps: options.get("rps", 0.0f64)?,
        connect_timeout_secs: options.get("connect-timeout", 30u64)?,
        shutdown: options.has_flag("shutdown"),
        refresh_writers: options.get_all("refresh-writer"),
        refresh_commits: options.get("refresh-commits", 4usize)?,
        refresh_every_ms: options.get("refresh-every-ms", 250u64)?,
        require_stats: options.has_flag("require-stats"),
        trace_every: options.get("trace-every", 0u64)?,
        skewed: options.has_flag("skewed"),
        ..LoadgenOptions::default()
    };
    let query = options.get("query", String::new())?;
    if !query.is_empty() {
        loadgen_options.queries = vec![query];
    }
    Ok(loadgen_options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catrisk_riskclient::Client;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn temp_store(name: &str) -> String {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "catrisk-cli-serve-{}-{}.clm",
            std::process::id(),
            name
        ));
        path.to_string_lossy().into_owned()
    }

    fn write_small_store(out: &str, seed: &str) {
        super::super::store::run(&strings(&[
            "write",
            "--out",
            out,
            "--trials",
            "150",
            "--locations",
            "100",
            "--events",
            "2000",
            "--seed",
            seed,
            "--engine",
            "parallel",
        ]))
        .unwrap();
    }

    #[test]
    fn serve_and_loadgen_round_trip() {
        let out = temp_store("roundtrip");
        write_small_store(&out, "5");

        // Ephemeral port: bind the front-end the way `serve` does.
        let serve_options =
            Options::parse(&strings(&["--addr", "127.0.0.1:0", "--trace-sample", "1"])).unwrap();
        let front = bind_front_end(std::slice::from_ref(&out), &serve_options).unwrap();
        let addr = front.local_addr().to_string();

        // Drive it the way `loadgen` does, including the shutdown line and
        // the cache-hit assertion (the mix repeats, so hits must occur).
        let loadgen_args = strings(&[
            "--addr",
            &addr,
            "--clients",
            "8",
            "--requests",
            "64",
            "--expect-cache-hits",
            "--require-stats",
            "--trace-every",
            "4",
            "--shutdown",
        ]);
        run_loadgen(&Options::parse(&loadgen_args).unwrap()).unwrap();
        front.wait().unwrap();
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn serve_catalog_refreshes_while_loadgen_ingests() {
        let shard_a = temp_store("catalog-a");
        let shard_b = temp_store("catalog-b");
        write_small_store(&shard_a, "5");
        write_small_store(&shard_b, "7");

        let serve_options = Options::parse(&strings(&["--addr", "127.0.0.1:0"])).unwrap();
        let front = bind_front_end(&[shard_a.clone(), shard_b.clone()], &serve_options).unwrap();
        assert_eq!(front.server().provider().num_shards(), 2);
        let addr = front.local_addr().to_string();

        // Mid-run, the loadgen ingest writer appends + commits to shard B;
        // run_loadgen fails unless those segments become visible.
        let loadgen_args = strings(&[
            "--addr",
            &addr,
            "--clients",
            "4",
            "--requests",
            "48",
            "--refresh-writer",
            &shard_b,
            "--refresh-commits",
            "2",
            "--refresh-every-ms",
            "20",
            "--expect-cache-hits",
            "--shutdown",
        ]);
        run_loadgen(&Options::parse(&loadgen_args).unwrap()).unwrap();
        front.wait().unwrap();
        let _ = std::fs::remove_file(&shard_a);
        let _ = std::fs::remove_file(&shard_b);
    }

    #[test]
    fn serve_trial_sharded_catalog_reuses_partials_under_ingest() {
        use catrisk_riskserve::ShardAxis;

        // One store, split into two trial windows the server stitches.
        let whole = temp_store("trial");
        write_small_store(&whole, "5");
        let prefix = whole.strip_suffix(".clm").unwrap().to_string();
        super::super::store::run(&strings(&["split", "--in", &whole, "--shards", "2"])).unwrap();
        let parts: Vec<String> = (0..2).map(|k| format!("{prefix}-part{k}.clm")).collect();

        let serve_options = Options::parse(&strings(&["--addr", "127.0.0.1:0"])).unwrap();
        let front = bind_front_end(&[parts[0].clone(), parts[1].clone()], &serve_options).unwrap();
        assert_eq!(front.server().provider().axis(), ShardAxis::Trial);
        let addr = front.local_addr().to_string();

        // The ingest round appends the same layer to both windows,
        // staggered — the gap is where the untouched window's cached
        // partials must keep answering (asserted via the stats the
        // loadgen fetches).
        let loadgen_args = strings(&[
            "--addr",
            &addr,
            "--clients",
            "4",
            "--requests",
            "120",
            "--rps",
            "300",
            "--refresh-writer",
            &parts[0],
            "--refresh-writer",
            &parts[1],
            "--refresh-commits",
            "1",
            "--refresh-every-ms",
            "120",
            "--expect-cache-hits",
            "--expect-partial-hits",
            "--require-stats",
            "--shutdown",
        ]);
        run_loadgen(&Options::parse(&loadgen_args).unwrap()).unwrap();
        front.wait().unwrap();
        let _ = std::fs::remove_file(&whole);
        for part in &parts {
            let _ = std::fs::remove_file(part);
        }
    }

    #[test]
    fn serve_speaks_the_line_protocol() {
        let out = temp_store("protocol");
        write_small_store(&out, "5");
        let serve_options = Options::parse(&strings(&["--addr", "127.0.0.1:0"])).unwrap();
        let front = bind_front_end(std::slice::from_ref(&out), &serve_options).unwrap();

        let mut client = Client::connect(
            &front.local_addr().to_string(),
            catrisk_riskclient::ClientConfig::default(),
        )
        .unwrap();
        let reply = client
            .round_trip("select mean, tvar(0.9) where peril=HU|FL group by region")
            .unwrap();
        assert!(reply.ok, "{reply:?}");
        assert!(!reply.result.unwrap().rows.is_empty());
        let ack = client.round_trip("shutdown").unwrap();
        assert_eq!(ack.kind, "shutting-down");
        front.wait().unwrap();
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn serve_directory_catalog_discovers_new_stores() {
        let dir = {
            let mut dir = std::env::temp_dir();
            dir.push(format!("catrisk-cli-serve-dir-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            dir
        };
        let dir_arg = dir.to_string_lossy().into_owned();
        write_small_store(&format!("{dir_arg}/a.clm"), "5");

        let serve_options = Options::parse(&strings(&["--addr", "127.0.0.1:0"])).unwrap();
        let front = bind_front_end(std::slice::from_ref(&dir_arg), &serve_options).unwrap();
        assert_eq!(front.server().provider().num_shards(), 1);
        let addr = front.local_addr().to_string();
        let mut client =
            Client::connect(&addr, catrisk_riskclient::ClientConfig::default()).unwrap();
        assert!(client.round_trip("select mean group by region").unwrap().ok);

        // Drop a sibling store into the directory: the next query's
        // refresh adopts it, no restart.
        write_small_store(&format!("{dir_arg}/b.clm"), "7");
        assert!(client.round_trip("select mean group by region").unwrap().ok);
        assert_eq!(front.server().provider().num_shards(), 2);
        let stats = client.round_trip("stats").unwrap().stats.unwrap();
        assert_eq!(stats.discovered_stores, 1);

        assert_eq!(client.round_trip("shutdown").unwrap().kind, "shutting-down");
        front.wait().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_errors_are_graceful() {
        let no_args = Options::parse(&strings(&[])).unwrap();
        assert!(
            run_serve(&[], &no_args).is_err(),
            "a catalog argument is required"
        );
        assert!(run_serve(&strings(&["/nonexistent/x.clm"]), &no_args).is_err());
        // An all-empty (never committed) catalog is rejected up front.
        let out = temp_store("empty");
        drop(catrisk_riskstore::StoreWriter::create(&out, 8).unwrap());
        // The removed --store / --in flags are refused by name, through
        // the raw-argument path `catrisk serve` takes — even for a file
        // that exists, and even beside a valid positional catalog.
        for args in [
            vec!["--store", out.as_str()],
            vec!["--in", out.as_str()],
            vec![out.as_str(), "--store", out.as_str()],
        ] {
            let err = run_serve_args(&strings(&args)).unwrap_err();
            assert!(
                err.contains("is not an option here") && err.contains("positional"),
                "{args:?}: {err}"
            );
        }
        assert!(run_serve(std::slice::from_ref(&out), &no_args).is_err());
        // A directory mixed with files, or several directories, is
        // ambiguous and refused.
        let dir = std::env::temp_dir().to_string_lossy().into_owned();
        assert!(run_serve(&[dir.clone(), out.clone()], &no_args).is_err());
        assert!(run_serve(&[dir.clone(), dir.clone()], &no_args).is_err());
        // --replicas requires the directory form and forbids --addr.
        let replicas = Options::parse(&strings(&["--replicas", "2"])).unwrap();
        assert!(run_serve(std::slice::from_ref(&out), &replicas).is_err());
        let pinned =
            Options::parse(&strings(&["--replicas", "2", "--addr", "127.0.0.1:0"])).unwrap();
        assert!(run_serve(&[dir], &pinned).is_err());
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn loadgen_errors_are_graceful() {
        // Nothing listening on a reserved port: typed error, not a panic.
        let options = Options::parse(&strings(&[
            "--addr",
            "127.0.0.1:1",
            "--connect-timeout",
            "0",
            "--requests",
            "4",
        ]))
        .unwrap();
        assert!(run_loadgen(&options).is_err());
    }

    #[test]
    fn help_flags_print() {
        run_serve(&[], &Options::parse(&strings(&["--help"])).unwrap()).unwrap();
        run_loadgen(&Options::parse(&strings(&["--help"])).unwrap()).unwrap();
    }
}
