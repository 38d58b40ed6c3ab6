//! Subcommand dispatch and shared option parsing.

mod demo;
mod info;
mod query;
mod quote;
mod serve;
mod stats;
mod store;
mod world;

/// Top-level usage text.
pub const USAGE: &str = "usage: catrisk <command> [options]

commands:
  demo     run the full synthetic pipeline and print risk reports
             --trials N     number of YET trials (default 20000)
             --locations N  locations per exposure set (default 2000)
             --events N     catalog size (default 50000)
             --seed S       master random seed (default 2012)
             --json         print the portfolio report as JSON
  quote    real-time pricing of a Cat XL layer (paper section IV)
             --retention X  occurrence retention (default 5e6)
             --limit X      occurrence limit (default 20e6)
             --trials N     trials per quote (default 50000)
             --seed S       master random seed (default 2012)
  query    ad-hoc aggregate risk queries over a columnar YLT store
             --select LIST  aggregates, e.g. \"mean,tvar(0.99),aep(10)\"
             --where EXPR   filter, e.g. \"peril=HU|FL loss>=1e6 trial=0..10000\"
             --group-by D   group dimensions: layer, peril, region, lob
             run `catrisk query --help` for the full reference and examples
  store    persistent columnar stores: `store write` spills engine results
           to a file (incremental commits), `store query` reopens and
           queries it without re-simulation, `store catalog` inspects a
           multi-store catalog shard by shard
             run `catrisk store --help` for the full reference and examples
  serve    micro-batched TCP query server over a catalog of persistent
           stores — `serve DIR` watches the directory and adopts new
           store files live; `serve a.clm b.clm` serves a fixed list —
           refreshed live as ingest writers commit, with a
           generation-keyed result cache; --replicas N runs a replica
           fleet over one directory (clients fail over between replicas)
             run `catrisk serve --help` for the protocol and options
  loadgen  drive open-loop load at a running serve instance and print
           throughput and latency percentiles; --refresh-writer appends
           segments to a served shard mid-run (serve-while-ingesting)
             run `catrisk loadgen --help` for the options
  stats    scrape a running serve instance's telemetry: counters, per-stage
           latency histograms (--prometheus for raw text exposition), the
           flight-recorder event ring (--recorder, incremental with
           --since), and retained request traces (--trace ID, --slowest N)
             run `catrisk stats --help` for the options
  info     print the simulated device and the SIMD level, worker threads and
           store backing this process runs with";

/// Parsed `--key value` style options.
pub struct Options {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Options {
    /// Parses options of the form `--key value` and bare `--flag`s.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            // A flag is a `--key` not followed by a value.
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                pairs.push((key.to_string(), args[i + 1].clone()));
                i += 2;
            } else {
                flags.push(key.to_string());
                i += 1;
            }
        }
        Ok(Self { pairs, flags })
    }

    /// Value of `--key` parsed as `T`, or `default` when absent.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.pairs.iter().find(|(k, _)| k == key) {
            None => Ok(default),
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("invalid value `{v}` for --{key}")),
        }
    }

    /// Every value of a repeatable `--key value` option, in order.
    pub fn get_all(&self, key: &str) -> Vec<String> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .collect()
    }

    /// True when the bare flag `--key` was given.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// True when `--key value` was given (as opposed to the default being
    /// used).
    pub fn has_value(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }
}

/// Dispatches to the requested subcommand.
pub fn dispatch(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("no command given".to_string());
    };
    if command == "--help" || command == "help" {
        println!("{USAGE}");
        return Ok(());
    }
    // `store` dispatches on its own `write`/`query` action word and
    // `serve` takes positional catalog paths, so both receive the raw
    // arguments.
    if command == "store" {
        return store::run(&args[1..]);
    }
    if command == "serve" {
        return serve::run_serve_args(&args[1..]);
    }
    let options = Options::parse(&args[1..])?;
    match command.as_str() {
        "demo" => demo::run(&options),
        "quote" => quote::run(&options),
        "query" => query::run(&options),
        "loadgen" => serve::run_loadgen(&options),
        "stats" => stats::run(&options),
        "info" => info::run(&options),
        other => Err(format!("unknown command `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_parse_pairs_and_flags() {
        let opts = Options::parse(&strings(&["--trials", "100", "--json", "--seed", "7"])).unwrap();
        assert_eq!(opts.get("trials", 0usize).unwrap(), 100);
        assert_eq!(opts.get("seed", 0u64).unwrap(), 7);
        assert_eq!(opts.get("missing", 42u32).unwrap(), 42);
        assert!(opts.has_flag("json"));
        assert!(!opts.has_flag("verbose"));
    }

    #[test]
    fn options_collect_repeated_values() {
        let opts = Options::parse(&strings(&["--addr", "a:1", "--addr", "b:2"])).unwrap();
        assert_eq!(opts.get_all("addr"), vec!["a:1", "b:2"]);
        assert!(opts.get_all("missing").is_empty());
    }

    #[test]
    fn options_reject_bad_input() {
        assert!(Options::parse(&strings(&["trials", "100"])).is_err());
        let opts = Options::parse(&strings(&["--trials", "abc"])).unwrap();
        assert!(opts.get("trials", 0usize).is_err());
    }

    #[test]
    fn dispatch_errors() {
        assert!(dispatch(&[]).is_err());
        assert!(dispatch(&strings(&["frobnicate"])).is_err());
        assert!(dispatch(&strings(&["help"])).is_ok());
    }

    #[test]
    fn info_command_runs() {
        dispatch(&strings(&["info"])).unwrap();
    }

    #[test]
    fn demo_command_runs_small() {
        dispatch(&strings(&[
            "demo",
            "--trials",
            "200",
            "--locations",
            "150",
            "--events",
            "2000",
            "--seed",
            "3",
        ]))
        .unwrap();
    }

    #[test]
    fn quote_command_runs_small() {
        dispatch(&strings(&[
            "quote",
            "--trials",
            "200",
            "--retention",
            "1e6",
            "--limit",
            "5e6",
            "--seed",
            "3",
        ]))
        .unwrap();
    }
}
