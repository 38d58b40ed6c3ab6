//! What every workload shares: arguments, the span recorder, sample
//! statistics, the metric sink and the result line.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use crate::spec;

/// Problem size: `Full` is what `BENCHMARK.json` measures, `Smoke` is the
/// same code on inputs small enough for a test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    /// Picks the full or the smoke value of a size.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// Arguments of `ledger run`.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub out: Option<PathBuf>,
}

/// One recorded span.  `layer` is the crate the call goes into; `op`
/// is shared by every span of one quote / materialisation / request.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub call: &'static str,
    pub op: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Overlaps its siblings in time (one of many in-flight requests of a
    /// burst): written to the trace, left out of the self-time partition.
    pub concurrent: bool,
}

/// In-memory span recorder for the single driver thread.  Disabled it
/// costs one branch per call.
pub struct Recorder {
    epoch: Instant,
    enabled: Cell<bool>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            enabled: Cell::new(false),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(enabled);
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; `None` when disabled.
    pub fn enter(&self, layer: &'static str, call: &'static str, op: u64) -> Option<u32> {
        if !self.enabled.get() {
            return None;
        }
        let mut spans = self.spans.borrow_mut();
        let index = spans.len() as u32;
        spans.push(Span {
            layer,
            call,
            op,
            parent: self.open.borrow().last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            concurrent: false,
        });
        self.open.borrow_mut().push(index);
        Some(index)
    }

    pub fn exit(&self, index: Option<u32>) {
        let Some(index) = index else { return };
        let end = self.now_ns();
        let popped = self.open.borrow_mut().pop();
        assert_eq!(popped, Some(index), "spans must close innermost first");
        self.spans.borrow_mut()[index as usize].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        layer: &'static str,
        call: &'static str,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = self.enter(layer, call, op);
        let out = f();
        self.exit(index);
        out
    }

    /// Runs `f` with recording off inside one `bench` span, so a phase that
    /// must run untraced is still attributed (to the harness).
    pub fn muted<T>(&self, call: &'static str, f: impl FnOnce() -> T) -> T {
        let index = self.enter("bench", call, 0);
        let was = self.enabled.replace(false);
        let out = f();
        self.enabled.set(was);
        self.exit(index);
        out
    }

    /// Attaches an already-timed interval under `parent`, clipped to it.
    /// Used for what a reply reports about itself (`RequestTimings`).
    #[allow(clippy::too_many_arguments)]
    pub fn attach(
        &self,
        parent: Option<u32>,
        layer: &'static str,
        call: &'static str,
        op: u64,
        start_ns: u64,
        len_ns: u64,
        concurrent: bool,
    ) -> Option<u32> {
        let parent = parent?;
        let mut spans = self.spans.borrow_mut();
        let (lo, hi) = {
            let p = &spans[parent as usize];
            (p.start_ns, if p.end_ns == 0 { u64::MAX } else { p.end_ns })
        };
        let start = start_ns.clamp(lo, hi);
        let end = start.saturating_add(len_ns).min(hi);
        spans.push(Span {
            layer,
            call,
            op,
            parent: Some(parent),
            start_ns: start,
            end_ns: end,
            concurrent,
        });
        Some(spans.len() as u32 - 1)
    }

    /// End of a recorded span (0 for none: `attach` clips it forward).
    pub fn end_of(&self, index: Option<u32>) -> u64 {
        index.map_or(0, |i| self.spans.borrow()[i as usize].end_ns)
    }

    /// Per-layer self time (span minus its non-concurrent children) in
    /// seconds, plus the root's wall.  The layers partition the root:
    /// they sum to its wall exactly, the root's own self time being the
    /// unattributed residual (returned under the layer `"unattributed"`).
    pub fn self_times(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let spans = self.spans.borrow();
        let mut covered = vec![0u64; spans.len()];
        for span in spans.iter().filter(|s| !s.concurrent) {
            if let Some(parent) = span.parent {
                covered[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut wall = 0.0;
        for (index, span) in spans.iter().enumerate().filter(|(_, s)| !s.concurrent) {
            let dur = span.end_ns - span.start_ns;
            let own = dur.saturating_sub(covered[index]) as f64 / 1e9;
            if span.parent.is_none() {
                wall += dur as f64 / 1e9;
                *layers.entry("unattributed").or_default() += own;
            } else {
                *layers.entry(span.layer).or_default() += own;
            }
        }
        (layers, wall)
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        let spans = self.spans.borrow();
        for (index, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if index + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{index},\"parent\":{parent},\"name\":\"{}.{}\",\"op\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"concurrent\":{}}}{comma}",
                s.layer, s.call, s.op, s.start_ns, s.end_ns, s.concurrent
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Timing samples of one kind.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median (mean of the two middle values for an even count); 0 when
    /// empty.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// Nearest-rank percentile; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }
}

/// One slice of a measured loop.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub ops_per_s: f64,
    pub p50_s: f64,
    pub tail_s: f64,
}

/// Length of the slices a loop is cut into.
const SLICE_S: f64 = 1.0;

/// Per-operation latencies of one measured loop, with completion times.
///
/// The sandbox's noise is not white: a neighbour's burst slows every
/// operation for seconds at a time, so a whole-run median moves by ±15 %
/// between runs of one binary.  The loop is therefore cut into slices of
/// at least one second — longer than the system's own periodic work,
/// shorter than a noisy episode — each slice yields its throughput, median
/// and tail, and the end-to-end metrics report the *quiet quartile* across
/// slices (25th percentile of the latencies, 75th of the throughputs): what
/// the system does when the host lets it, which is the part a code change
/// moves.
#[derive(Debug, Clone, Default)]
pub struct OpLog {
    /// `(completed at, latency)`, seconds, in completion order.
    ops: Vec<(f64, f64)>,
    /// Operation counts at which a period of the workload's own ended
    /// (see [`OpLog::end_period`]); empty when every operation is one.
    periods: Vec<usize>,
}

impl OpLog {
    pub fn push(&mut self, completed_at_s: f64, latency_s: f64) {
        self.ops.push((completed_at_s, latency_s));
    }

    /// Ends a period of the workload's own rhythm (a commit cycle).  A log
    /// with periods is only ever cut between them, so no slice holds a
    /// cycle and a half and reads as a different system than its
    /// neighbour; operations after the last period end are left out.
    pub fn end_period(&mut self) {
        self.periods.push(self.ops.len());
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn latencies(&self) -> Samples {
        Samples(self.ops.iter().map(|&(_, latency)| latency).collect())
    }

    /// Cuts the loop into consecutive slices, each closed by the first
    /// period end (by default: operation) completing a second or more
    /// after the slice began, so a slice never lacks an operation; a short
    /// remainder joins the last slice.
    pub fn slices(&self, tail_pct: f64) -> Vec<Slice> {
        let every_op: Vec<usize>;
        let cuts = if self.periods.is_empty() {
            every_op = (1..=self.ops.len()).collect();
            &every_op
        } else {
            &self.periods
        };
        let mut bounds: Vec<(usize, usize, f64)> = Vec::new();
        let (mut first, mut began) = (0usize, 0.0f64);
        for &cut in cuts.iter().filter(|&&cut| cut > 0) {
            let at = self.ops[cut - 1].0;
            if cut > first && at - began >= SLICE_S {
                bounds.push((first, cut, at - began));
                first = cut;
                began = at;
            }
        }
        let end = cuts.last().copied().unwrap_or(0);
        if end > first {
            let rest = self.ops[end - 1].0 - began;
            match bounds.last_mut() {
                Some(last) if rest < SLICE_S / 2.0 => {
                    last.1 = end;
                    last.2 += rest;
                }
                _ => bounds.push((first, end, rest.max(f64::MIN_POSITIVE))),
            }
        }
        bounds
            .into_iter()
            .map(|(lo, hi, duration)| {
                let latencies = Samples(self.ops[lo..hi].iter().map(|&(_, l)| l).collect());
                Slice {
                    ops_per_s: (hi - lo) as f64 / duration,
                    p50_s: latencies.median(),
                    tail_s: latencies.percentile(tail_pct),
                }
            })
            .collect()
    }
}

/// Times one call in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Everything one run produces.
pub struct Ctx {
    pub args: RunArgs,
    pub rec: Rc<Recorder>,
    metrics: BTreeMap<&'static str, f64>,
    setup_times: Samples,
    pub attempted: u64,
    pub failed: u64,
}

impl Ctx {
    pub fn new(args: RunArgs) -> Self {
        Self {
            args,
            rec: Rc::new(Recorder::new()),
            metrics: BTreeMap::new(),
            setup_times: Samples::default(),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn scale(&self) -> Scale {
        self.args.scale
    }

    /// Builds the workload's inputs several times (the set-up time is a
    /// gated metric, so it is a median, not one draw) and keeps the last:
    /// at least three times, and a quick set-up until a second has gone
    /// into it, since one 20 ms build is mostly allocator and scheduler luck.
    pub fn setup<T>(&mut self, mut build: impl FnMut() -> T) -> T {
        let (least, most, budget_s) = self.scale().pick((3, 60, 1.0), (1, 1, 0.0));
        let mut last = None;
        while self.setup_times.len() < least
            || (self.setup_times.len() < most && self.setup_times.sum() < budget_s)
        {
            // The previous world goes first: one resident at a time.
            drop(last.take());
            let (world, secs) = timed(&mut build);
            self.setup_times.push(secs);
            last = Some(world);
        }
        self.set("setup_s", self.setup_times.median());
        last.expect("at least one set-up")
    }

    /// Records a metric; the name must be declared in `spec`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::is_declared(name),
            "metric `{name}` is not declared in spec.rs"
        );
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Counts `n` operations as attempted.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// One correctness check: a failure is counted and reported, and
    /// makes the process exit non-zero.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED [{}]: {what}", self.args.workload);
        }
    }

    /// The three figures every loop reports, each the quiet-quartile value
    /// over the loop's one-second slices (see [`OpLog`]).
    /// `tail_pct` is the workload's pinned tail percentile within a slice.
    pub fn set_loop_metrics(&mut self, log: &OpLog, tail_pct: f64) {
        let slices = log.slices(tail_pct);
        // How noisy the host was: one row per slice, on standard error.
        for (index, s) in slices.iter().enumerate() {
            eprintln!(
                "slice {index:>2}: {:>10.2} ops/s  p50 {:>10.4} ms  tail {:>10.4} ms",
                s.ops_per_s,
                s.p50_s * 1e3,
                s.tail_s * 1e3
            );
        }
        let of = |f: fn(&Slice) -> f64| Samples(slices.iter().map(f).collect());
        self.set("op_p50_ms", of(|s| s.p50_s).percentile(25.0) * 1e3);
        self.set("op_tail_ms", of(|s| s.tail_s).percentile(25.0) * 1e3);
        self.set("ops_per_s", of(|s| s.ops_per_s).percentile(75.0));
    }

    /// Closes the root span, derives the per-layer self times and writes
    /// the trace next to the build outputs.
    pub fn finish_trace(&mut self, root: Option<u32>) {
        self.rec.exit(root);
        self.rec.set_enabled(false);
        let (layers, wall) = self.rec.self_times();
        let mut sum = 0.0;
        for (layer, secs) in &layers {
            sum += secs;
            if *layer == "unattributed" {
                self.set("bench.unattributed_share", secs / wall);
            } else if let Some(name) = spec::self_time_metric(layer) {
                self.set(name, *secs);
            } else {
                panic!("span layer `{layer}` has no self-time metric in spec.rs");
            }
        }
        self.set("bench.traced_wall_s", wall);
        let partition_ok = (sum - wall).abs() <= 1e-6 * wall.max(1.0);
        self.check(
            partition_ok,
            "layer self times + unattributed must sum to the traced wall",
        );
        let share = self.get("bench.unattributed_share").unwrap_or(1.0);
        self.check(share <= 0.05, "bench.unattributed_share must be <= 0.05");
        let path = scratch_dir().join(format!("trace_{}.json", self.args.workload));
        if let Err(err) = self.rec.write_json(&path) {
            eprintln!("warning: cannot write {}: {err}", path.display());
        }
    }

    /// Prints the metric table and, as the last line, the result object;
    /// appends the full result to `--out` when given.  Returns the exit
    /// code.
    pub fn report(&mut self) -> i32 {
        self.set_peak_rss();
        let wanted: &[spec::MetricDef] = if self.args.trace {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        };
        let mut fields = Vec::new();
        for def in wanted {
            let value = match self.metrics.get(def.name) {
                Some(v) => *v,
                // A layer this workload never calls did no work: 0.
                None if self.args.trace => 0.0,
                None => {
                    eprintln!("end-to-end metric `{}` was not measured", def.name);
                    self.failed += 1;
                    0.0
                }
            };
            if !value.is_finite() {
                eprintln!("metric `{}` is not finite: {value}", def.name);
                self.failed += 1;
            }
            println!("{:<44} {:>18.6} {}", def.name, value, def.unit);
            let value = if value.is_finite() { value } else { 0.0 };
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_number(value),
                def.unit
            ));
        }
        let correct = self.failed == 0;
        let attempted = self.attempted.max(1);
        let result = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \
             \"metrics\": {{{}}}}}",
            self.failed,
            fields.join(", ")
        );
        if let Some(path) = &self.args.out {
            let line = format!(
                "{{\"workload\": \"{}\", \"trace\": {}, \"fingerprint\": {}, \"result\": {result}}}\n",
                self.args.workload,
                self.args.trace,
                fingerprint(&self.args)
            );
            use std::io::Write;
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(line.as_bytes()));
            if let Err(err) = appended {
                eprintln!("cannot append to {}: {err}", path.display());
                return 2;
            }
        }
        println!("{result}");
        i32::from(!correct)
    }

    fn set_peak_rss(&mut self) {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            });
        // Off Linux there is no VmHWM; the metric must still be non-zero.
        self.set(
            "peak_rss_mb",
            kb.map_or(f64::MIN_POSITIVE, |kb| kb / 1024.0),
        );
    }
}

/// JSON has no NaN/inf and Rust prints integral floats without a point;
/// both are fine for JSON numbers, exponents included.
fn json_number(value: f64) -> String {
    format!("{value:?}")
}

/// Where stores and traces go: beside the executable's build directory
/// (`<target>/ledger-scratch`), so everything stays inside the checkout.
pub fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let target = exe
        .parent()
        .and_then(|profile| profile.parent())
        .expect("the executable sits in <target>/<profile>/");
    let dir = target.join("ledger-scratch");
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

/// A fresh private directory under the scratch directory.
pub fn fresh_dir(label: &str) -> PathBuf {
    let dir = scratch_dir().join(format!("{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a workload directory");
    dir
}

/// Logical CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host and configuration a result was measured under, as JSON.
pub fn fingerprint(args: &RunArgs) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |s| s.trim().replace('"', "'"));
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let commit = match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or("unknown".to_string(), |s| s.trim().to_string()),
        None if !head.trim().is_empty() => head.trim().to_string(),
        None => "unknown".to_string(),
    };
    format!(
        "{{\"cpu\": \"{cpu}\", \"nproc\": {}, \"simd\": \"{}\", \"rayon_threads\": {}, \
         \"store_backing\": \"{:?}\", \"seed\": {}, \"scale\": \"{}\", \"seconds\": {}, \
         \"commit\": \"{commit}\"}}",
        nproc(),
        catrisk_riskquery::kernel::active_level().name(),
        rayon::current_num_threads(),
        catrisk_riskstore::RegionBacking::default_for_host(),
        args.seed,
        args.scale.name(),
        args.seconds,
    )
}
