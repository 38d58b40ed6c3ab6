//! Persistent-store benchmarks: cold-open query latency versus the
//! in-memory baseline.
//!
//! The serving-fleet scenario behind `catrisk-riskstore`: results are
//! materialised once and queried many times, possibly by processes that
//! did not produce them.  Three paths are measured over the same
//! production-shaped store:
//!
//! * `in_memory` — the PR-1 baseline, scanning the live `ResultStore`;
//! * `reader_warm` — the same query over an already-open `StoreReader`
//!   (steady-state serving: the open cost is amortised);
//! * `cold_open` — `StoreReader::open` (checksum verification + column
//!   load) plus the query, every iteration (worst-case first request).
//!
//! The `cold_open_summary` target prints the acceptance numbers and
//! asserts bit-identical results across all three paths.
//!
//! The `backing_comparison`/`backing_summary` targets open the same
//! store under both column backings — `Mapped` (mmap'd shared
//! read-only, the serving default) and `Loaded` (private heap copy,
//! the pre-mmap behaviour, selectable fleet-wide with
//! `CATRISK_STORE_BACKING=loaded`) — and report cold-open latency and
//! pinned bytes for each.  The mapped backing skips the column copy at
//! open (verification still touches every page, so the numbers are
//! honest about fault-in cost), and its pinned bytes are file-backed
//! address space shared across a whole replica fleet rather than
//! per-process heap.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use catrisk_bench::workload::build_store;
use catrisk_eventgen::peril::Peril;
use catrisk_riskquery::prelude::*;
use catrisk_riskstore::{RegionBacking, StoreReader, StoreWriter};

const TRIALS: usize = 20_000;
const BOOKS: usize = 12;

/// Writes every segment of `store` into a fresh store file.
fn write_store(store: &ResultStore, path: &std::path::Path) {
    let mut writer = StoreWriter::create(path, store.num_trials()).expect("create store file");
    for segment in 0..store.num_segments() {
        writer
            .append_segment(
                *store.meta(segment),
                store.year_losses(segment),
                store.max_occ_losses(segment),
            )
            .expect("append segment");
    }
    writer.finish().expect("commit store file");
}

fn bench_path(name: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("catrisk-bench-{}-{name}.clm", std::process::id()));
    path
}

fn serving_query() -> Query {
    QueryBuilder::new()
        .with_perils([Peril::Hurricane, Peril::Flood])
        .group_by(Dimension::Region)
        .aggregate(Aggregate::Mean)
        .aggregate(Aggregate::Tvar { level: 0.99 })
        .build()
        .unwrap()
}

fn store_query_paths(c: &mut Criterion) {
    let store = build_store(TRIALS, BOOKS, 2012, "store-bench");
    let path = bench_path("paths");
    write_store(&store, &path);
    let query = serving_query();

    let mut group = c.benchmark_group("store_query_latency");
    group.sample_size(15);
    group.bench_function("in_memory", |b| b.iter(|| execute(&store, &query).unwrap()));
    let reader = StoreReader::open(&path).expect("open store file");
    group.bench_function("reader_warm", |b| {
        b.iter(|| execute(&reader, &query).unwrap())
    });
    group.bench_function("cold_open", |b| {
        b.iter(|| {
            let reader = StoreReader::open(&path).expect("open store file");
            execute(&reader, &query).unwrap()
        })
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

/// Cold open + query under each column backing: `Mapped` pays page
/// faults during verification but never copies the columns; `Loaded`
/// reads them into a private heap region.
fn backing_comparison(c: &mut Criterion) {
    let store = build_store(TRIALS, BOOKS, 2012, "store-bench");
    let path = bench_path("backing");
    write_store(&store, &path);
    let query = serving_query();

    let mut group = c.benchmark_group("store_backing_cold_open");
    group.sample_size(15);
    for (name, backing) in [
        ("mapped", RegionBacking::Mapped),
        ("loaded", RegionBacking::Loaded),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let reader =
                    StoreReader::open_with_backing(&path, backing).expect("open store file");
                execute(&reader, &query).unwrap()
            })
        });
    }
    group.finish();
    let _ = std::fs::remove_file(&path);
}

/// Prints the mapped-versus-loaded acceptance numbers — cold open+query
/// latency, open-only time, and pinned bytes per backing — after
/// asserting the two backings answer bit-identically.  Mapped pinned
/// bytes are shared file-backed address space (one set of page-cache
/// pages across a replica fleet); loaded pinned bytes are per-process
/// heap.
fn backing_summary(_c: &mut Criterion) {
    let store = build_store(TRIALS, BOOKS, 2012, "store-bench");
    let path = bench_path("backing-summary");
    write_store(&store, &path);
    let query = serving_query();

    let mapped = StoreReader::open_with_backing(&path, RegionBacking::Mapped).expect("open mapped");
    let loaded = StoreReader::open_with_backing(&path, RegionBacking::Loaded).expect("open loaded");
    assert_eq!(
        execute(&mapped, &query).unwrap(),
        execute(&loaded, &query).unwrap(),
        "the two backings must answer bit-identically"
    );

    let samples = 10;
    let measure = |backing: RegionBacking| {
        let best = (0..samples)
            .map(|_| {
                let start = Instant::now();
                let reader =
                    StoreReader::open_with_backing(&path, backing).expect("open store file");
                let _ = execute(&reader, &query).unwrap();
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        let reader = StoreReader::open_with_backing(&path, backing).expect("open store file");
        (best, reader.open_micros(), reader.memory_bytes())
    };
    let (mapped_secs, mapped_open_us, mapped_bytes) = measure(RegionBacking::Mapped);
    let (loaded_secs, loaded_open_us, loaded_bytes) = measure(RegionBacking::Loaded);
    println!(
        "backing_summary: mapped cold open+query {:.2} ms (open {:.2} ms, \
         {:.1} MB shared map), loaded {:.2} ms (open {:.2} ms, {:.1} MB \
         private heap) — mapped/loaded {:.2}x",
        mapped_secs * 1e3,
        mapped_open_us as f64 / 1e3,
        mapped_bytes as f64 / 1.0e6,
        loaded_secs * 1e3,
        loaded_open_us as f64 / 1e3,
        loaded_bytes as f64 / 1.0e6,
        mapped_secs / loaded_secs,
    );
    let _ = std::fs::remove_file(&path);
}

/// Prints the acceptance numbers: cold-open and warm query latency against
/// the in-memory baseline, after asserting all three paths agree bitwise.
fn cold_open_summary(_c: &mut Criterion) {
    let store = build_store(TRIALS, BOOKS, 2012, "store-bench");
    let path = bench_path("summary");
    write_store(&store, &path);
    let query = serving_query();

    let in_memory = execute(&store, &query).unwrap();
    let reader = StoreReader::open(&path).expect("open store file");
    let from_disk = execute(&reader, &query).unwrap();
    assert_eq!(
        in_memory, from_disk,
        "persisted queries must be bit-identical to in-memory queries"
    );

    let samples = 10;
    let best = |mut run: Box<dyn FnMut()>| {
        (0..samples)
            .map(|_| {
                let start = Instant::now();
                run();
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let memory_secs = best(Box::new(|| {
        let _ = execute(&store, &query).unwrap();
    }));
    let warm_secs = best(Box::new(|| {
        let _ = execute(&reader, &query).unwrap();
    }));
    let cold_secs = best(Box::new(|| {
        let reader = StoreReader::open(&path).expect("open store file");
        let _ = execute(&reader, &query).unwrap();
    }));
    let bytes = std::fs::metadata(&path).expect("store file").len();
    println!(
        "cold_open_summary: in-memory {:.2} ms, warm reader {:.2} ms ({:.2}x), \
         cold open+query {:.2} ms ({:.2}x) over a {:.1} MB store \
         ({} segments, {} trials)",
        memory_secs * 1e3,
        warm_secs * 1e3,
        warm_secs / memory_secs,
        cold_secs * 1e3,
        cold_secs / memory_secs,
        bytes as f64 / 1.0e6,
        reader.num_segments(),
        reader.num_trials()
    );
    let _ = std::fs::remove_file(&path);
}

criterion_group!(
    store_cold_open,
    store_query_paths,
    backing_comparison,
    backing_summary,
    cold_open_summary
);
criterion_main!(store_cold_open);
