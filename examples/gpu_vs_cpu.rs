//! Compare every engine variant — sequential, multi-core, chunked CPU, and
//! the two simulated-GPU kernels — on one workload, verifying that they all
//! produce identical Year Loss Tables (the paper's implicit correctness
//! requirement) and reporting their (wall-clock or simulated) runtimes.
//!
//! ```text
//! cargo run --release --example gpu_vs_cpu
//! ```

use std::time::Instant;

use catrisk::engine::chunked::ChunkedEngine;
use catrisk::engine::parallel::ParallelEngine;
use catrisk::engine::phases::PhaseBreakdown;
use catrisk::engine::sequential::SequentialEngine;
use catrisk::gpusim::executor::Executor;
use catrisk::gpusim::kernel::LaunchConfig;
use catrisk::gpusim::kernels::{run_gpu_analysis, total_simulated_seconds, GpuVariant};
use catrisk_bench::{build_input, WorkloadSpec};

fn main() {
    let spec = WorkloadSpec {
        num_events: 100_000,
        trials: 5_000,
        events_per_trial: 1_000.0,
        num_elts: 15,
        elt_records: 10_000,
        num_layers: 1,
        elts_per_layer: 15,
        ..WorkloadSpec::bench_scale()
    };
    println!(
        "workload: {} trials x {:.0} events x {} ELTs = {:.2} billion lookups",
        spec.trials,
        spec.events_per_trial,
        spec.elts_per_layer,
        spec.expected_lookups() / 1.0e9
    );
    let input = build_input(&spec);

    let start = Instant::now();
    let reference = SequentialEngine::new().run(&input);
    let t_seq = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let parallel = ParallelEngine::new().run(&input);
    let t_par = start.elapsed().as_secs_f64();
    assert_eq!(
        reference.max_abs_difference(&parallel),
        0.0,
        "parallel engine must match"
    );

    let start = Instant::now();
    let chunked = ChunkedEngine::new(64).run(&input);
    let t_chunk = start.elapsed().as_secs_f64();
    assert_eq!(
        reference.max_abs_difference(&chunked),
        0.0,
        "chunked engine must match"
    );

    let executor = Executor::tesla_c2075();
    let (gpu_basic, basic_launches) = run_gpu_analysis(
        &executor,
        &input,
        GpuVariant::Basic,
        LaunchConfig::with_block_size(256),
    )
    .expect("gpu basic");
    assert_eq!(
        reference.max_abs_difference(&gpu_basic),
        0.0,
        "gpu basic kernel must match"
    );
    let (gpu_chunked, chunked_launches) = run_gpu_analysis(
        &executor,
        &input,
        GpuVariant::Chunked { chunk_size: 4 },
        LaunchConfig::with_block_size(64),
    )
    .expect("gpu chunked");
    assert_eq!(
        reference.max_abs_difference(&gpu_chunked),
        0.0,
        "gpu chunked kernel must match"
    );

    println!("\nall five engines produced identical Year Loss Tables.\n");
    println!("{:<26} {:>12} {:>10}", "engine", "seconds", "vs seq");
    println!("{:<26} {:>12.3} {:>10.2}", "sequential (wall)", t_seq, 1.0);
    println!(
        "{:<26} {:>12.3} {:>10.2}",
        "parallel cpu (wall)",
        t_par,
        t_seq / t_par
    );
    println!(
        "{:<26} {:>12.3} {:>10.2}",
        "chunked cpu (wall)",
        t_chunk,
        t_seq / t_chunk
    );
    let t_basic = total_simulated_seconds(&basic_launches);
    let t_gchunk = total_simulated_seconds(&chunked_launches);
    println!(
        "{:<26} {:>12.3} {:>10.2}",
        "gpu basic (simulated)",
        t_basic,
        t_seq / t_basic
    );
    println!(
        "{:<26} {:>12.3} {:>10.2}",
        "gpu chunked (simulated)",
        t_gchunk,
        t_seq / t_gchunk
    );

    let basic = &basic_launches[0];
    println!(
        "\ngpu basic kernel:   occupancy {:.0}%, {:.1}M global reads, {:.1}M global writes",
        100.0 * basic.occupancy.occupancy,
        basic.counters.global_reads as f64 / 1.0e6,
        basic.counters.global_writes as f64 / 1.0e6
    );
    let opt = &chunked_launches[0];
    println!(
        "gpu chunked kernel: occupancy {:.0}%, {:.1}M global reads, {:.1}M shared accesses, {:.1}k constant reads",
        100.0 * opt.occupancy.occupancy,
        opt.counters.global_reads as f64 / 1.0e6,
        opt.counters.shared_accesses as f64 / 1.0e6,
        opt.counters.constant_accesses as f64 / 1.0e3
    );

    let (_, timer) = SequentialEngine::new().run_instrumented(&input);
    println!(
        "\nphase breakdown of the sequential engine (paper Fig. 6b reports ~78% in ELT lookups):"
    );
    print!("{}", PhaseBreakdown::from_timer(&timer).to_table());
}
