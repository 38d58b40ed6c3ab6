//! `catrisk info` — print the simulated device and what this process will
//! actually run with.

use catrisk_gpusim::device::DeviceSpec;
use catrisk_riskquery::kernel;
use catrisk_riskstore::RegionBacking;

use super::Options;

/// Prints environment and configuration information.
pub fn run(_options: &Options) -> Result<(), String> {
    let device = DeviceSpec::tesla_c2075();
    println!("simulated device: {}", device.name);
    println!(
        "  SMs x lanes        : {} x {} = {} cores",
        device.num_sms,
        device.lanes_per_sm,
        device.total_lanes()
    );
    println!("  clock              : {:.2} GHz", device.clock_ghz);
    println!(
        "  global memory      : {:.3} GB",
        device.global_mem_bytes as f64 / 1024.0 / 1024.0 / 1024.0
    );
    println!(
        "  global bandwidth   : {:.0} GB/s",
        device.global_bandwidth_gbps
    );
    println!(
        "  shared mem per SM  : {} KB",
        device.shared_mem_per_sm / 1024
    );
    println!(
        "  constant memory    : {} KB",
        device.constant_mem_bytes / 1024
    );
    println!("  max threads per SM : {}", device.max_threads_per_sm);
    println!("  max blocks per SM  : {}", device.max_blocks_per_sm);

    print!("\n{}", effective_configuration());
    Ok(())
}

/// What a scan, a store open and a parallel terminal in this process will
/// use, read from the accessors the code paths themselves consult (so
/// `CATRISK_SIMD` / `CATRISK_THREADS` / `CATRISK_STORE_BACKING` show here
/// exactly as they take effect).
fn effective_configuration() -> String {
    let active = kernel::active_level();
    let best = *kernel::available_levels()
        .last()
        .expect("scalar is always available");
    let simd = if active == best {
        active.name().to_string()
    } else {
        format!("{} (host supports {})", active.name(), best.name())
    };
    // The CLI has no direct rayon edge: a default-sized pool reports the
    // count `rayon::current_num_threads()` gives every terminal.
    let threads = catrisk_simkit::parallel::build_pool(0).current_num_threads();
    let logical_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "this process runs with:\n\
         \x20 SIMD level         : {simd}\n\
         \x20 worker threads     : {threads}\n\
         \x20 store backing      : {:?}\n\
         \x20 scan chunks/thread : {}\n\
         \x20 logical CPUs       : {logical_cpus}\n",
        RegionBacking::default_for_host(),
        kernel::scan_chunks_per_thread(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value printed after `label :` in the configuration block.
    fn printed(text: &str, label: &str) -> String {
        text.lines()
            .find_map(|line| line.trim().strip_prefix(label))
            .unwrap_or_else(|| panic!("no `{label}` line in:\n{text}"))
            .trim_start_matches([' ', ':'])
            .to_string()
    }

    #[test]
    fn info_reports_the_simd_level_and_thread_count_in_effect() {
        let text = effective_configuration();
        let simd = printed(&text, "SIMD level");
        assert_eq!(
            simd.split_whitespace().next().unwrap(),
            kernel::active_level().name()
        );
        assert_eq!(
            printed(&text, "worker threads"),
            rayon::current_num_threads().to_string()
        );
    }
}
