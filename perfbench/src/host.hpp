// Host record and memory probes.
//
// The host record states how many cores a run really had: `nproc` is what
// the OS reports, effective parallelism is measured with a calibration
// spin (the same fixed work on 1 thread, then on nproc threads at once).
// On a host that reports 4 threads but delivers about 1 core, the spin
// reads about 1.  Every workload stays single-threaded until that figure
// is at least 2.
#pragma once

#include <cstddef>

namespace perfbench {

struct HostRecord {
  std::size_t nproc = 1;
  double spin_1_s = 0;        // wall time of the spin on one thread
  double spin_n_s = 0;        // wall time of nproc concurrent spins
  double effective_parallelism = 1;
};

/// Runs the calibration spin; uses at most nproc threads, all joined
/// before it returns.
HostRecord measure_host();

/// Resident memory of this process from /proc/self/status, in MB
/// (10^6 bytes); 0 when the file is unavailable.
double rss_mb();       // VmRSS
double peak_rss_mb();  // VmHWM

/// Returns freed heap memory to the kernel, then resets VmHWM to the
/// current RSS (Linux clear_refs), so the next peak belongs to what runs
/// next; returns false when the kernel refuses, in which case peaks
/// include earlier phases.
bool reset_peak_rss();

}  // namespace perfbench
