// Shared benchmark plumbing: the paper-calibrated testbed (Grid'5000
// graphene, §4.1), the five evaluated approaches (§4.2), and google-benchmark
// registration helpers that report *simulated* completion time as manual
// time.
//
// Set BLOBCR_BENCH_FAST=1 to run reduced sweeps (CI smoke).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "apps/scenarios.h"
#include "core/blobcr.h"

namespace blobcr::bench {

using apps::CkptMode;
using core::Backend;

struct Approach {
  const char* name;
  Backend backend;
  CkptMode mode;
};

/// The five configurations of §4.2 in the paper's order.
inline const std::vector<Approach>& five_approaches() {
  static const std::vector<Approach> kAll = {
      {"BlobCR-app", Backend::BlobCR, CkptMode::AppLevel},
      {"qcow2-disk-app", Backend::Qcow2Disk, CkptMode::AppLevel},
      {"BlobCR-blcr", Backend::BlobCR, CkptMode::ProcessBlcr},
      {"qcow2-disk-blcr", Backend::Qcow2Disk, CkptMode::ProcessBlcr},
      {"qcow2-full", Backend::Qcow2Full, CkptMode::FullVm},
  };
  return kAll;
}

/// The four approaches evaluated for CM1 (qcow2-full omitted, §4.4).
inline const std::vector<Approach>& four_approaches() {
  static const std::vector<Approach> kAll = {
      {"BlobCR-app", Backend::BlobCR, CkptMode::AppLevel},
      {"qcow2-disk-app", Backend::Qcow2Disk, CkptMode::AppLevel},
      {"BlobCR-blcr", Backend::BlobCR, CkptMode::ProcessBlcr},
      {"qcow2-disk-blcr", Backend::Qcow2Disk, CkptMode::ProcessBlcr},
  };
  return kAll;
}

inline bool fast_mode() {
  const char* v = std::getenv("BLOBCR_BENCH_FAST");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Instance-count sweep for Figures 2/3 (paper: up to 120 nodes).
inline std::vector<std::size_t> instance_sweep() {
  if (fast_mode()) return {4, 12};
  return {10, 60, 120};
}

/// VM sweep for Figure 6 (4 ranks per VM; paper: up to 400 processes).
inline std::vector<std::size_t> cm1_vm_sweep() {
  if (fast_mode()) return {2, 4};
  return {4, 25, 64};
}

/// The graphene testbed (§4.1): 120 compute nodes, 55 MB/s SATA disks,
/// 117.5 MB/s GbE at 0.1 ms, 2 GB Debian image, 256 KB BlobSeer stripes,
/// 20 metadata providers.
inline core::CloudConfig paper_cloud(Backend backend,
                                     std::uint64_t process_overhead =
                                         2 * common::kMB) {
  core::CloudConfig cfg;
  cfg.compute_nodes = 120;
  cfg.metadata_nodes = 20;
  cfg.backend = backend;
  cfg.os = vm::GuestOsConfig::debian_like();
  cfg.vm.os_ram_bytes = 118 * common::kMB;  // measured full-snapshot overhead
  cfg.vm.process_overhead_bytes = process_overhead;
  return cfg;
}

/// Reports a simulated duration as the benchmark's manual time.
inline void report_seconds(benchmark::State& state, sim::Duration d) {
  for (auto _ : state) {
    state.SetIterationTime(sim::to_seconds(d));
  }
}

inline double mb(std::uint64_t bytes) {
  return static_cast<double>(bytes) / 1e6;
}

}  // namespace blobcr::bench
