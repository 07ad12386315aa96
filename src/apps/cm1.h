// Cm1Rank: a CM1-like 3D finite-difference atmospheric code (paper §4.4).
//
// Each MPI rank owns an nx*ny*nz subdomain of `nvars` prognostic fields.
// Every iteration it exchanges subdomain borders with its 2D-grid neighbors
// and advances the fields (a damped 6-point diffusion stencil stands in for
// the compressible-flow equations — the paper's evaluation depends on the
// state size, communication pattern and file I/O, not the meteorology).
// Every `summary_interval` iterations each rank dumps a summary file;
// application-level checkpoints serialize all fields to a per-rank file,
// like CM1's restart files.
#pragma once

#include <cstdint>
#include <string>

#include "common/buffer.h"
#include "common/units.h"
#include "mpi/mpi.h"
#include "sim/sim.h"
#include "vm/vm_instance.h"

namespace blobcr::apps {

struct Cm1Config {
  // Per-rank subdomain: the paper weak-scales at 50x50 horizontal points.
  int nx = 50;
  int ny = 50;
  int nz = 40;
  int nvars = 15;
  int px = 1;  // process grid (px * py == ranks)
  int py = 1;
  /// Real mode allocates and advances actual double fields (tests /
  /// examples); phantom mode models sizes and timing only (benchmarks).
  bool real_data = false;
  sim::Duration iteration_compute = 400 * sim::kMillisecond;
  int summary_interval = 10;
  std::uint64_t summary_bytes = 128 * 1024;
  /// Every `diag_interval` iterations all ranks allreduce a stability
  /// diagnostic (CM1 computes global CFL maxima the same way). 0 disables.
  int diag_interval = 5;

  std::uint64_t field_bytes() const {
    return static_cast<std::uint64_t>(nx) * static_cast<std::uint64_t>(ny) *
           static_cast<std::uint64_t>(nz) *
           static_cast<std::uint64_t>(nvars) * sizeof(double);
  }
};

class Cm1Rank {
 public:
  Cm1Rank(vm::GuestProcess& proc, mpi::MpiWorld::Comm comm, Cm1Config cfg,
          int rank);

  int rank() const { return rank_; }
  std::uint64_t field_bytes() const { return cfg_.field_bytes(); }
  std::uint64_t state_digest() const;
  int current_iteration() const { return iteration_; }
  /// Globally-agreed stability diagnostic from the last allreduce round
  /// (sum of per-rank field means; 0 before the first round).
  double last_global_diag() const { return last_diag_; }

  /// Allocates the fields (registers the process memory region) and fills
  /// the initial condition.
  sim::Task<> init();

  /// One timestep: halo exchange with up to four neighbors, stencil update,
  /// periodic summary dump.
  sim::Task<> step();

  sim::Task<> run(int iterations);

  /// CM1-style application-level checkpoint: all fields into one file.
  /// Returns the file size.
  sim::Task<std::uint64_t> write_checkpoint();

  /// Restores fields + iteration counter; false if the digest mismatches.
  sim::Task<bool> restore_checkpoint();

  std::string checkpoint_path() const;

 private:
  static constexpr std::uint64_t kHeaderAlign = 4096;

  // Neighbor ranks in the px*py grid; -1 at domain edges.
  int neighbor(int dx, int dy) const;
  std::uint64_t x_face_bytes() const {
    return static_cast<std::uint64_t>(cfg_.ny) * cfg_.nz * cfg_.nvars *
           sizeof(double);
  }
  std::uint64_t y_face_bytes() const {
    return static_cast<std::uint64_t>(cfg_.nx) * cfg_.nz * cfg_.nvars *
           sizeof(double);
  }

  common::Buffer pack_face(int dx, int dy) const;
  void apply_face(int dx, int dy, const common::Buffer& face);
  void advance_fields();

  double* field_data();
  const double* field_data() const;
  std::size_t cell_count() const {
    return static_cast<std::size_t>(cfg_.nx) * cfg_.ny * cfg_.nz * cfg_.nvars;
  }

  double local_diag() const;

  vm::GuestProcess* proc_;
  mpi::MpiWorld::Comm comm_;
  Cm1Config cfg_;
  int rank_;
  int gx_ = 0;  // grid coordinates
  int gy_ = 0;
  int iteration_ = 0;
  double last_diag_ = 0;
};

}  // namespace blobcr::apps
