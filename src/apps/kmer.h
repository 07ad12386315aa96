// KmerRank: a bioinformatics-style k-mer counting scan (another of the
// paper's §1 motivating domains). A large read-only reference sequence is
// baked into the base VM image and shared by every instance (§2.2: input
// data is shared through the VM's local file system, not a separate
// repository access API). Each rank streams a slice of the reference in
// windows, folding k-mer counts into an in-memory sketch table.
//
// The workload exists to exercise lazy transfer (§3.1.4) *during runtime*,
// not just at boot: the mirror device fetches reference chunks from the
// repository only as the scan reaches them, so a restart on fresh nodes
// re-fetches only the unscanned remainder plus the checkpointed state.
#pragma once

#include <cstdint>
#include <string>

#include "common/buffer.h"
#include "common/units.h"
#include "sim/sim.h"
#include "vm/guest_os.h"
#include "vm/vm_instance.h"

namespace blobcr::apps {

struct KmerConfig {
  /// Size of the shared reference baked into the base image.
  std::uint64_t reference_bytes = 24 * common::kMB;
  std::string reference_path = "/usr/share/ref/genome.seq";
  /// Streaming window per read request.
  std::uint64_t window_bytes = 1 * common::kMB;
  /// Scan throughput (bytes of sequence digested per second of compute).
  double scan_bps = 200e6;
  /// In-memory count-sketch table (the process state).
  std::uint64_t table_bytes = 2 * common::kMB;
  /// Ranks sharing the reference; each scans slice `rank` of `ranks`.
  int ranks = 1;
  /// Real windows folded into a real table with digest checks (tests) vs
  /// phantom sizes/timing only (benchmarks).
  bool real_data = false;

  /// Registers the reference file in the base-image recipe. Call on the
  /// CloudConfig's GuestOsConfig before constructing the Cloud.
  void add_reference_to(vm::GuestOsConfig& os) const {
    os.files.push_back({reference_path, reference_bytes, /*hot=*/false});
  }

  /// This rank's slice of the reference: [begin, end).
  std::uint64_t slice_begin(int rank) const {
    return reference_bytes * static_cast<std::uint64_t>(rank) /
           static_cast<std::uint64_t>(ranks);
  }
  std::uint64_t slice_end(int rank) const {
    return reference_bytes * static_cast<std::uint64_t>(rank + 1) /
           static_cast<std::uint64_t>(ranks);
  }
};

class KmerRank {
 public:
  KmerRank(vm::GuestProcess& proc, KmerConfig cfg, int rank);

  int rank() const { return rank_; }
  /// Absolute reference offset the scan has reached.
  std::uint64_t offset() const { return offset_; }
  std::uint64_t slice_end() const { return cfg_.slice_end(rank_); }
  bool done() const { return offset_ >= slice_end(); }
  std::uint64_t state_digest() const;

  /// Allocates the sketch table and positions the cursor at the slice start.
  sim::Task<> init();

  /// Streams windows until the scan offset reaches `target` (clamped to the
  /// slice end). Every window is a guest FS read — on a BlobCR mirror
  /// device, a lazy remote fetch the first time the chunk is touched.
  sim::Task<> scan_until(std::uint64_t target);

  sim::Task<> scan_all() { return scan_until(slice_end()); }

  /// Application-level checkpoint: offset header + sketch table.
  sim::Task<std::uint64_t> write_checkpoint();

  /// Restores offset + table; false on digest mismatch.
  sim::Task<bool> restore_checkpoint();

  std::string cursor_path() const { return "/data/kmer_cursor.txt"; }
  std::string state_path() const { return "/data/kmer_table.bin"; }

 private:
  void fold_window(const common::Buffer& window);

  vm::GuestProcess* proc_;
  KmerConfig cfg_;
  int rank_;
  std::uint64_t offset_ = 0;
};

}  // namespace blobcr::apps
