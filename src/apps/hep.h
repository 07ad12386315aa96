// HepRank: a high-energy-physics-style event-processing code (one of the
// paper's §1 motivating HPC domains). Each rank owns an independent stream
// of collision events; per event it burns compute, updates an in-memory
// histogram, and — for the deterministic fraction that "hit" — appends a
// fixed-size record to an append-only result log in the guest file system.
//
// The workload exists to exercise BlobCR's headline property: rolling back
// file-system I/O. The result log is output, not state — after a failure,
// restoring the disk snapshot rewinds the log to the checkpoint, and
// re-processing the lost events appends each hit exactly once. Conventional
// checkpointing on shared storage would leave duplicate records behind
// (§2.2: "lines appended to a log file between the last checkpoint and the
// occurrence of a failure are difficult to detect and delete on restart").
#pragma once

#include <cstdint>
#include <string>

#include "common/buffer.h"
#include "common/units.h"
#include "sim/sim.h"
#include "vm/vm_instance.h"

namespace blobcr::apps {

struct HepConfig {
  /// Events assigned to each rank for the whole job.
  std::uint64_t total_events = 4'000;
  sim::Duration per_event_compute = 1 * sim::kMillisecond;
  /// Deterministic fraction of events that produce a log record.
  double hit_probability = 0.15;
  std::uint64_t hit_record_bytes = 256;
  /// In-memory histogram updated by every event (the process state).
  std::uint64_t histogram_bytes = 1 * common::kMB;
  /// Physics stream seed: hit decisions replay identically after rollback.
  std::uint64_t seed = 0x4e9'c0de;
  /// fsync the guest FS after this many appended records (0 = never).
  int sync_every_hits = 32;
  /// Real histogram bytes + digest checks (tests) vs phantom (benchmarks).
  bool real_data = false;
};

class HepRank {
 public:
  HepRank(vm::GuestProcess& proc, HepConfig cfg, int rank);

  int rank() const { return rank_; }
  std::uint64_t cursor() const { return cursor_; }
  std::uint64_t state_digest() const;

  /// True iff event `e` of this rank produces a log record. Pure function
  /// of (seed, rank, e): replays after a rollback make identical decisions.
  bool is_hit(std::uint64_t e) const;

  /// Hits among events [0, upto) — the exactly-once ground truth.
  std::uint64_t expected_hits(std::uint64_t upto) const;

  /// Allocates the histogram region and creates the (empty) result log.
  sim::Task<> init();

  /// Processes events until the cursor reaches `target` (clamped to
  /// total_events): compute, histogram update, hit append + periodic sync.
  sim::Task<> process_until(std::uint64_t target);

  /// Application-level checkpoint: cursor to a small header file, histogram
  /// to a state file. Returns total bytes written.
  sim::Task<std::uint64_t> write_checkpoint();

  /// Restores cursor + histogram from the checkpoint files; false if the
  /// state digest does not match what the header recorded.
  sim::Task<bool> restore_checkpoint();

  /// Records currently in the result log (fixed-size records, so the count
  /// is the file size over the record size).
  sim::Task<std::uint64_t> count_log_records();

  std::string log_path() const { return "/data/hep_hits.log"; }
  std::string cursor_path() const { return "/data/hep_cursor.txt"; }
  std::string state_path() const { return "/data/hep_hist.bin"; }

 private:
  void bump_histogram(std::uint64_t e);

  vm::GuestProcess* proc_;
  HepConfig cfg_;
  int rank_;
  std::uint64_t cursor_ = 0;
  int unsynced_hits_ = 0;
};

}  // namespace blobcr::apps
