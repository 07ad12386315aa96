// QcowImage: a qcow2-style copy-on-write disk image, and the guest's
// virtual disk on the qcow baselines (it is a BlockDevice itself).
//
// Reproduced behaviours that matter to the paper:
//  * cluster-granular COW over an optional read-only backing store (the raw
//    base image shared through PVFS);
//  * unallocated reads fall through to the backing store;
//  * partial-cluster first-writes do copy-up (read-modify-write);
//  * internal snapshots (`savevm`): the VM state blob is appended into the
//    container and all currently allocated clusters become frozen, so later
//    writes reallocate — the container only ever grows;
//  * the container file (header + tables + clusters + vm states) is what a
//    disk-snapshot copy ships to PVFS, so its length growth is the direct
//    cause of Figure 5's linear qcow2 checkpoint times.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/buffer.h"
#include "img/block_device.h"
#include "sim/sim.h"
#include "storage/byte_store.h"

namespace blobcr::img {

class QcowImage : public BlockDevice {
 public:
  struct Config {
    std::uint64_t cluster_size = 64 * 1024;  // qcow2 default
    std::uint64_t virtual_size = 0;          // guest-visible capacity
  };

  /// `container` holds the image file itself; `backing` (optional) is the
  /// read-only base. Neither is owned.
  QcowImage(storage::ByteStore& container, storage::ByteStore* backing,
            const Config& cfg);

  std::uint64_t cluster_size() const { return cfg_.cluster_size; }

  std::uint64_t capacity() const override { return cfg_.virtual_size; }
  sim::Task<common::Buffer> read(std::uint64_t offset,
                                 std::uint64_t len) override;
  sim::Task<> write(std::uint64_t offset, common::Buffer data) override;

  /// savevm: appends the VM state and freezes the current disk mapping.
  sim::Task<> save_vm_state(common::Buffer state);
  /// loadvm: reads back the most recent VM state and rolls the disk mapping
  /// back to that snapshot.
  sim::Task<common::Buffer> load_vm_state();

  std::size_t snapshot_count() const { return snapshots_.size(); }

  struct Snapshot {
    std::map<std::uint64_t, std::uint64_t> l2;  // frozen disk mapping
    std::uint64_t vmstate_offset = 0;
    std::uint64_t vmstate_bytes = 0;
  };

  /// In-memory image of the qcow tables. A file-level snapshot copy
  /// transports it implicitly (it lives in the copied bytes); export/import
  /// model "qemu re-opens the copied file and parses its tables".
  struct State {
    std::map<std::uint64_t, std::uint64_t> l2;
    std::set<std::uint64_t> frozen;
    std::set<std::uint64_t> l2_covered;
    std::uint64_t l2_tables = 0;
    std::uint64_t host_end = 0;
    std::vector<Snapshot> snapshots;
    std::uint64_t guest_bytes_written = 0;
  };

  State export_state() const;
  void import_state(const State& state);

  /// Models opening an existing image file: reads the metadata region from
  /// the container and adopts the recorded state.
  sim::Task<> open_existing(const State& state);

  /// Length of the container file — what a file-level copy transfers.
  std::uint64_t container_bytes() const { return host_end_; }
  std::uint64_t allocated_clusters() const { return l2_.size(); }
  std::uint64_t metadata_bytes() const {
    return kHeaderClusters * cfg_.cluster_size +
           l2_tables_ * cfg_.cluster_size;
  }
  std::uint64_t guest_bytes_written() const { return guest_bytes_written_; }

 private:
  static constexpr std::uint64_t kHeaderClusters = 2;  // header + L1 + refcnt
  static constexpr std::uint64_t kL2Entries = 8192;    // cluster/8 bytes

  std::uint64_t alloc_cluster();
  sim::Task<> ensure_l2_table(std::uint64_t guest_cluster);
  sim::Task<common::Buffer> read_cluster_logical(std::uint64_t guest_cluster);

  storage::ByteStore* container_;
  storage::ByteStore* backing_;
  Config cfg_;
  std::map<std::uint64_t, std::uint64_t> l2_;  // guest cluster -> host offset
  std::set<std::uint64_t> frozen_;             // guest clusters owned by snapshots
  std::set<std::uint64_t> l2_covered_;         // which L2 tables exist
  std::uint64_t l2_tables_ = 0;
  std::uint64_t host_end_;
  std::vector<Snapshot> snapshots_;
  std::uint64_t guest_bytes_written_ = 0;
};

}  // namespace blobcr::img
