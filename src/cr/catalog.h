// cr::Catalog: the durable checkpoint catalog. Records live *in the
// repository itself* — an append-only log of framed CheckpointRecords kept
// in a dedicated catalog blob (BlobCR backend, discovered through the
// version manager's named-blob registry) or in a well-known PVFS file (the
// qcow baselines). A freshly constructed Catalog — a new driver process
// after total loss, a Deployment that never took a checkpoint — re-reads
// the log and can list, inspect and restart from checkpoints it never took.
//
// Write model: stage() appends a new frame and issues the next monotonic
// CheckpointId; update() rewrites a record's frame in place (state
// transitions Staged -> Complete / Incomplete / Retired, snapshot-size
// refreshes after an async drain publishes). Frames are padded to the
// record alignment so an in-place rewrite replaces exactly the chunks the
// original frame occupied. In-memory state mutates only after the
// repository write completes, so a caller killed mid-write leaves the
// catalog exactly as durable as the repository says it is.
//
// One *live* writer per catalog name at a time (the driver); recovery is a
// fresh Catalog re-reading the log, never two writers appending
// concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "blob/client.h"
#include "blob/gc.h"
#include "cr/checkpoint.h"
#include "pfs/pvfs.h"
#include "sim/sim.h"

namespace blobcr::cr {

class Catalog {
 public:
  struct Config {
    /// Named-blob key (BlobCR) / file path (PVFS baselines). Multi-tenant
    /// drivers namespace this per job (cr::Session::Config::job), so each
    /// tenant lists and restarts only its own lineage.
    std::string name = "/blobcr/checkpoint-catalog";
    /// Tenant the catalog's repository requests run as.
    net::TenantId tenant = net::kDefaultTenant;
  };

  /// Node the catalog client (and cr::Session's own repository clients)
  /// issue their requests from.
  static constexpr net::NodeId kClientNode = 0;

  explicit Catalog(core::Cloud& cloud) : Catalog(cloud, Config()) {}
  Catalog(core::Cloud& cloud, Config cfg);

  /// Discovers (or creates) the repository-resident log and loads every
  /// record. Idempotent; all other operations ensure it ran.
  sim::Task<> open();
  bool opened() const { return opened_; }

  /// Appends a new record: issues the next CheckpointId, stamps the
  /// creation time, forces state = Staged, and durably writes the frame.
  /// Returns the record as written.
  sim::Task<CheckpointRecord> stage(CheckpointRecord rec);

  /// Rewrites an existing record's frame in place (matched by rec.id).
  sim::Task<> update(CheckpointRecord rec);

  /// All records, oldest first (one simulated catalog round-trip).
  sim::Task<std::vector<CheckpointRecord>> list();

  /// Resolves a selector without judging selectability: Latest/ByTag find
  /// the newest Complete (matching) record, ById finds the exact record in
  /// any state. nullopt when nothing matches.
  sim::Task<std::optional<CheckpointRecord>> find(const Selector& sel);

  /// Resolves a selector for restart. Throws CrError when nothing matches
  /// or when the matched record is not Complete (Staged/Incomplete records
  /// are never selectable — §3.2's "last *complete* global checkpoint").
  sim::Task<CheckpointRecord> select(const Selector& sel);

  /// In-process peek at the loaded records (no simulated cost) — GC
  /// bookkeeping and tests. Valid after open().
  const std::vector<CheckpointRecord>& records() const { return records_; }

  /// The catalog log's superseded blob versions as a GC drop: every
  /// append or rewrite publishes a new version, and rewrites orphan their
  /// old frames' chunks, so every version below the latest can go.
  /// cr::Session::apply_retention hands it to the log's store
  /// (Cloud::store_of_blob) in the same epoch as that store's image drops.
  /// nullopt on the PVFS backend (rewrites are in-place) and while the log
  /// has at most one version.
  std::optional<blob::GarbageCollector::Drop> log_drop() const;

  /// Disaster recovery (cr::Session::scavenge): re-creates the durable log
  /// from the in-memory record set after a repository outage destroyed the
  /// old log's chunks. Writes every record into a *fresh* catalog blob in
  /// one commit and rebinds the catalog name to it, so a later driver
  /// discovers the rebuilt lineage exactly as it would the original.
  /// BlobCR backend only; requires an opened catalog.
  sim::Task<> rebuild();

  /// Federated zone loss: when the catalog's home zone store is dead,
  /// rebind to a surviving zone and rebuild the durable log there. A
  /// never-opened catalog (fresh driver after the loss) recovers its record
  /// set from the federation's replicated frames first, so survivors can
  /// still list and restart every checkpoint. No-op when the home zone is
  /// alive.
  sim::Task<> rehome_if_dead();

 private:
  struct Frame {
    std::uint64_t offset = 0;  // byte offset of the frame in the log
    std::uint64_t length = 0;  // padded frame length
  };

  common::Buffer encode_frame(const CheckpointRecord& rec,
                              std::uint64_t pad_to) const;
  sim::Task<> write_at(std::uint64_t offset, common::Buffer frame);
  sim::Task<common::Buffer> read_all();
  void parse_log(const common::Buffer& log);

  core::Cloud* cloud_;
  Config cfg_;
  bool opened_ = false;
  blob::BlobStore* home_store_ = nullptr;  // where the log blob lives

  // Exactly one of the two persistence clients is used, by backend.
  std::unique_ptr<blob::BlobClient> blob_client_;
  blob::BlobId blob_id_ = 0;
  blob::VersionId blob_version_ = 0;  // latest published catalog version
  std::unique_ptr<pfs::PvfsClient> pvfs_client_;
  pfs::FileId pvfs_file_ = 0;

  std::vector<CheckpointRecord> records_;  // append order == id order
  std::vector<Frame> frames_;              // parallel to records_
  std::uint64_t end_ = 0;                  // append cursor
  CheckpointId next_id_ = 1;
};

}  // namespace blobcr::cr
