// cr::Session: the checkpoint-restart facade owning a deployment's CR
// lifecycle. It turns the mechanism layer (Deployment snapshots, the
// coordinated protocol, the garbage collector) into a service with explicit
// selection and retention semantics:
//
//   checkpoint(tag)    snapshot every instance, then commit a catalog record
//                      (external / full-VM style checkpoints);
//   stage_last() +     the two protocol-driven halves: stage a durable
//   publish_staged()   record once every rank's snapshot is captured, then
//                      mark it Complete after the async drains published
//                      (mpi::CoordinatedHooks::stage_record/publish_record);
//   commit_last(tag)   both halves plus the drain wait, for drivers that
//                      coordinate checkpoints with their own barriers;
//   restart(Selector)  tear down and restart the deployment from a cataloged
//                      checkpoint — latest, by id, or by tag;
//   apply_retention()  retire records past the RetentionPolicy and reclaim
//                      their snapshot versions.
//
// A failed drain between stage and publish marks the record Incomplete; a
// restart marks every dangling Staged record Incomplete (its stager cannot
// complete it anymore). Incomplete records are never selectable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cr/catalog.h"
#include "cr/checkpoint.h"
#include "sim/sim.h"

namespace blobcr::cr {

/// Outcome of a repository scavenge pass (Session::scavenge).
struct ScavengeReport {
  std::size_t chunks_checked = 0;   // distinct chunks referenced by keepers
  std::size_t chunks_restored = 0;  // re-stored from the peer tier
  std::uint64_t bytes_restored = 0;        // stored payload bytes re-created
  std::uint64_t parity_bytes_rebuilt = 0;  // share recovered via parity
  std::size_t unrecoverable = 0;    // chunks no tier could produce
  std::size_t catalog_records = 0;  // records rewritten into the new log
  /// Every keeper chunk has a live replica again and the catalog log is
  /// durable — the repository is fully restartable.
  bool complete() const { return unrecoverable == 0; }
};

class Session {
 public:
  struct Config {
    RetentionPolicy retention;
    Catalog::Config catalog;
    /// Job identity in a multi-tenant repository: non-empty namespaces the
    /// catalog name ("<catalog.name>/<job>"), so this session's tenant
    /// lists, restarts and retires only its own lineage — other jobs'
    /// catalogs are separate named blobs in the same repository.
    std::string job;
    /// Run retention after every completed checkpoint (reclaimed bytes
    /// accumulate in gc_reclaimed_bytes()).
    bool auto_retention = true;
  };

  explicit Session(core::Deployment& deployment)
      : Session(deployment, Config()) {}
  Session(core::Deployment& deployment, Config cfg);

  core::Deployment& deployment() { return *dep_; }
  Catalog& catalog() { return catalog_; }
  const Config& config() const { return cfg_; }

  /// Re-points the session at a replacement deployment (the FT runner's
  /// from-scratch resubmission constructs a new Deployment object). The
  /// catalog — repository state — is untouched.
  void attach(core::Deployment& deployment) { dep_ = &deployment; }

  /// External checkpoint: snapshots every instance in parallel, then
  /// commits the line to the catalog (stage -> drain -> Complete). On a
  /// drain failure the record is marked Incomplete and the error rethrown.
  sim::Task<CheckpointRecord> checkpoint(std::string tag = "");

  /// Commits the deployment's current last-snapshot line (guest-triggered
  /// coordinated checkpoints whose driver runs its own barriers).
  sim::Task<CheckpointRecord> commit_last(std::string tag = "");

  /// Protocol half 1: durably stage a record of the current snapshot line
  /// (snapshots may still be provisional under the async pipeline). Any
  /// previously dangling staged record is first marked Incomplete.
  sim::Task<> stage_last(std::string tag = "");

  /// Protocol half 2: refresh the staged record's tuples from the published
  /// version records and mark it Complete. Runs retention when configured.
  sim::Task<CheckpointRecord> publish_staged();

  /// Marks the currently staged record (if any) Incomplete — the drain died
  /// mid-publish and the record can never complete.
  sim::Task<> abandon_staged();

  /// Restart knobs beyond the selector.
  struct RestartOptions {
    /// Node shift for the rebuilt instances (fresh machines).
    std::size_t node_offset = 0;
    /// Drop the deployment's decoded-chunk caches first (§4.3.1's restart-
    /// on-different-nodes semantics); leave false for FT rollbacks where
    /// survivors keep serving peer copies.
    bool cold_caches = false;
    /// Target instance count M; 0 means the record's own tuple count N.
    /// Every restart maps the N recorded tuples onto M fresh instances
    /// through cr::build_restart_plan (see cr/remap.h): the identity plan
    /// for M == N; contiguous shards, attached volumes for M < N and fresh
    /// checkpoint images for M > N clones otherwise. Rescaling a qcow2-full
    /// record throws CrError.
    std::size_t instances = 0;
  };

  /// Tears the deployment down and restarts it from the selected Complete
  /// checkpoint as `opts` says. Returns the record restarted from.
  /// The restart writes no new catalog state: the record restarted from
  /// stays the lineage head, so after a rescale the next checkpoint's
  /// `parent` still points at the pre-rescale record (now with M tuples).
  sim::Task<CheckpointRecord> restart(const Selector& sel,
                                      const RestartOptions& opts);

  sim::Task<std::vector<CheckpointRecord>> list() { return catalog_.list(); }

  /// Disaster recovery after a repository outage (SCR-style scavenge): every
  /// data provider died and its stored chunks are gone, but compute nodes —
  /// and their decoded-chunk caches plus parity groups — survive. Rejoins
  /// the failed providers with empty stores, re-creates every chunk a
  /// restartable (Complete/Staged) record references from the peer tier
  /// (surviving cache copies first, parity rebuild second), re-registers the
  /// new placements, and rewrites the catalog log into a fresh blob under
  /// the same name. After a complete() pass the repository is bit-exact
  /// restartable again. BlobCR backend only.
  sim::Task<ScavengeReport> scavenge();

  /// Applies the retention policy now: untagged Complete records beyond
  /// keep-last-N retire, their snapshot versions are garbage-collected
  /// (BlobCR) or their snapshot files removed (qcow2-disk), and the catalog
  /// log itself is compacted. On BlobCR the pass runs one GC epoch per
  /// store that has drops: every image floor and whole-image drop of that
  /// store shares one mark, and the catalog log's superseded versions
  /// (Catalog::log_drop) ride its home store's epoch. Returns the bytes
  /// reclaimed by this pass.
  sim::Task<std::uint64_t> apply_retention();

  /// The checkpoint the deployment currently descends from (restart target
  /// or last committed record; 0 before either).
  CheckpointId lineage_head() const { return lineage_head_; }
  /// The most recent record this session committed (publish_staged /
  /// checkpoint / commit_last), for drivers that need its tuples.
  const std::optional<CheckpointRecord>& last_committed() const {
    return last_committed_;
  }
  /// Total bytes reclaimed by retention over this session's lifetime.
  std::uint64_t gc_reclaimed_bytes() const { return gc_reclaimed_bytes_; }

 private:
  sim::Task<> init_lineage();
  sim::Task<> mark_incomplete(CheckpointId id);
  /// Elastic M > N on qcow2-disk: clone instances must not share their
  /// source's snapshot container (both would commit into the same PVFS
  /// file) — copy the container to a fresh path for every fresh_image
  /// instance in the plan, rewriting its boot tuple in place.
  sim::Task<> clone_qcow_containers(core::RestartPlan& plan);

  core::Deployment* dep_;
  Config cfg_;
  Catalog catalog_;
  CheckpointId staged_ = 0;
  CheckpointId lineage_head_ = 0;
  bool lineage_init_ = false;
  std::optional<CheckpointRecord> last_committed_;
  std::uint64_t gc_reclaimed_bytes_ = 0;
};

}  // namespace blobcr::cr
