// Checkpoint control-plane types: the first-class notion of "a global
// checkpoint" the paper's middleware reasons about (§3.2 maps "the last
// complete global checkpoint" to a restart).
//
// A CheckpointRecord is the durable identity of one coordinated checkpoint:
// a monotonically-issued CheckpointId, the per-instance snapshot tuples that
// make it restartable, lineage (which checkpoint the deployment itself was
// running from), an optional user tag, and a completeness state. Records
// live in the repository (see cr::Catalog), not in any driver's memory, so
// they survive total driver loss.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cloud.h"
#include "sim/time.h"

namespace blobcr::cr {

/// Globally monotonic checkpoint identity, issued by the catalog. 0 = none.
using CheckpointId = std::uint64_t;

class CrError : public std::runtime_error {
 public:
  explicit CrError(const std::string& what) : std::runtime_error(what) {}
};

/// Completeness of a checkpoint record.
///
///   Staged     the coordinated protocol captured every instance's snapshot
///              (possibly still provisional under the async commit
///              pipeline) and durably recorded the intent;
///   Complete   every snapshot is published — the record is selectable for
///              restart;
///   Incomplete a drain (or the driver) died between Staged and Complete.
///              The record is kept for forensics and lineage but is never
///              selectable for restart;
///   Retired    reclaimed by the retention policy; its snapshot versions
///              may have been garbage-collected.
enum class RecordState : std::uint8_t {
  Staged = 0,
  Complete = 1,
  Incomplete = 2,
  Retired = 3,
};

const char* record_state_name(RecordState s);

struct CheckpointRecord {
  CheckpointId id = 0;
  /// The checkpoint the deployment was running from when this one was taken
  /// (0 for a fresh deployment) — the restart lineage.
  CheckpointId parent = 0;
  RecordState state = RecordState::Staged;
  /// Optional user label; selectable via Selector::by_tag. Tagged complete
  /// records are exempt from keep-last-N retention by default.
  std::string tag;
  sim::Time created = 0;
  /// One snapshot tuple per VM instance, in instance order.
  std::vector<core::InstanceSnapshot> snapshots;

  bool selectable() const { return state == RecordState::Complete; }

  std::uint64_t total_bytes() const {
    std::uint64_t sum = 0;
    for (const auto& s : snapshots) sum += s.bytes;
    return sum;
  }
};

/// How a restart (or a lookup) picks a record from the catalog.
struct Selector {
  enum class Kind { Latest, ById, ByTag };
  Kind kind = Kind::Latest;
  CheckpointId id = 0;
  std::string tag;

  /// The newest Complete record.
  static Selector latest() { return Selector{}; }
  /// The record with this exact id (any state; selection still refuses
  /// records that are not Complete).
  static Selector by_id(CheckpointId id) {
    Selector s;
    s.kind = Kind::ById;
    s.id = id;
    return s;
  }
  /// The newest Complete record carrying this tag.
  static Selector by_tag(std::string tag) {
    Selector s;
    s.kind = Kind::ByTag;
    s.tag = std::move(tag);
    return s;
  }

  std::string describe() const;
};

/// What the catalog keeps when a session applies retention. Reclaimed
/// records become Retired and their snapshot versions are handed to the
/// garbage collector (BlobCR) / removed from PVFS (qcow2-disk copies).
/// Tagged Complete records never retire.
struct RetentionPolicy {
  /// Keep the newest N Complete records; 0 keeps everything (no retention).
  std::size_t keep_last = 0;
};

}  // namespace blobcr::cr
