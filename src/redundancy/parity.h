// Parity primitives for the SCR-style peer redundancy tier (src/redundancy/).
//
// Config-only + pure helpers: safe to include from core/cloud.h. The
// stateful side (group formation, encode, rebuild) lives in manager.h.
#pragma once

#include <cstddef>

#include "common/buffer.h"

namespace blobcr::redundancy {

/// Data members per parity group (the XOR width), capped by the attached
/// nodes other than the holder. Members of one group always come from
/// DISTINCT compute nodes, so a single node failure costs at most one
/// member per group — the single-erasure case XOR reconstructs exactly.
constexpr std::size_t kGroupSize = 4;

/// Deployment knobs, wired through CloudConfig::redundancy.
struct RedundancyConfig {
  /// Master switch; off = PR-3 four-level restart hierarchy, byte-identical.
  bool enabled = false;
};

/// Bytewise XOR of two payloads, zero-padded to the longer one. Honesty
/// rule (same as reduce/): phantom content is unknowable, so any phantom
/// byte in either operand poisons the result to a phantom of the combined
/// length — sizes, placement and transfer costs still flow, only the
/// memxor is skipped.
common::Buffer xor_combine(const common::Buffer& a, const common::Buffer& b);

}  // namespace blobcr::redundancy
