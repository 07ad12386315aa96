// commit_spooled: the one COMMIT of a mirroring module's dirty extents,
// shared by the synchronous path (MirrorDevice::ioctl_commit) and the
// asynchronous drain (FlushAgent).
//
// Chunks are pulled inside the store's window-limited pipeline, but the
// FUSE-style mirroring module scans its modification log sequentially — so
// reads are spooled with 4 MiB readahead to keep the local disk near
// streaming rate instead of seeking per 256 KiB chunk. The spool reserves
// a range before awaiting the disk, so concurrent window slots never issue
// overlapping reads; their data is already streaming.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "blob/client.h"
#include "common/buffer.h"
#include "common/rangeset.h"
#include "sim/task.h"
#include "storage/disk.h"

namespace blobcr::blob {

/// Serves the actual payload bytes once the disk time is charged (e.g. a
/// slice of the mirroring module's cache or of a frozen staging
/// generation). Synchronous: data structures only, no simulated cost.
using SpoolContent =
    std::function<common::Buffer(std::uint64_t offset, std::uint64_t len)>;

/// Commits `ranges` (chunk-rounded extents) of `blob` through `client`,
/// reading each chunk from `disk` on `stream` with spooled readahead and
/// taking its bytes from `content`. `ranges` must outlive the task.
inline sim::Task<VersionId> commit_spooled(BlobClient& client, BlobId blob,
                                           const common::RangeSet& ranges,
                                           storage::Disk& disk,
                                           std::uint64_t stream,
                                           SpoolContent content,
                                           CommitOptions opts = {}) {
  constexpr std::uint64_t kReadahead = 4 * 1024 * 1024;
  const std::vector<common::Range> extents = ranges.to_vector();
  std::vector<BlobClient::ExtentSpec> specs;
  specs.reserve(extents.size());
  for (const common::Range& r : extents) specs.push_back({r.begin, r.length()});
  // The reader and its spool state live in this frame, which awaits the
  // whole pipeline.
  common::RangeSet done;
  BlobClient::ExtentReader reader =
      [&](std::uint64_t offset,
          std::uint64_t length) -> sim::Task<common::Buffer> {
    if (!done.contains(offset, offset + length)) {
      // Spool forward within the commit range containing this chunk.
      std::uint64_t spool_end = offset + length;
      for (const common::Range& full : extents) {
        if (full.begin <= offset && offset < full.end) {
          spool_end =
              std::max(spool_end, std::min(full.end, offset + kReadahead));
          break;
        }
      }
      done.insert(offset, spool_end);
      co_await disk.read(stream, offset, spool_end - offset);
    }
    co_return content(offset, length);
  };
  co_return co_await client.write_extents_via(blob, std::move(specs), &reader,
                                              std::move(opts));
}

}  // namespace blobcr::blob
