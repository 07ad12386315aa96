// BlockDevice: what a hypervisor exposes to its guest as the virtual disk.
// Implementations: QcowImage (the qcow baselines' copy-on-write image),
// core's MirrorDevice (BlobCR's mirroring module) and MemDevice (offline
// image authoring). Writes are durable in the device once acknowledged, so
// a guest `sync` needs no device-level flush.
#pragma once

#include <cstdint>

#include "common/buffer.h"
#include "sim/sim.h"

namespace blobcr::img {

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;
  virtual std::uint64_t capacity() const = 0;
  virtual sim::Task<> write(std::uint64_t offset, common::Buffer data) = 0;
  virtual sim::Task<common::Buffer> read(std::uint64_t offset,
                                         std::uint64_t len) = 0;
};

}  // namespace blobcr::img
