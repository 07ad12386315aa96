// Disk: a seek-aware local disk model.
//
// Bandwidth is one fair-share sim::FlowPort (sim/flow.h; the paper's
// nodes: SATA II, ~55 MB/s streaming). On top of that, every operation that
// is not strictly sequential with the previously issued operation charges a
// positioning cost, expressed as extra bytes (position_cost * bandwidth).
//
// This single knob is the mechanistic root of a key result in the paper:
// BlobSeer data providers append immutable chunks to a log (one stream, so
// heavy multi-client write traffic stays near streaming rate), while a PVFS
// I/O server interleaves writes into many per-file streams and degrades.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "sim/sim.h"

namespace blobcr::storage {

class Disk {
 public:
  struct Config {
    double bandwidth_bps = 55e6;                       // paper: ~55 MB/s
    sim::Duration position_cost = 6 * sim::kMillisecond;  // one head move
  };

  Disk(sim::Simulation& sim, const Config& cfg)
      : sim_(&sim), cfg_(cfg), port_(cfg.bandwidth_bps) {}

  /// `stream` identifies a logically contiguous byte sequence (a local file,
  /// an append log). Offsets are within the stream.
  sim::Task<> read(std::uint64_t stream, std::uint64_t offset,
                   std::uint64_t bytes) {
    return io(stream, offset, bytes, /*is_write=*/false);
  }
  sim::Task<> write(std::uint64_t stream, std::uint64_t offset,
                    std::uint64_t bytes) {
    return io(stream, offset, bytes, /*is_write=*/true);
  }

  /// Appends to a stream's current end (sequential if the stream was the
  /// last one served).
  sim::Task<> append(std::uint64_t stream, std::uint64_t bytes) {
    const std::uint64_t off = stream_end_[stream];
    return io(stream, off, bytes, /*is_write=*/true);
  }

  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t seeks() const { return seeks_; }
  const Config& config() const { return cfg_; }

 private:
  sim::Task<> io(std::uint64_t stream, std::uint64_t offset,
                 std::uint64_t bytes, bool is_write) {
    std::uint64_t charged = bytes;
    const bool sequential =
        stream == last_stream_ && offset == last_end_offset_;
    if (!sequential) {
      charged += position_bytes();
      ++seeks_;
    }
    last_stream_ = stream;
    last_end_offset_ = offset + bytes;
    auto& end = stream_end_[stream];
    if (offset + bytes > end) end = offset + bytes;
    if (is_write) {
      bytes_written_ += bytes;
    } else {
      bytes_read_ += bytes;
    }
    co_await sim::Flow(*sim_, port_, charged);
  }

  std::uint64_t position_bytes() const {
    return static_cast<std::uint64_t>(
        sim::to_seconds(cfg_.position_cost) * cfg_.bandwidth_bps);
  }

  sim::Simulation* sim_;
  Config cfg_;
  sim::FlowPort port_;
  std::unordered_map<std::uint64_t, std::uint64_t> stream_end_;
  std::uint64_t last_stream_ = ~0ULL;
  std::uint64_t last_end_offset_ = ~0ULL;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t seeks_ = 0;
};

/// Allocates distinct stream ids for Disk users on the same node.
class StreamIdAllocator {
 public:
  std::uint64_t next() { return next_++; }

 private:
  std::uint64_t next_ = 1;
};

}  // namespace blobcr::storage
