// SimpleFs: the guest operating system's file system, implemented for real
// over a BlockDevice.
//
// Why a real file system: BlobCR's headline property is that a disk snapshot
// captures (and a restore rolls back) every file-system modification. That
// is only a meaningful claim if files actually live in device blocks: data
// blocks through a write-back page cache, metadata (superblock, inodes,
// directories, allocation map) serialized to a reserved region on sync().
// Mounting the block device that a snapshot restored must recover exactly
// the synced state — nothing in this module keeps host-side shadow state.
//
// Layout:  [ block 0: superblock | metadata region | data blocks ]
// The metadata region and data region are aligned to `region_align_bytes`
// (default 256 KiB) so image-level COW units never straddle real metadata
// and possibly-phantom data.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/rangeset.h"
#include "common/rng.h"
#include "common/sparse.h"
#include "img/block_device.h"
#include "sim/sim.h"

namespace blobcr::guestfs {

using Ino = std::uint32_t;
using Fd = std::int32_t;

class FsError : public std::runtime_error {
 public:
  explicit FsError(const std::string& what) : std::runtime_error(what) {}
};

struct FsConfig {
  std::uint32_t block_size = 4096;
  std::uint32_t metadata_blocks = 512;  // 2 MiB of metadata space
  std::uint64_t region_align_bytes = 256 * 1024;
  /// After creating a file, jump the next-fit allocation cursor by a random
  /// stride up to this many blocks — mimics block-group spreading of real
  /// file systems (drives the paper's snapshot-granularity overhead).
  std::uint32_t alloc_scatter_blocks = 0;
  std::uint64_t scatter_seed = 0x5ca7732dULL;
};

struct FileStat {
  Ino ino = 0;
  bool is_dir = false;
  std::uint64_t size = 0;
  std::size_t extent_count = 0;
};

class SimpleFs {
 public:
  /// Formats the device. Destroys any previous content.
  static sim::Task<> mkfs(img::BlockDevice& dev, FsConfig cfg);

  /// Mounts a formatted device by decoding the on-disk metadata.
  static sim::Task<std::unique_ptr<SimpleFs>> mount(img::BlockDevice& dev);

  // --- namespace operations (cached metadata; durable after sync()) ---
  bool exists(const std::string& path) const;
  FileStat stat(const std::string& path) const;
  void mkdir(const std::string& path);
  std::vector<std::string> readdir(const std::string& path) const;
  void unlink(const std::string& path);

  /// Opens a file; creates it if `create`. Returns a file descriptor whose
  /// cursor starts at 0 (or end if `append_mode`).
  Fd open(const std::string& path, bool create = false,
          bool append_mode = false);
  void close(Fd fd);

  // --- data operations ---
  sim::Task<> write(Fd fd, common::Buffer data);  // at cursor
  sim::Task<> pwrite(Fd fd, std::uint64_t offset, common::Buffer data);
  sim::Task<common::Buffer> read(Fd fd, std::uint64_t len);  // at cursor
  sim::Task<common::Buffer> pread(Fd fd, std::uint64_t offset,
                                  std::uint64_t len);
  void seek(Fd fd, std::uint64_t offset);
  std::uint64_t file_size(Fd fd) const;

  /// Convenience wrappers.
  sim::Task<> write_file(const std::string& path, common::Buffer data);
  sim::Task<common::Buffer> read_file(const std::string& path);

  /// Flushes dirty pages and metadata to the device (the guest's sync(2)).
  sim::Task<> sync();

  bool dirty() const { return !dirty_blocks_.empty() || meta_dirty_; }
  const FsConfig& config() const { return cfg_; }
  std::uint64_t data_start_block() const { return data_start_; }

 private:
  struct Inode {
    Ino ino = 0;
    bool dir = false;
    std::uint64_t size = 0;
    std::vector<common::Range> extents;       // physical block ranges
    std::map<std::string, Ino> entries;       // dir only
    std::uint64_t blocks() const {
      std::uint64_t n = 0;
      for (const auto& e : extents) n += e.length();
      return n;
    }
  };

  explicit SimpleFs(img::BlockDevice& dev) : dev_(&dev) {}

  common::Buffer encode_metadata() const;
  void decode_metadata(const common::Buffer& blob);

  Inode* resolve(const std::string& path);
  const Inode* resolve(const std::string& path) const;
  std::pair<Inode*, std::string> resolve_parent(const std::string& path);

  /// Where a logical block lives: its physical block, and how many blocks
  /// of the same extent start there (itself included).
  struct Placement {
    std::uint64_t block = 0;
    std::uint64_t run = 0;
  };
  Placement locate(const Inode& ino, std::uint64_t logical_block) const;
  /// Grows the inode to cover `blocks` logical blocks.
  void ensure_blocks(Inode& ino, std::uint64_t blocks);
  std::uint64_t allocate_block();
  void free_blocks(Inode& ino);

  sim::Task<common::Buffer> load_block(std::uint64_t block);
  /// Caches an exact-size copy of `count` blocks read from the device at
  /// `block` (a short read is zero-extended).
  void cache_read(std::uint64_t block, std::uint64_t count,
                  const common::Buffer& data);
  /// Caches `data` (whole blocks) at `block` and marks it dirty.
  void cache_write(std::uint64_t block, common::Buffer data);
  sim::Task<> flush_dirty_pages();

  img::BlockDevice* dev_;
  FsConfig cfg_;
  std::uint64_t total_blocks_ = 0;
  std::uint64_t data_start_ = 0;
  common::RangeSet allocated_;  // physical data blocks in use
  std::uint64_t next_fit_ = 0;
  common::Rng scatter_rng_{0};

  std::map<Ino, Inode> inodes_;
  Ino next_ino_ = 2;  // 1 = root
  bool meta_dirty_ = false;

  // Write-back page cache, addressed by physical byte offset: one extent per
  // run of blocks written or read together. cached_blocks_ says which
  // blocks it holds (a cached block never reads as a hole).
  common::SparseFile pages_;
  common::RangeSet cached_blocks_;
  common::RangeSet dirty_blocks_;

  struct OpenFile {
    Ino ino = 0;
    std::uint64_t cursor = 0;
  };
  std::map<Fd, OpenFile> fds_;
  Fd next_fd_ = 3;
};

}  // namespace blobcr::guestfs
