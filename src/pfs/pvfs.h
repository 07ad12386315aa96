// PvfsCluster / PvfsClient: the paper's baseline substrate — a PVFS-style
// parallel file system.
//
// Deliberately faithful properties (they drive the paper's comparisons):
//  * one metadata server; namespace operations are serialized RPCs;
//  * files striped round-robin over I/O servers with a static start server
//    derived from the file id — placement never adapts to load;
//  * every client reading the same file hits the same stripe servers;
//  * a server stores each file's stripes in its own local bstream, so
//    concurrent traffic to many files interleaves streams and pays disk
//    positioning costs (contrast: BlobSeer providers append to one log);
//  * no client-side caching.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/sparse.h"
#include "net/fabric.h"
#include "net/service.h"
#include "sim/sim.h"
#include "storage/disk.h"

namespace blobcr::pfs {

using FileId = std::uint64_t;

class PvfsError : public std::runtime_error {
 public:
  explicit PvfsError(const std::string& what) : std::runtime_error(what) {}
};

class PvfsCluster {
 public:
  struct IoServer {
    net::NodeId node = 0;
    storage::Disk* disk = nullptr;
  };
  struct Config {
    net::NodeId meta_node = 0;
    std::vector<IoServer> io_servers;
    std::uint64_t stripe_size = 256 * 1024;  // paper: 256 KB
    sim::Duration meta_request_cost = 300 * sim::kMicrosecond;
  };

  PvfsCluster(sim::Simulation& sim, net::Fabric& fabric, const Config& cfg)
      : sim_(&sim),
        fabric_(&fabric),
        cfg_(cfg),
        meta_service_(sim, "pvfs-mds", cfg.meta_request_cost) {}

  const Config& config() const { return cfg_; }
  std::uint64_t total_stored_bytes() const { return stored_bytes_; }
  std::uint64_t meta_requests() const { return meta_service_.requests_served(); }
  std::size_t file_count() const { return files_.size(); }

 private:
  friend class PvfsClient;

  struct FileRec {
    FileId id = 0;
    std::string path;
    std::uint64_t size = 0;
    std::size_t start_server = 0;  // static stripe placement
    common::SparseFile content;
  };

  sim::Simulation* sim_;
  net::Fabric* fabric_;
  Config cfg_;
  net::ServiceQueue meta_service_;
  std::unordered_map<std::string, FileId> names_;
  std::unordered_map<FileId, FileRec> files_;
  FileId next_file_id_ = 1;
  std::uint64_t stored_bytes_ = 0;
};

class PvfsClient {
 public:
  PvfsClient(PvfsCluster& cluster, net::NodeId node)
      : cluster_(&cluster), node_(node) {}

  net::NodeId node() const { return node_; }

  sim::Task<FileId> create(const std::string& path);
  sim::Task<FileId> open(const std::string& path);
  sim::Task<std::uint64_t> stat_size(const std::string& path);
  sim::Task<> remove(const std::string& path);

  sim::Task<> write(FileId file, std::uint64_t offset, common::Buffer data);
  sim::Task<common::Buffer> read(FileId file, std::uint64_t offset,
                                 std::uint64_t len);

  /// Size without an RPC (the client tracks it from its own writes; for
  /// foreign files prefer stat_size).
  std::uint64_t cached_size(FileId file) const;

 private:
  sim::Task<> meta_rpc();
  PvfsCluster::FileRec& lookup(FileId file);

  /// Maps a stripe unit to (server, offset inside that server's bstream).
  struct StripeTarget {
    std::size_t server;
    std::uint64_t bstream_offset;
  };
  StripeTarget target_of(const PvfsCluster::FileRec& rec,
                         std::uint64_t unit) const;

  PvfsCluster* cluster_;
  net::NodeId node_;
};

}  // namespace blobcr::pfs
