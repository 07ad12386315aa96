#include "pfs/pvfs.h"

#include <algorithm>

#include "sim/when_all.h"

namespace blobcr::pfs {

sim::Task<> PvfsClient::meta_rpc() {
  co_await cluster_->fabric_->message(node_, cluster_->cfg_.meta_node);
  co_await cluster_->meta_service_.process();
  co_await cluster_->fabric_->message(cluster_->cfg_.meta_node, node_);
}

PvfsCluster::FileRec& PvfsClient::lookup(FileId file) {
  const auto it = cluster_->files_.find(file);
  if (it == cluster_->files_.end()) throw PvfsError("stale file handle");
  return it->second;
}

sim::Task<FileId> PvfsClient::create(const std::string& path) {
  co_await meta_rpc();
  if (cluster_->names_.count(path) != 0) throw PvfsError("file exists: " + path);
  const FileId id = cluster_->next_file_id_++;
  PvfsCluster::FileRec rec;
  rec.id = id;
  rec.path = path;
  rec.start_server =
      static_cast<std::size_t>(id % cluster_->cfg_.io_servers.size());
  cluster_->names_[path] = id;
  cluster_->files_[id] = std::move(rec);
  co_return id;
}

sim::Task<FileId> PvfsClient::open(const std::string& path) {
  co_await meta_rpc();
  const auto it = cluster_->names_.find(path);
  if (it == cluster_->names_.end()) throw PvfsError("no such file: " + path);
  co_return it->second;
}

sim::Task<std::uint64_t> PvfsClient::stat_size(const std::string& path) {
  co_await meta_rpc();
  const auto it = cluster_->names_.find(path);
  if (it == cluster_->names_.end()) throw PvfsError("no such file: " + path);
  co_return cluster_->files_.at(it->second).size;
}

sim::Task<> PvfsClient::remove(const std::string& path) {
  co_await meta_rpc();
  const auto it = cluster_->names_.find(path);
  if (it == cluster_->names_.end()) throw PvfsError("no such file: " + path);
  const FileId id = it->second;
  cluster_->stored_bytes_ -=
      cluster_->files_.at(id).content.allocated_bytes();
  cluster_->files_.erase(id);
  cluster_->names_.erase(it);
}

std::uint64_t PvfsClient::cached_size(FileId file) const {
  const auto it = cluster_->files_.find(file);
  return it == cluster_->files_.end() ? 0 : it->second.size;
}

PvfsClient::StripeTarget PvfsClient::target_of(
    const PvfsCluster::FileRec& rec, std::uint64_t unit) const {
  const std::size_t n = cluster_->cfg_.io_servers.size();
  const std::uint64_t s = cluster_->cfg_.stripe_size;
  StripeTarget t;
  t.server = (rec.start_server + static_cast<std::size_t>(unit)) % n;
  t.bstream_offset = (unit / n) * s;
  return t;
}

namespace {

/// Outstanding stripe requests per client operation.
constexpr std::size_t kClientWindow = 8;

/// One server's share of a striped operation: contiguous segments in that
/// server's per-file bstream.
struct ServerOp {
  std::uint64_t bytes = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> segments;  // off, len

  void add(std::uint64_t bstream_off, std::uint64_t len) {
    bytes += len;
    if (!segments.empty() &&
        segments.back().first + segments.back().second == bstream_off) {
      segments.back().second += len;  // coalesce sequential stripe units
      return;
    }
    segments.emplace_back(bstream_off, len);
  }
};

/// Disk stream id for (file, server): each file has its own bstream per
/// server — interleaved traffic to many files forces head movement.
std::uint64_t bstream_id(FileId file, std::size_t server) {
  return common::mix64(file * 1315423911ULL + server);
}

}  // namespace

sim::Task<> PvfsClient::write(FileId file, std::uint64_t offset,
                              common::Buffer data) {
  PvfsCluster::FileRec& rec = lookup(file);
  const std::uint64_t stripe = cluster_->cfg_.stripe_size;
  const std::uint64_t len = data.size();
  if (len == 0) co_return;

  std::unordered_map<std::size_t, ServerOp> ops;
  for (std::uint64_t pos = offset; pos < offset + len;) {
    const std::uint64_t unit = pos / stripe;
    const std::uint64_t unit_end = (unit + 1) * stripe;
    const std::uint64_t piece = std::min(unit_end, offset + len) - pos;
    const StripeTarget t = target_of(rec, unit);
    ops[t.server].add(t.bstream_offset + (pos - unit * stripe), piece);
    pos += piece;
  }

  std::vector<sim::Task<>> tasks;
  tasks.reserve(ops.size());
  for (const auto& [server, op] : ops) {
    const PvfsCluster::IoServer& io = cluster_->cfg_.io_servers[server];
    tasks.push_back(
        [](PvfsClient* self, PvfsCluster::IoServer srv, FileId fid,
           std::size_t server_index, ServerOp server_op,
           std::uint64_t buf) -> sim::Task<> {
          co_await self->cluster_->fabric_->transfer(self->node_, srv.node,
                                                     server_op.bytes);
          // The server services the request in flow-buffer-sized pieces, so
          // concurrent traffic to other files interleaves at the disk.
          for (const auto& [off, seg_len] : server_op.segments) {
            for (std::uint64_t done = 0; done < seg_len; done += buf) {
              const std::uint64_t piece = std::min(buf, seg_len - done);
              co_await srv.disk->write(bstream_id(fid, server_index),
                                       off + done, piece);
            }
          }
        }(this, io, file, server, op, cluster_->cfg_.stripe_size));
  }
  co_await sim::run_window(*cluster_->sim_, kClientWindow, std::move(tasks));

  cluster_->stored_bytes_ -= rec.content.allocated_bytes();
  rec.content.write(offset, std::move(data));
  cluster_->stored_bytes_ += rec.content.allocated_bytes();
  rec.size = std::max(rec.size, offset + len);
}

sim::Task<common::Buffer> PvfsClient::read(FileId file, std::uint64_t offset,
                                           std::uint64_t len) {
  PvfsCluster::FileRec& rec = lookup(file);
  if (offset >= rec.size) co_return common::Buffer();
  len = std::min(len, rec.size - offset);
  const std::uint64_t stripe = cluster_->cfg_.stripe_size;

  std::unordered_map<std::size_t, ServerOp> ops;
  for (std::uint64_t pos = offset; pos < offset + len;) {
    const std::uint64_t unit = pos / stripe;
    const std::uint64_t unit_end = (unit + 1) * stripe;
    const std::uint64_t piece = std::min(unit_end, offset + len) - pos;
    const StripeTarget t = target_of(rec, unit);
    ops[t.server].add(t.bstream_offset + (pos - unit * stripe), piece);
    pos += piece;
  }

  std::vector<sim::Task<>> tasks;
  tasks.reserve(ops.size());
  for (const auto& [server, op] : ops) {
    const PvfsCluster::IoServer& io = cluster_->cfg_.io_servers[server];
    tasks.push_back(
        [](PvfsClient* self, PvfsCluster::IoServer srv, FileId fid,
           std::size_t server_index, ServerOp server_op,
           std::uint64_t buf) -> sim::Task<> {
          for (const auto& [off, seg_len] : server_op.segments) {
            for (std::uint64_t done = 0; done < seg_len; done += buf) {
              const std::uint64_t piece = std::min(buf, seg_len - done);
              co_await srv.disk->read(bstream_id(fid, server_index),
                                      off + done, piece);
            }
          }
          co_await self->cluster_->fabric_->transfer(srv.node, self->node_,
                                                     server_op.bytes);
        }(this, io, file, server, op, cluster_->cfg_.stripe_size));
  }
  co_await sim::run_window(*cluster_->sim_, kClientWindow, std::move(tasks));
  co_return rec.content.read(offset, len);
}

}  // namespace blobcr::pfs
