#include "cr/catalog.h"

#include <algorithm>
#include <utility>

#include "common/codec.h"

namespace blobcr::cr {

using common::Buffer;
using common::ByteReader;
using common::ByteWriter;
using sim::Task;

namespace {

constexpr std::uint32_t kFrameMagic = 0x4b524342;  // "BCRK"
/// Frame padding; doubles as the catalog blob's chunk size, so every
/// in-place frame rewrite is chunk-aligned.
constexpr std::uint64_t kRecordAlign = 4096;

void encode_u64_map(ByteWriter& w,
                    const std::map<std::uint64_t, std::uint64_t>& m) {
  w.u32(static_cast<std::uint32_t>(m.size()));
  for (const auto& [k, v] : m) {
    w.u64(k);
    w.u64(v);
  }
}

std::map<std::uint64_t, std::uint64_t> decode_u64_map(ByteReader& r) {
  std::map<std::uint64_t, std::uint64_t> m;
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t k = r.u64();
    m[k] = r.u64();
  }
  return m;
}

void encode_u64_set(ByteWriter& w, const std::set<std::uint64_t>& s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  for (const std::uint64_t v : s) w.u64(v);
}

std::set<std::uint64_t> decode_u64_set(ByteReader& r) {
  std::set<std::uint64_t> s;
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) s.insert(r.u64());
  return s;
}

void encode_qcow_state(ByteWriter& w, const img::QcowImage::State& st) {
  encode_u64_map(w, st.l2);
  encode_u64_set(w, st.frozen);
  encode_u64_set(w, st.l2_covered);
  w.u64(st.l2_tables);
  w.u64(st.host_end);
  w.u32(static_cast<std::uint32_t>(st.snapshots.size()));
  for (const auto& snap : st.snapshots) {
    encode_u64_map(w, snap.l2);
    w.u64(snap.vmstate_offset);
    w.u64(snap.vmstate_bytes);
  }
  w.u64(st.guest_bytes_written);
}

img::QcowImage::State decode_qcow_state(ByteReader& r) {
  img::QcowImage::State st;
  st.l2 = decode_u64_map(r);
  st.frozen = decode_u64_set(r);
  st.l2_covered = decode_u64_set(r);
  st.l2_tables = r.u64();
  st.host_end = r.u64();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    img::QcowImage::Snapshot snap;
    snap.l2 = decode_u64_map(r);
    snap.vmstate_offset = r.u64();
    snap.vmstate_bytes = r.u64();
    st.snapshots.push_back(std::move(snap));
  }
  st.guest_bytes_written = r.u64();
  return st;
}

void encode_snapshot(ByteWriter& w, const core::InstanceSnapshot& s) {
  w.u64(s.instance);
  w.u8(static_cast<std::uint8_t>(s.backend));
  w.u64(s.image);
  w.u32(s.version);
  w.u64(s.bytes);
  w.u64(static_cast<std::uint64_t>(s.vm_downtime));
  w.str(s.pvfs_path);
  const bool has_qcow = s.backend != core::Backend::BlobCR;
  w.u8(has_qcow ? 1 : 0);
  if (has_qcow) encode_qcow_state(w, s.qcow_state);
}

core::InstanceSnapshot decode_snapshot(ByteReader& r) {
  core::InstanceSnapshot s;
  s.instance = static_cast<std::size_t>(r.u64());
  s.backend = static_cast<core::Backend>(r.u8());
  s.image = r.u64();
  s.version = r.u32();
  s.bytes = r.u64();
  s.vm_downtime = static_cast<sim::Duration>(r.u64());
  s.pvfs_path = r.str();
  if (r.u8() != 0) s.qcow_state = decode_qcow_state(r);
  return s;
}

CheckpointRecord decode_record(ByteReader& r) {
  CheckpointRecord rec;
  rec.id = r.u64();
  rec.parent = r.u64();
  rec.state = static_cast<RecordState>(r.u8());
  rec.created = static_cast<sim::Time>(r.u64());
  rec.tag = r.str();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    rec.snapshots.push_back(decode_snapshot(r));
  }
  return rec;
}

}  // namespace

const char* record_state_name(RecordState s) {
  switch (s) {
    case RecordState::Staged:
      return "staged";
    case RecordState::Complete:
      return "complete";
    case RecordState::Incomplete:
      return "incomplete";
    case RecordState::Retired:
      return "retired";
  }
  return "?";
}

std::string Selector::describe() const {
  switch (kind) {
    case Kind::Latest:
      return "latest";
    case Kind::ById:
      return "id " + std::to_string(id);
    case Kind::ByTag:
      return "tag \"" + tag + "\"";
  }
  return "?";
}

Catalog::Catalog(core::Cloud& cloud, Config cfg)
    : cloud_(&cloud), cfg_(std::move(cfg)) {
  if (cloud.blob_store() != nullptr) {
    home_store_ = cloud.blob_store();
    blob_client_ = std::make_unique<blob::BlobClient>(*home_store_,
                                                      cfg_.client_node);
    blob_client_->set_tenant(cfg_.tenant);
  } else {
    pvfs_client_ =
        std::make_unique<pfs::PvfsClient>(*cloud.pvfs(), cfg_.client_node);
  }
}

Buffer Catalog::encode_frame(const CheckpointRecord& rec,
                             std::uint64_t pad_to) const {
  ByteWriter payload;
  payload.u64(rec.id);
  payload.u64(rec.parent);
  payload.u8(static_cast<std::uint8_t>(rec.state));
  payload.u64(static_cast<std::uint64_t>(rec.created));
  payload.str(rec.tag);
  payload.u32(static_cast<std::uint32_t>(rec.snapshots.size()));
  for (const auto& s : rec.snapshots) encode_snapshot(payload, s);
  Buffer body = payload.take();

  const std::uint64_t raw = 12 + body.size();  // magic + frame_len + payload_len
  std::uint64_t padded = (raw + kRecordAlign - 1) / kRecordAlign * kRecordAlign;
  if (pad_to != 0) {
    if (raw > pad_to)
      throw CrError("checkpoint record " + std::to_string(rec.id) +
                    " grew past its catalog frame");
    padded = pad_to;
  }

  ByteWriter frame;
  frame.u32(kFrameMagic);
  frame.u32(static_cast<std::uint32_t>(padded));
  frame.u32(static_cast<std::uint32_t>(body.size()));
  Buffer out = frame.take();
  out.append(std::move(body));
  if (out.size() < padded) out.append(Buffer::zeros(padded - out.size()));
  return out;
}

void Catalog::parse_log(const Buffer& log) {
  records_.clear();
  frames_.clear();
  end_ = 0;
  next_id_ = 1;
  std::uint64_t off = 0;
  while (off + 12 <= log.size()) {
    // The sliced buffers must outlive their readers (a ByteReader holds a
    // span into the buffer it was constructed from).
    const Buffer header_bytes = log.slice(off, 12);
    ByteReader header(header_bytes);
    if (header.u32() != kFrameMagic) break;  // zero tail / end of log
    const std::uint32_t frame_len = header.u32();
    const std::uint32_t payload_len = header.u32();
    if (frame_len < 12 + payload_len || off + frame_len > log.size())
      throw CrError("corrupt checkpoint catalog frame at offset " +
                    std::to_string(off));
    const Buffer payload_bytes = log.slice(off + 12, payload_len);
    ByteReader payload(payload_bytes);
    CheckpointRecord rec = decode_record(payload);
    next_id_ = std::max(next_id_, rec.id + 1);
    records_.push_back(std::move(rec));
    frames_.push_back({off, frame_len});
    off += frame_len;
  }
  end_ = off;
}

Task<Buffer> Catalog::read_all() {
  if (blob_client_) {
    const blob::BlobMeta meta = co_await blob_client_->stat(blob_id_);
    blob_version_ = meta.latest();
    if (blob_version_ == 0) co_return Buffer();
    const std::uint64_t size = meta.version(blob_version_).size;
    if (size == 0) co_return Buffer();
    co_return co_await blob_client_->read(blob_id_, blob_version_, 0, size);
  }
  const std::uint64_t size = co_await pvfs_client_->stat_size(cfg_.name);
  if (size == 0) co_return Buffer();
  co_return co_await pvfs_client_->read(pvfs_file_, 0, size);
}

Task<> Catalog::write_at(std::uint64_t offset, Buffer frame) {
  if (blob_client_) {
    std::vector<blob::Extent> extents;
    extents.push_back({offset, std::move(frame)});
    blob_version_ =
        co_await blob_client_->write_extents(blob_id_, std::move(extents));
    co_return;
  }
  co_await pvfs_client_->write(pvfs_file_, offset, std::move(frame));
}

Task<> Catalog::open() {
  if (opened_) co_return;
  if (blob_client_) {
    blob_id_ = co_await blob_client_->lookup_name(cfg_.name);
    if (blob_id_ == 0) {
      // First catalog on this repository: create the log blob (its own,
      // small chunk size — frames are chunk-aligned for in-place rewrites)
      // and publish its name so any later driver can discover it.
      blob_id_ = co_await blob_client_->create(kRecordAlign);
      co_await blob_client_->bind_name(cfg_.name, blob_id_);
    }
  } else {
    bool missing = false;
    try {
      pvfs_file_ = co_await pvfs_client_->open(cfg_.name);
    } catch (const pfs::PvfsError&) {
      missing = true;
    }
    if (missing) pvfs_file_ = co_await pvfs_client_->create(cfg_.name);
  }
  parse_log(co_await read_all());
  opened_ = true;
}

Task<CheckpointRecord> Catalog::stage(CheckpointRecord rec) {
  co_await open();
  // Per-tenant catalog-record ceiling: admission is checked before any
  // durable write, so a rejected stage leaves the log untouched.
  if (blob_client_ != nullptr && home_store_ != nullptr) {
    const blob::BlobStore::TenantQuota& q =
        home_store_->tenant_quota(cfg_.tenant);
    if (q.max_catalog_records != 0 &&
        records_.size() >= q.max_catalog_records) {
      throw blob::QuotaExceededError(
          "tenant " + std::to_string(cfg_.tenant) + " catalog quota (" +
          std::to_string(q.max_catalog_records) +
          " records) exhausted — retire checkpoints before staging more");
    }
  }
  rec.id = next_id_;
  rec.state = RecordState::Staged;
  rec.created = cloud_->now();
  Buffer frame = encode_frame(rec, 0);
  const Frame slot{end_, frame.size()};
  Buffer replica = frame;
  co_await write_at(slot.offset, std::move(frame));
  // In-memory state follows the durable write (a caller killed mid-write
  // must leave the catalog exactly as the repository says).
  ++next_id_;
  end_ = slot.offset + slot.length;
  records_.push_back(rec);
  frames_.push_back(slot);
  if (blob_client_ != nullptr && cloud_->federation()->enabled()) {
    co_await cloud_->federation()->replicate_catalog(
        cfg_.name, rec.id, std::move(replica), cfg_.client_node);
  }
  co_return rec;
}

Task<> Catalog::update(CheckpointRecord rec) {
  co_await open();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].id != rec.id) continue;
    const Frame slot = frames_[i];
    Buffer frame = encode_frame(rec, slot.length);
    Buffer replica = frame;
    co_await write_at(slot.offset, std::move(frame));
    records_[i] = std::move(rec);
    if (blob_client_ != nullptr && cloud_->federation()->enabled()) {
      co_await cloud_->federation()->replicate_catalog(
          cfg_.name, records_[i].id, std::move(replica), cfg_.client_node);
    }
    co_return;
  }
  throw CrError("update of unknown checkpoint record " +
                std::to_string(rec.id));
}

Task<std::vector<CheckpointRecord>> Catalog::list() {
  co_await open();
  // One catalog round-trip: listing is a control-plane read, not free.
  if (blob_client_) {
    (void)co_await blob_client_->stat(blob_id_);
  } else {
    (void)co_await pvfs_client_->stat_size(cfg_.name);
  }
  co_return records_;
}

Task<std::optional<CheckpointRecord>> Catalog::find(const Selector& sel) {
  co_await open();
  switch (sel.kind) {
    case Selector::Kind::ById:
      for (const auto& rec : records_) {
        if (rec.id == sel.id) co_return rec;
      }
      co_return std::nullopt;
    case Selector::Kind::Latest:
    case Selector::Kind::ByTag:
      for (std::size_t i = records_.size(); i > 0; --i) {
        const CheckpointRecord& rec = records_[i - 1];
        if (!rec.selectable()) continue;
        if (sel.kind == Selector::Kind::ByTag && rec.tag != sel.tag) continue;
        co_return rec;
      }
      co_return std::nullopt;
  }
  co_return std::nullopt;
}

Task<CheckpointRecord> Catalog::select(const Selector& sel) {
  const std::optional<CheckpointRecord> rec = co_await find(sel);
  if (!rec.has_value())
    throw CrError("no checkpoint matches selector " + sel.describe());
  if (!rec->selectable())
    throw CrError("checkpoint " + std::to_string(rec->id) + " is " +
                  record_state_name(rec->state) +
                  " — only complete checkpoints are selectable for restart");
  co_return *rec;
}

Task<> Catalog::rebuild() {
  if (!blob_client_)
    throw CrError("catalog rebuild requires the BlobCR backend");
  if (!opened_) throw CrError("catalog rebuild requires an opened catalog");
  // A fresh blob, not a new version of the old one: the old blob's chunk
  // tuples reference reclaimed chunks, and a partial in-place rewrite would
  // leave a log that half-reads. Rebinding the name makes the swap atomic
  // from a discovering driver's point of view.
  blob_id_ = co_await blob_client_->create(kRecordAlign);
  blob_version_ = 0;
  Buffer log;
  frames_.clear();
  for (const CheckpointRecord& rec : records_) {
    Buffer frame = encode_frame(rec, 0);
    frames_.push_back({log.size(), frame.size()});
    log.append(std::move(frame));
  }
  end_ = log.size();
  if (log.size() != 0) {
    std::vector<blob::Extent> extents;
    extents.push_back({0, std::move(log)});
    blob_version_ =
        co_await blob_client_->write_extents(blob_id_, std::move(extents));
  }
  co_await blob_client_->bind_name(cfg_.name, blob_id_);
}

std::optional<blob::GarbageCollector::Drop> Catalog::log_drop() const {
  if (!blob_client_ || blob_id_ == 0 || blob_version_ <= 1) return std::nullopt;
  return blob::GarbageCollector::Drop{blob_id_, blob_version_};
}

Task<> Catalog::rehome_if_dead() {
  federation::Fabric* fed = cloud_->federation();
  if (blob_client_ == nullptr || fed->alive(home_store_->config().zone)) {
    co_return;
  }
  // The home zone's store is gone: every chunk of the old log blob is
  // unreachable, so rebind the client to a survivor *before* any read —
  // open()'s read_all against dead providers would fail, not recover.
  home_store_ = fed->store(fed->first_live_zone());
  blob_client_ =
      std::make_unique<blob::BlobClient>(*home_store_, cfg_.client_node);
  blob_client_->set_tenant(cfg_.tenant);
  blob_id_ = 0;
  blob_version_ = 0;
  if (!opened_) {
    // A fresh driver after the loss never read the log. Recover the record
    // set from the federation's replicated frames (id order == append
    // order, so the reassembled log parses like the original).
    Buffer log;
    if (const auto* frames = fed->catalog_records(cfg_.name)) {
      for (const auto& [id, frame] : *frames) log.append(frame);
    }
    parse_log(log);
    opened_ = true;
  }
  co_await rebuild();
}

}  // namespace blobcr::cr
