#include "apps/cm1.h"

#include <cassert>
#include <cstring>

#include "common/codec.h"
#include "common/strutil.h"
#include "guestfs/simplefs.h"

namespace blobcr::apps {

Cm1Rank::Cm1Rank(vm::GuestProcess& proc, mpi::MpiWorld::Comm comm,
                 Cm1Config cfg, int rank)
    : proc_(&proc), comm_(comm), cfg_(cfg), rank_(rank) {
  assert(cfg_.px * cfg_.py >= rank + 1);
  gx_ = rank % cfg_.px;
  gy_ = rank / cfg_.px;
}

int Cm1Rank::neighbor(int dx, int dy) const {
  const int nx = gx_ + dx;
  const int ny = gy_ + dy;
  if (nx < 0 || nx >= cfg_.px || ny < 0 || ny >= cfg_.py) return -1;
  return ny * cfg_.px + nx;
}

double* Cm1Rank::field_data() {
  return reinterpret_cast<double*>(
      proc_->region("fields").mutable_bytes().data());
}

const double* Cm1Rank::field_data() const {
  auto bytes = proc_->regions().at("fields").bytes();
  return reinterpret_cast<const double*>(bytes.data());
}

std::uint64_t Cm1Rank::state_digest() const {
  return proc_->regions().at("fields").digest();
}

double Cm1Rank::local_diag() const {
  if (!cfg_.real_data) return 0.0;
  const double* f = field_data();
  double sum = 0;
  const std::size_t n = cell_count();
  for (std::size_t i = 0; i < n; ++i) sum += f[i];
  return sum / static_cast<double>(n);
}

sim::Task<> Cm1Rank::init() {
  if (cfg_.real_data) {
    common::Buffer fields = common::Buffer::zeros(cfg_.field_bytes());
    proc_->set_region("fields", std::move(fields));
    // Bryan–Rotunno-style initial bubble: a smooth perturbation around the
    // subdomain center, distinct per variable and per rank.
    double* f = field_data();
    const int nx = cfg_.nx;
    const int ny = cfg_.ny;
    const int nz = cfg_.nz;
    for (int v = 0; v < cfg_.nvars; ++v) {
      for (int z = 0; z < nz; ++z) {
        for (int y = 0; y < ny; ++y) {
          for (int x = 0; x < nx; ++x) {
            const double cx = (x - nx / 2.0) / nx;
            const double cy = (y - ny / 2.0) / ny;
            const double cz = (z - nz / 2.0) / nz;
            const std::size_t at =
                (((static_cast<std::size_t>(v) * nz + z) * ny + y) * nx + x);
            f[at] = (v + 1) * (1.0 - (cx * cx + cy * cy + cz * cz)) +
                    0.01 * rank_;
          }
        }
      }
    }
  } else {
    proc_->set_region("fields", common::Buffer::phantom(cfg_.field_bytes()));
  }
  // Touching all that memory costs time.
  co_await proc_->compute(sim::transfer_time(cfg_.field_bytes(), 4e9));
}

common::Buffer Cm1Rank::pack_face(int dx, int dy) const {
  const std::uint64_t bytes = dx != 0 ? x_face_bytes() : y_face_bytes();
  if (!cfg_.real_data) return common::Buffer::phantom(bytes);
  common::Buffer face = common::Buffer::zeros(bytes);
  double* out = reinterpret_cast<double*>(face.mutable_bytes().data());
  const double* f = field_data();
  const int nx = cfg_.nx;
  const int ny = cfg_.ny;
  const int nz = cfg_.nz;
  std::size_t o = 0;
  for (int v = 0; v < cfg_.nvars; ++v) {
    for (int z = 0; z < nz; ++z) {
      if (dx != 0) {
        const int x = dx < 0 ? 0 : nx - 1;
        for (int y = 0; y < ny; ++y) {
          out[o++] =
              f[(((static_cast<std::size_t>(v) * nz + z) * ny + y) * nx + x)];
        }
      } else {
        const int y = dy < 0 ? 0 : ny - 1;
        for (int x = 0; x < nx; ++x) {
          out[o++] =
              f[(((static_cast<std::size_t>(v) * nz + z) * ny + y) * nx + x)];
        }
      }
    }
  }
  return face;
}

void Cm1Rank::apply_face(int dx, int dy, const common::Buffer& face) {
  if (!cfg_.real_data || face.is_phantom()) return;
  const double* in = reinterpret_cast<const double*>(face.bytes().data());
  double* f = field_data();
  const int nx = cfg_.nx;
  const int ny = cfg_.ny;
  const int nz = cfg_.nz;
  std::size_t o = 0;
  // Neighbor boundary values relax this rank's edge layer toward them.
  for (int v = 0; v < cfg_.nvars; ++v) {
    for (int z = 0; z < nz; ++z) {
      if (dx != 0) {
        const int x = dx < 0 ? 0 : nx - 1;
        for (int y = 0; y < ny; ++y) {
          auto& cell =
              f[(((static_cast<std::size_t>(v) * nz + z) * ny + y) * nx + x)];
          cell = 0.5 * (cell + in[o++]);
        }
      } else {
        const int y = dy < 0 ? 0 : ny - 1;
        for (int x = 0; x < nx; ++x) {
          auto& cell =
              f[(((static_cast<std::size_t>(v) * nz + z) * ny + y) * nx + x)];
          cell = 0.5 * (cell + in[o++]);
        }
      }
    }
  }
}

void Cm1Rank::advance_fields() {
  if (!cfg_.real_data) return;
  double* f = field_data();
  const int nx = cfg_.nx;
  const int ny = cfg_.ny;
  const int nz = cfg_.nz;
  constexpr double kAlpha = 0.05;
  for (int v = 0; v < cfg_.nvars; ++v) {
    double* g = f + static_cast<std::size_t>(v) * nz * ny * nx;
    for (int z = 1; z < nz - 1; ++z) {
      for (int y = 1; y < ny - 1; ++y) {
        for (int x = 1; x < nx - 1; ++x) {
          const std::size_t at =
              (static_cast<std::size_t>(z) * ny + y) * nx + x;
          const double lap = g[at - 1] + g[at + 1] + g[at - nx] + g[at + nx] +
                             g[at - static_cast<std::size_t>(nx) * ny] +
                             g[at + static_cast<std::size_t>(nx) * ny] -
                             6.0 * g[at];
          g[at] += kAlpha * lap;
        }
      }
    }
  }
}

sim::Task<> Cm1Rank::step() {
  // Halo exchange: paired sendrecv with each existing neighbor, one axis at
  // a time (the classic CM1/MPI pattern). Tags encode the travel direction,
  // so both peers of a pair agree: I send travel_tag(d) and receive the
  // message that traveled -d.
  struct Dir {
    int dx, dy, out_tag, in_tag;
  };
  static constexpr Dir kDirs[] = {{-1, 0, 101, 102},
                                  {1, 0, 102, 101},
                                  {0, -1, 103, 104},
                                  {0, 1, 104, 103}};
  for (const Dir& d : kDirs) {
    const int other = neighbor(d.dx, d.dy);
    if (other < 0) continue;
    common::Buffer incoming = co_await comm_.sendrecv(
        other, d.out_tag + iteration_ * 10, pack_face(d.dx, d.dy), other,
        d.in_tag + iteration_ * 10);
    apply_face(d.dx, d.dy, incoming);
  }
  advance_fields();
  co_await proc_->compute(cfg_.iteration_compute);
  ++iteration_;

  if (cfg_.diag_interval > 0 && iteration_ % cfg_.diag_interval == 0) {
    // Global stability diagnostic, like CM1's CFL checks: every rank
    // contributes its subdomain mean and all agree on the sum.
    std::vector<double> diag(1, local_diag());
    diag = co_await comm_.allreduce_sum(std::move(diag));
    last_diag_ = diag[0];
  }

  if (cfg_.summary_interval > 0 && iteration_ % cfg_.summary_interval == 0) {
    guestfs::SimpleFs* fs = proc_->vm().fs();
    const std::string path =
        common::strf("/data/summary_r%03d_i%05d.bin", rank_, iteration_);
    common::Buffer summary =
        cfg_.real_data
            ? common::Buffer::pattern(cfg_.summary_bytes,
                                      state_digest() ^ iteration_)
            : common::Buffer::phantom(cfg_.summary_bytes);
    co_await proc_->vm().gate();
    co_await fs->write_file(path, std::move(summary));
  }
}

sim::Task<> Cm1Rank::run(int iterations) {
  for (int i = 0; i < iterations; ++i) co_await step();
}

std::string Cm1Rank::checkpoint_path() const {
  return common::strf("/data/cm1_restart_r%03d.bin", rank_);
}

sim::Task<std::uint64_t> Cm1Rank::write_checkpoint() {
  guestfs::SimpleFs* fs = proc_->vm().fs();
  co_await proc_->vm().gate();
  common::ByteWriter header;
  header.u32(static_cast<std::uint32_t>(iteration_));
  header.u64(cfg_.field_bytes());
  header.u64(state_digest());
  common::Buffer head = header.take();
  head.resize(kHeaderAlign);

  const guestfs::Fd fd = fs->open(checkpoint_path(), /*create=*/true);
  co_await fs->pwrite(fd, 0, std::move(head));
  co_await fs->pwrite(fd, kHeaderAlign, proc_->regions().at("fields"));
  const std::uint64_t total = fs->file_size(fd);
  fs->close(fd);
  co_return total;
}

sim::Task<bool> Cm1Rank::restore_checkpoint() {
  guestfs::SimpleFs* fs = proc_->vm().fs();
  co_await proc_->vm().gate();
  const guestfs::Fd fd = fs->open(checkpoint_path());
  common::Buffer head = co_await fs->pread(fd, 0, kHeaderAlign);
  common::ByteReader r(head);
  iteration_ = static_cast<int>(r.u32());
  const std::uint64_t bytes = r.u64();
  const std::uint64_t digest = r.u64();
  common::Buffer fields = co_await fs->pread(fd, kHeaderAlign, bytes);
  fs->close(fd);
  const bool ok = fields.size() == bytes && fields.digest() == digest;
  proc_->set_region("fields", std::move(fields));
  co_return ok;
}

}  // namespace blobcr::apps
