#include "vm/guest_os.h"

#include "common/strutil.h"

namespace blobcr::vm {

using common::kMB;

namespace {

/// Guest-side cost of opening one hot-set file during boot.
constexpr sim::Duration kPerFileOpenCost = 200 * sim::kMicrosecond;

}  // namespace

GuestOsConfig GuestOsConfig::debian_like() {
  GuestOsConfig cfg;
  cfg.fs.block_size = 4096;
  cfg.fs.metadata_blocks = 512;
  cfg.fs.alloc_scatter_blocks = 12;  // spread files like block groups do
  cfg.files.push_back({"/boot/vmlinuz", 8 * kMB, true});
  cfg.files.push_back({"/boot/initrd.img", 28 * kMB, true});
  cfg.files.push_back({"/sbin/init", 1 * kMB, true});
  // Hot shared libraries and daemons (~60 MB over 30 files).
  for (int i = 0; i < 30; ++i) {
    cfg.files.push_back(
        {common::strf("/usr/lib/lib%02d.so", i), 2 * kMB, true});
  }
  // Cold content: /usr, /var, locales... (~500 MB over 100 files).
  for (int i = 0; i < 100; ++i) {
    cfg.files.push_back(
        {common::strf("/usr/share/data%03d.bin", i), 5 * kMB, false});
  }
  return cfg;
}

GuestOsConfig GuestOsConfig::test_tiny() {
  GuestOsConfig cfg;
  cfg.image_size = 64 * kMB;
  cfg.fs.block_size = 4096;
  cfg.fs.metadata_blocks = 128;
  cfg.fs.alloc_scatter_blocks = 16;
  cfg.phantom_content = false;
  cfg.boot_noise_bytes = 256 * 1024;
  cfg.boot_noise_files = 8;
  cfg.boot_cpu_time = sim::kSecond;
  cfg.files.push_back({"/boot/vmlinuz", 2 * kMB, true});
  cfg.files.push_back({"/boot/initrd.img", 1 * kMB, true});
  cfg.files.push_back({"/usr/lib/libc.so", 512 * 1024, true});
  cfg.files.push_back({"/usr/share/doc.bin", 4 * kMB, false});
  return cfg;
}

sim::Task<> GuestOs::build_image(img::BlockDevice& dev,
                                 const GuestOsConfig& cfg) {
  co_await guestfs::SimpleFs::mkfs(dev, cfg.fs);
  auto fs = co_await guestfs::SimpleFs::mount(dev);
  fs->mkdir("/boot");
  fs->mkdir("/sbin");
  fs->mkdir("/usr");
  fs->mkdir("/usr/lib");
  fs->mkdir("/usr/share");
  fs->mkdir("/var");
  fs->mkdir("/var/log");
  fs->mkdir("/etc");
  fs->mkdir("/data");
  // Applications may add their own files (e.g. a reference dataset shared
  // through the base image, §2.2) anywhere in the tree: create parents.
  auto ensure_parents = [&fs](const std::string& path) {
    for (std::size_t pos = path.find('/', 1); pos != std::string::npos;
         pos = path.find('/', pos + 1)) {
      const std::string dir = path.substr(0, pos);
      if (!fs->exists(dir)) fs->mkdir(dir);
    }
  };
  std::uint64_t seed = 0xdeb1a11;
  for (const auto& spec : cfg.files) {
    ensure_parents(spec.path);
    common::Buffer content =
        cfg.phantom_content ? common::Buffer::phantom(spec.bytes)
                            : common::Buffer::pattern(spec.bytes, seed++);
    co_await fs->write_file(spec.path, std::move(content));
  }
  co_await fs->sync();
}

sim::Task<> GuestOs::boot(VmInstance& vm, const GuestOsConfig& cfg) {
  co_await vm.gate();
  auto fs = co_await guestfs::SimpleFs::mount(vm.disk());
  guestfs::SimpleFs& ref = *fs;
  vm.adopt_fs(std::move(fs));

  // Read the hot set (kernel, initrd, libraries) through the virtual disk —
  // this is the traffic that lazy fetching accelerates on restart.
  for (const auto& spec : cfg.files) {
    if (!spec.hot) continue;
    co_await vm.gate();
    co_await vm.simulation().delay(kPerFileOpenCost);
    (void)co_await ref.read_file(spec.path);
  }

  // Init scripts, daemon start-up.
  co_await vm.guest_compute(cfg.boot_cpu_time);

  // Boot-time file system noise: logs, generated configs.
  const std::uint64_t per_file =
      cfg.boot_noise_files == 0
          ? 0
          : cfg.boot_noise_bytes / cfg.boot_noise_files;
  for (std::uint32_t i = 0; i < cfg.boot_noise_files; ++i) {
    co_await vm.gate();
    common::Buffer content =
        cfg.phantom_content
            ? common::Buffer::phantom(per_file)
            : common::Buffer::pattern(per_file, 0xb007'0000ULL + i);
    co_await ref.write_file(common::strf("/var/log/boot%03u.log", i),
                            std::move(content));
  }
  co_await ref.sync();
}

}  // namespace blobcr::vm
