// GuestOs: builds the base disk image (a Debian-like file population) and
// models the guest boot sequence — mount the root FS, read the boot hot set
// (kernel, initrd, init, shared libraries), burn boot CPU time, write the
// boot-time noise (logs, machine-id, dhcp leases...) that every disk
// snapshot inevitably carries (the paper's 7–13 MB "minor updates").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "guestfs/simplefs.h"
#include "img/mem_device.h"
#include "sim/sim.h"
#include "vm/vm_instance.h"

namespace blobcr::vm {

struct GuestOsConfig {
  struct FileSpec {
    std::string path;
    std::uint64_t bytes = 0;
    bool hot = false;  // read during boot
  };

  std::vector<FileSpec> files;
  guestfs::FsConfig fs;
  std::uint64_t image_size = 2000 * common::kMB;  // paper: 2 GB raw image

  /// Boot-time writes (logs, generated configs).
  std::uint64_t boot_noise_bytes = 7 * common::kMB;
  std::uint32_t boot_noise_files = 48;
  sim::Duration boot_cpu_time = 5 * sim::kSecond;

  /// When true, install phantom payloads (benchmark scale); tests use real.
  bool phantom_content = true;

  std::uint64_t hot_set_bytes() const {
    std::uint64_t total = 0;
    for (const auto& f : files) {
      if (f.hot) total += f.bytes;
    }
    return total;
  }

  /// A Debian-Sid-like population: ~96 MB hot boot set, ~500 MB of cold
  /// content, FS block scattering comparable to ext3 block groups.
  static GuestOsConfig debian_like();

  /// A tiny image for unit tests (real content, a few MB).
  static GuestOsConfig test_tiny();
};

class GuestOs {
 public:
  /// Authors the base image into `dev` (no simulated cost — image
  /// preparation happens before the experiments).
  static sim::Task<> build_image(img::BlockDevice& dev,
                                 const GuestOsConfig& cfg);

  /// Boot sequence on a VM whose disk holds a built image. Mounts the FS
  /// into the VM, performs hot reads / noise writes / CPU burn.
  static sim::Task<> boot(VmInstance& vm, const GuestOsConfig& cfg);
};

}  // namespace blobcr::vm
