#include "cr/remap.h"

#include <algorithm>

#include "cr/checkpoint.h"

namespace blobcr::cr {

core::RestartPlan build_restart_plan(
    const std::vector<core::InstanceSnapshot>& tuples, std::size_t m) {
  const std::size_t n = tuples.size();
  if (n == 0)
    throw CrError("restart: checkpoint record has no snapshot tuples");
  if (m == 0)
    throw CrError("restart: target instance count must be > 0");
  if (m != n) {
    for (const core::InstanceSnapshot& s : tuples) {
      if (s.backend == core::Backend::Qcow2Full) {
        throw CrError(
            "elastic restart: qcow2-full checkpoints resume full VM state "
            "(rank count included) and cannot rescale to a different "
            "instance count");
      }
    }
  }

  core::RestartPlan plan;
  plan.instances.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t lo = remap_source(i, n, m);
    const std::size_t hi = std::max(lo + 1, remap_source(i + 1, n, m));
    core::InstancePlan& ip = plan.instances[i];
    ip.boot = tuples[lo];
    ip.boot.instance = i;  // renumbered: records collected later see M tuples
    // A source shared by several new instances (M > N) keeps its checkpoint
    // image with the FIRST user only; the others derive fresh images on
    // their first commit so no two instances write the same image.
    ip.fresh_image = i > 0 && remap_source(i - 1, n, m) == lo;
    for (std::size_t s = lo + 1; s < hi; ++s) ip.attached.push_back(tuples[s]);
  }
  return plan;
}

}  // namespace blobcr::cr
