// Restart remap: the control-plane transform that maps an N-instance
// checkpoint onto the M instances of a restart. Every restart runs it
// (cr::Session::restart -> Deployment::restart_from), so elastic N -> M
// restart is the same path as a 1:1 rollback (the related checkpointing-
// as-a-service work makes the elasticity pitch explicit — jobs shrink on
// spot reclaim and grow on queue drain).
//
// The content-addressed restart data plane already makes snapshot chunks
// instance-agnostic, so rescaling is pure bookkeeping: the catalog's N
// per-instance snapshot tuples are assigned to M fresh instances as
// contiguous shards.
//
//   M == N  the identity plan: every instance gets exactly its own tuple;
//   M <  N  instance i boots from tuple i*N/M and adopts the rest of its
//           shard [i*N/M, (i+1)*N/M) as attached data volumes, so the
//           union of device images across the deployment is unchanged;
//   M >  N  several instances share one source tuple: the first keeps the
//           checkpoint image for its own subsequent commits, later ones
//           are marked fresh_image so their first commit derives a fresh
//           checkpoint image (no two instances ever commit into the same
//           image).
//
// qcow2-full checkpoints resume full VM state (guest RAM included); an MPI
// job's rank count is baked into that state, so rescaling them is refused.
#pragma once

#include <cstddef>
#include <vector>

#include "core/cloud.h"

namespace blobcr::cr {

/// The source tuple index new instance `i` of `m` boots from when
/// rescaling an `n`-tuple checkpoint: contiguous shards, in order.
inline std::size_t remap_source(std::size_t i, std::size_t n, std::size_t m) {
  return i * n / m;
}

/// Builds the per-instance restart plan mapping the given snapshot line
/// onto `m` instances (see file comment for the shard assignment).
/// Throws CrError when the line is empty, `m` is 0, or any tuple is a
/// qcow2-full checkpoint while m != n.
core::RestartPlan build_restart_plan(
    const std::vector<core::InstanceSnapshot>& tuples, std::size_t m);

}  // namespace blobcr::cr
