// Repository-wide job identity. Jobs register once (Cloud::register_tenant,
// which fills the repository's qos::TenantRegistry) and tag their repository
// requests with the returned TenantId. Tenant 0 is the implicit default
// (single-job deployments never need to register).
#pragma once

#include <cstdint>

namespace blobcr::net {

using TenantId = std::uint32_t;
inline constexpr TenantId kDefaultTenant = 0;

}  // namespace blobcr::net
