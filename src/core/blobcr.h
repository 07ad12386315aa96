// Umbrella public API for the BlobCR reproduction.
#pragma once

#include "core/cloud.h"          // IWYU pragma: export
#include "core/mirror_device.h"  // IWYU pragma: export
#include "cr/catalog.h"          // IWYU pragma: export
#include "cr/checkpoint.h"       // IWYU pragma: export
#include "cr/session.h"          // IWYU pragma: export
#include "core/proxy.h"          // IWYU pragma: export
#include "core/rest_proxy.h"     // IWYU pragma: export
#include "core/wire.h"           // IWYU pragma: export
#include "mpi/blcr.h"            // IWYU pragma: export
#include "mpi/coordinated.h"     // IWYU pragma: export
#include "mpi/mpi.h"             // IWYU pragma: export
