// Umbrella header for the discrete-event simulation engine.
#pragma once

#include "sim/flow.h"       // IWYU pragma: export
#include "sim/process.h"    // IWYU pragma: export
#include "sim/simulation.h" // IWYU pragma: export
#include "sim/sync.h"       // IWYU pragma: export
#include "sim/task.h"       // IWYU pragma: export
#include "sim/time.h"       // IWYU pragma: export
