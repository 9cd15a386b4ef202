#pragma once

/// \file pfrdtn.hpp
/// Umbrella header for the PFR-DTN library.
///
/// Layering (lower layers never include upper ones):
///   util/   ids, rng, sim-time, byte buffers, stats
///   repl/   the peer-to-peer filtered replication substrate
///   dtn/    the DTN messaging application + routing policies
///   trace/  synthetic workload & mobility generators, trace I/O
///   sim/    the emulation harness reproducing the paper's evaluation
///
/// Most applications need only dtn/messaging.hpp plus one policy
/// header; include this umbrella for exploratory use.

// util
#include "util/byte_buffer.hpp"
#include "util/ids.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"
#include "util/stats.hpp"

// replication substrate
#include "repl/filter.hpp"
#include "repl/forwarding_policy.hpp"
#include "repl/item.hpp"
#include "repl/knowledge.hpp"
#include "repl/replica.hpp"
#include "repl/store.hpp"
#include "repl/sync.hpp"
#include "repl/version.hpp"

// DTN layer
#include "dtn/baselines.hpp"
#include "dtn/direct.hpp"
#include "dtn/epidemic.hpp"
#include "dtn/filter_strategy.hpp"
#include "dtn/maxprop.hpp"
#include "dtn/message.hpp"
#include "dtn/messaging.hpp"
#include "dtn/policy.hpp"
#include "dtn/prophet.hpp"
#include "dtn/registry.hpp"
#include "dtn/spray_focus.hpp"
#include "dtn/spray_wait.hpp"

// traces & emulation
#include "sim/emulator.hpp"
#include "sim/event_queue.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "trace/email.hpp"
#include "trace/encounter.hpp"
#include "trace/mobility.hpp"
#include "trace/random_waypoint.hpp"
#include "trace/trace_io.hpp"
