// Telemetry instrument bundles for the staleness engine (see obs/metrics.h
// for the cost model and the semantic/runtime domain split).
//
// Ownership: the engine facade (ShardedStalenessEngine) builds one EngineObs
// of pointers into its MetricsRegistry and hands *copies* of the relevant
// sub-bundles to monitors, shards, and the potential index. Instruments are registry-owned, so copies stay valid for
// the registry's lifetime; a default-constructed bundle is all-null and
// makes every update a no-op.
#pragma once

#include <array>

#include "obs/metrics.h"
#include "signals/signal.h"

namespace rrr::signals {

// Short label slug per technique, e.g. {technique="aspath"}.
const char* technique_label(Technique technique);

inline std::size_t technique_index(Technique technique) {
  return static_cast<std::size_t>(technique);
}

// Per-monitor close instrumentation (runtime domain): wall time of one
// close_window call and the size of the work list it drained.
struct MonitorObs {
  obs::Histogram* close_us = nullptr;
  obs::Histogram* close_items = nullptr;
};

// Every instrument the engine close path updates.
struct EngineObs {
  // Semantic domain — facts of the signal stream, byte-identical across any
  // (shards, threads) grid point (asserted by tests/determinism_test.cpp).
  std::array<obs::Counter*, kTechniqueCount> signals_emitted{};
  std::array<obs::Counter*, kTechniqueCount> potentials_opened{};
  // Signals a monitor suppressed because the feed streams backing them were
  // quarantined by the FeedHealthTracker.
  std::array<obs::Counter*, kTechniqueCount> dropped_unhealthy_feed{};
  obs::Counter* signals_suppressed_cooldown = nullptr;
  obs::Counter* signals_dropped_refreshed = nullptr;
  // Refresh gradings skipped because the refreshed pair's probe stream was
  // quarantined (calibration tallies frozen, section 4.3.1).
  obs::Counter* calibration_frozen = nullptr;
  obs::Counter* revocations = nullptr;
  obs::Counter* refreshes = nullptr;
  obs::Counter* refreshes_changed = nullptr;
  obs::Counter* bgp_records_absorbed = nullptr;

  // Runtime domain — wall-clock spans of the close path's stages.
  obs::Histogram* window_close_us = nullptr;
  obs::Histogram* dispatch_us = nullptr;
  obs::Histogram* absorb_us = nullptr;
  obs::Histogram* merge_us = nullptr;
  obs::Histogram* register_us = nullptr;

  // Per-monitor bundles, indexed by technique_index().
  std::array<MonitorObs, kTechniqueCount> monitors{};

  static EngineObs create(obs::MetricsRegistry& registry);
};

}  // namespace rrr::signals
