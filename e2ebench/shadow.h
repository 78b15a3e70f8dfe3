// Shadow driver: replays eval::World::run_until through the World's public
// components, timing every call into a layer.
//
// It never calls World::run_until or World::initialize_corpus. Instead it
// re-derives the World's private event schedule (same generator, same seed
// fork) and makes the same calls in the same order with the same RNG
// draws, so the signal stream is byte-identical to the World's own loop —
// the self-test (`rrr_e2e --selftest`) pins that on every workload shape.
// A change to World::run_until that this file does not mirror shows up
// there as a digest mismatch instead of as silently mis-attributed time.
//
// Mirrored: event/slot merge, process_event, issue_public_trace,
// advance_to, the flight-recorder drain, serving materialization, hooks,
// recalibrate_all and the day-boundary churn. Not mirrored (the benchmark
// never enables them): fault injection, checkpoint/WAL, watchdog, the
// telemetry series.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "workloads.h"

namespace rrr::e2e {

enum class Layer : int {
  kRoutingApply,   // control_plane().apply
  kBgpFeed,        // feed().on_event
  kBgpIngest,      // engine().on_bgp_record
  kGroundTruth,    // ground_truth().on_impact / track
  kTraceIssue,     // platform().issue for public traces
  kTraceIngest,    // engine().on_public_trace
  kClose,          // engine().advance_to
  kTraceDrain,     // tracer()->drain() (tracing's own cost)
  kMaterialize,    // StalenessService::on_window
  kHooks,          // the benchmark's on_signals hook
  kRefreshIssue,   // platform().issue for refreshes / recalibration
  kRefresh,        // engine().apply_refresh
  kPlan,           // engine().plan_refreshes
  kChurn,          // platform().advance_churn
  kCorpusIssue,    // platform().issue for the t0 corpus traces
  kWatch,          // engine().watch
  kCount
};

struct LayerTotals {
  std::array<double, static_cast<std::size_t>(Layer::kCount)> us{};
  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> calls{};
  std::int64_t bgp_records = 0;   // records feed().on_event produced
  std::int64_t refresh_hits = 0;  // apply_refresh calls that saw a change

  double& us_of(Layer layer) { return us[static_cast<std::size_t>(layer)]; }
  double us_of(Layer layer) const {
    return us[static_cast<std::size_t>(layer)];
  }
  std::int64_t calls_of(Layer layer) const {
    return calls[static_cast<std::size_t>(layer)];
  }
  double sum_us() const;
};

class ShadowDriver final : public Driver {
 public:
  explicit ShadowDriver(eval::World& world);

  void run_until(TimePoint t, const eval::World::Hooks& hooks) override;
  std::size_t initialize_corpus() override;
  std::vector<tr::PairKey> plan_refreshes(int budget) override;
  signals::RefreshOutcome refresh_pair(const tr::PairKey& pair,
                                       TimePoint t) override;

  // Switches accounting from the set-up totals to the measured totals.
  void begin_measured() { current_ = &measured_; }
  const LayerTotals& setup() const { return setup_; }
  const LayerTotals& measured() const { return measured_; }
  // advance_to wall time of every measured window, ms.
  const std::vector<double>& close_ms() const { return close_ms_; }

 private:
  template <typename Fn>
  decltype(auto) timed(Layer layer, Fn&& fn);

  void process_event(const routing::Event& event);
  void issue_public_trace(TimePoint t);
  void recalibrate_all(TimePoint t);

  eval::World& world_;
  std::vector<routing::Event> schedule_;
  std::size_t event_cursor_ = 0;
  TimePoint now_;
  LayerTotals setup_;
  LayerTotals measured_;
  LayerTotals* current_ = &setup_;
  std::vector<double> close_ms_;
};

}  // namespace rrr::e2e
