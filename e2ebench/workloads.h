// Workload shapes of the end-to-end benchmark and the pieces both drivers
// share: the signal-stream digest and the per-repetition script.
//
// A repetition builds one eval::World, runs the 2-day warmup and corpus
// initialization (the set-up an operator pays before the first verdict),
// then closes a fixed number of monitored 900 s windows. The same script
// runs over two drivers: World::run_until itself (untraced, for the gated
// end-to-end metrics) and the shadow driver (shadow.h), which replays that
// loop through the World's public components and times every layer call.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "eval/world.h"
#include "signals/signal.h"

namespace rrr::e2e {

enum class Workload { kArchive, kLive, kRecalibrate };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload workload);

struct Shape {
  eval::WorldParams params;
  // Monitored windows closed after corpus initialization.
  std::int64_t measured_windows = 0;
  // plan_refreshes budget run at every simulated day boundary after corpus
  // initialization, each chosen pair refreshed at once.
  int refresh_budget = 0;
  // Attach a StalenessService and query it over loopback HTTP while the
  // windows close (live). Otherwise the service is materialized once after
  // the last window and queried on a quiet server.
  bool serve_during_run = false;
  // Open-loop query rate of the single generator thread.
  double query_rate_per_s = 0.0;
  // Queries sent per repetition against the quiet server (when
  // serve_during_run is false).
  int quiet_queries = 0;
};

// Worlds are drawn from a fixed pool of world seeds 1..kWorldPool whose
// serial-configuration signal digests are committed (references.tsv), so
// every repetition is checked against a stored reference without paying
// for a reference run. A run plays several worlds, which keeps one
// heavy or light topology from setting a whole run's figures.
inline constexpr int kWorldPool = 12;

// The pool in the order a run with `seed` plays it (a seeded shuffle).
std::vector<std::uint64_t> world_seeds(std::uint64_t seed);

// The benchmark configuration of `workload` for world seed `seed`.
// `short_config` shrinks the corpus, feed and measured span for the
// shadow-driver self-test while keeping every mechanism of the workload
// (refresh days, recalibration, serving) on the path.
Shape make_shape(Workload workload, std::uint64_t seed, bool short_config);

// The serial oracle configuration for the same timeline: one engine
// thread, one shard, absorb not pipelined. The determinism contract makes
// its signal stream the reference every measured configuration must
// reproduce.
eval::WorldParams reference_params(const Shape& shape);

// FNV-1a-64 over StalenessSignal::to_string() of every emitted signal, in
// emission order, each followed by '\n'.
class SignalDigest {
 public:
  void fold(const std::vector<signals::StalenessSignal>& signals);
  std::int64_t count() const { return count_; }
  std::string hex() const;
  bool operator==(const SignalDigest& other) const = default;

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
  std::int64_t count_ = 0;
};

// The World calls a workload script makes. WorldDriver forwards them to
// eval::World; the shadow driver re-implements them with per-layer timing.
class Driver {
 public:
  virtual ~Driver() = default;
  virtual void run_until(TimePoint t, const eval::World::Hooks& hooks) = 0;
  virtual std::size_t initialize_corpus() = 0;
  virtual std::vector<tr::PairKey> plan_refreshes(int budget) = 0;
  virtual signals::RefreshOutcome refresh_pair(const tr::PairKey& pair,
                                               TimePoint t) = 0;
};

class WorldDriver final : public Driver {
 public:
  explicit WorldDriver(eval::World& world) : world_(world) {}
  void run_until(TimePoint t, const eval::World::Hooks& hooks) override {
    world_.run_until(t, hooks);
  }
  std::size_t initialize_corpus() override {
    return world_.initialize_corpus();
  }
  std::vector<tr::PairKey> plan_refreshes(int budget) override {
    return world_.plan_refreshes(budget);
  }
  signals::RefreshOutcome refresh_pair(const tr::PairKey& pair,
                                       TimePoint t) override {
    return world_.refresh_pair(pair, t);
  }

 private:
  eval::World& world_;
};

struct ScriptResult {
  SignalDigest digest;
  double setup_s = 0.0;     // warmup + corpus init; the caller adds World
                            // construction, which it times itself
  double measured_s = 0.0;  // first monitored window opened -> last hook
  std::vector<double> gaps_ms;  // between consecutive on_signals hooks
  std::size_t pairs = 0;
  std::int64_t refreshes = 0;  // daily refresh-cycle refreshes
  // The measured windows' signals, when the caller asked to keep them.
  std::vector<signals::StalenessSignal> signals;
};

// Runs warmup, corpus init and the measured windows of `shape` through
// `driver`. `on_measure_begin` runs between set-up and the first measured
// window (the caller starts serving and the query generator there).
ScriptResult run_script(Driver& driver, eval::World& world,
                        const Shape& shape,
                        const std::function<void()>& on_measure_begin,
                        bool keep_signals);

}  // namespace rrr::e2e
