#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace rrr::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

// The retrospective world every paper-figure bench starts from
// (bench/bench_common.h retrospective_params at its defaults).
eval::WorldParams retrospective_world(std::uint64_t seed) {
  eval::WorldParams params;
  params.seed = seed;
  params.corpus_dest_count = 36;
  params.platform.num_probes = 700;
  params.topology.num_transit = 48;
  params.topology.num_stub = 200;
  return params;
}

void scale_event_rates(routing::DynamicsParams& d, double factor) {
  d.interconnect_flap_per_day *= factor;
  d.egress_shift_per_day *= factor;
  d.adjacency_flap_per_day *= factor;
  d.preferred_link_shift_per_day *= factor;
  d.te_community_churn_per_day *= factor;
  d.parrot_update_per_day *= factor;
  d.ixp_join_per_day *= factor;
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w :
       {Workload::kArchive, Workload::kLive, Workload::kRecalibrate}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kArchive:
      return "archive";
    case Workload::kLive:
      return "live";
    case Workload::kRecalibrate:
      return "recalibrate";
  }
  return "?";
}

Shape make_shape(Workload workload, std::uint64_t seed, bool short_config) {
  Shape shape;
  eval::WorldParams& p = shape.params;
  p = retrospective_world(seed);
  p.recalibration_interval_windows = 0;
  // 1.125 simulated days: crosses one day boundary after corpus init (live
  // refresh cycle, probe churn) and leaves >= 10 gap samples above p90.
  shape.measured_windows = 108;
  switch (workload) {
    case Workload::kArchive:  // fig11 shape: the trace path
      p.corpus_pair_target = 1200;
      p.public_traces_per_window = 800;
      // Two, not every core: the trace path is serial, so more threads do
      // not raise throughput, but on a shared 4-vCPU host a close spread
      // over all four waits on the slowest and doubles run-to-run spread.
      p.engine_threads = 2;
      shape.query_rate_per_s = 1000.0;
      shape.quiet_queries = 400;
      break;
    case Workload::kLive:  // fig07 operator shape: the window close
      p.corpus_pair_target = 2500;
      p.public_traces_per_window = 100;
      scale_event_rates(p.dynamics, 3.0);
      p.engine_threads = 2;
      shape.serve_during_run = true;
      shape.query_rate_per_s = 400.0;
      break;
    case Workload::kRecalibrate:  // table2 shape: corpus-state writes
      p.corpus_pair_target = 1200;
      p.public_traces_per_window = 200;
      p.recalibration_interval_windows = 8;
      p.engine_threads = 1;
      shape.query_rate_per_s = 1000.0;
      shape.quiet_queries = 400;
      break;
  }
  if (short_config) {
    p.corpus_pair_target = 300;
    p.public_traces_per_window = std::max(p.public_traces_per_window / 8, 10);
    p.warmup_days = 1;
    // The day boundary 96 windows after corpus init stays measured.
    shape.measured_windows = 100;
    shape.quiet_queries = 20;
  }
  // Every workload runs the operator's daily refresh cycle (fig07's budget
  // of pairs / 25), so every layer has work on every workload.
  shape.refresh_budget = p.corpus_pair_target / 25;
  // World::end() is whole days past corpus_t0; the schedule must cover the
  // measured span.
  p.days = static_cast<int>((shape.measured_windows * kBaseWindowSeconds +
                             kSecondsPerDay - 1) /
                            kSecondsPerDay);
  return shape;
}

std::vector<std::uint64_t> world_seeds(std::uint64_t seed) {
  std::vector<std::uint64_t> pool;
  for (int i = 1; i <= kWorldPool; ++i) pool.push_back(i);
  Rng(seed).fork(0x5EED).shuffle(pool);
  return pool;
}

eval::WorldParams reference_params(const Shape& shape) {
  eval::WorldParams params = shape.params;
  params.engine_threads = 1;
  params.engine_shards = 1;
  params.pipeline_absorb = false;
  return params;
}

void SignalDigest::fold(
    const std::vector<signals::StalenessSignal>& signals) {
  for (const signals::StalenessSignal& signal : signals) {
    std::string line = signal.to_string();
    line += '\n';
    for (unsigned char c : line) {
      hash_ = (hash_ ^ c) * 1099511628211ull;
    }
    ++count_;
  }
}

std::string SignalDigest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

ScriptResult run_script(Driver& driver, eval::World& world,
                        const Shape& shape,
                        const std::function<void()>& on_measure_begin,
                        bool keep_signals) {
  ScriptResult result;
  eval::World::Hooks hooks;
  hooks.on_signals = [&](std::int64_t, TimePoint,
                         std::vector<signals::StalenessSignal>&& sigs) {
    result.digest.fold(sigs);
  };

  const auto setup_begin = Clock::now();
  driver.run_until(world.corpus_t0(), hooks);
  result.pairs = driver.initialize_corpus();
  result.setup_s = seconds_since(setup_begin);

  if (on_measure_begin) on_measure_begin();

  Clock::time_point last = Clock::now();
  const Clock::time_point measure_begin = last;
  result.gaps_ms.reserve(static_cast<std::size_t>(shape.measured_windows));
  hooks.on_signals = [&](std::int64_t, TimePoint,
                         std::vector<signals::StalenessSignal>&& sigs) {
    const Clock::time_point now = Clock::now();
    result.gaps_ms.push_back(
        std::chrono::duration<double, std::milli>(now - last).count());
    last = now;
    result.digest.fold(sigs);
    if (keep_signals) {
      result.signals.insert(result.signals.end(), sigs.begin(), sigs.end());
    }
  };
  hooks.on_day = [&](int, TimePoint t) {
    if (t <= world.corpus_t0()) return;
    for (const tr::PairKey& pair :
         driver.plan_refreshes(shape.refresh_budget)) {
      driver.refresh_pair(pair, t);
      ++result.refreshes;
    }
  };
  driver.run_until(
      world.corpus_t0() + shape.measured_windows * world.window_seconds(),
      hooks);
  result.measured_s =
      std::chrono::duration<double>(last - measure_begin).count();
  return result;
}

}  // namespace rrr::e2e
