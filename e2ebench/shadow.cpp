#include "shadow.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "serve/service.h"

namespace rrr::e2e {
namespace {

using Clock = std::chrono::steady_clock;

// World's constructor builds its schedule from the monitored origins (the
// announced owners of the corpus destinations, sorted and deduplicated) and
// the VP ASes in feed order, seeded with rng fork 9. Everything it reads
// is reachable through the public accessors, and fork() does not depend on
// the generator's state.
std::vector<routing::Event> rebuild_schedule(eval::World& world) {
  std::vector<topo::AsIndex> origins;
  for (Ipv4 dst : world.corpus_dests()) {
    topo::AsIndex origin = world.topology().announced_owner_of(dst);
    if (origin != topo::kNoAs) origins.push_back(origin);
  }
  std::sort(origins.begin(), origins.end());
  origins.erase(std::unique(origins.begin(), origins.end()), origins.end());
  std::vector<topo::AsIndex> vp_as;
  for (const bgp::VantagePoint& vp : world.feed().vantage_points()) {
    vp_as.push_back(vp.as_index);
  }
  return routing::generate_schedule(
      world.topology(), world.params().dynamics, world.start(), world.end(),
      origins, vp_as, world.rng().fork(9).seed());
}

}  // namespace

double LayerTotals::sum_us() const {
  return std::accumulate(us.begin(), us.end(), 0.0);
}

ShadowDriver::ShadowDriver(eval::World& world)
    : world_(world), schedule_(rebuild_schedule(world)), now_(world.start()) {}

template <typename Fn>
decltype(auto) ShadowDriver::timed(Layer layer, Fn&& fn) {
  struct Stop {
    LayerTotals& totals;
    Layer layer;
    Clock::time_point begin = Clock::now();
    ~Stop() {
      totals.us_of(layer) +=
          std::chrono::duration<double, std::micro>(Clock::now() - begin)
              .count();
      ++totals.calls[static_cast<std::size_t>(layer)];
    }
  } stop{*current_, layer};
  return fn();
}

void ShadowDriver::process_event(const routing::Event& event) {
  routing::ControlPlane::Impact impact =
      timed(Layer::kRoutingApply,
            [&] { return world_.control_plane().apply(event); });
  std::vector<bgp::BgpRecord> records = timed(
      Layer::kBgpFeed, [&] { return world_.feed().on_event(event, impact); });
  current_->bgp_records += static_cast<std::int64_t>(records.size());
  timed(Layer::kBgpIngest, [&] {
    for (const bgp::BgpRecord& record : records) {
      world_.engine().on_bgp_record(record);
    }
  });
  timed(Layer::kGroundTruth,
        [&] { world_.ground_truth().on_impact(event, impact); });
}

void ShadowDriver::issue_public_trace(TimePoint t) {
  const std::vector<tr::ProbeId>& probes = world_.public_probes();
  const std::vector<Ipv4>& dests = world_.public_dests();
  if (probes.empty() || dests.empty()) return;
  Rng& rng = world_.rng();
  for (int attempt = 0; attempt < 4; ++attempt) {
    tr::ProbeId probe_id = probes[rng.index(probes.size())];
    if (!world_.platform().probe(probe_id).active) continue;
    Ipv4 dst = dests[rng.index(dests.size())];
    int variant = static_cast<int>(rng.uniform_int(0, 15));
    tr::Traceroute trace = timed(Layer::kTraceIssue, [&] {
      return world_.platform().issue(probe_id, dst, t, variant);
    });
    timed(Layer::kTraceIngest,
          [&] { world_.engine().on_public_trace(trace); });
    return;
  }
}

std::size_t ShadowDriver::initialize_corpus() {
  std::vector<std::pair<tr::ProbeId, Ipv4>> pairs;
  for (tr::ProbeId probe : world_.corpus_probes()) {
    for (Ipv4 dst : world_.corpus_dests()) pairs.emplace_back(probe, dst);
  }
  world_.rng().shuffle(pairs);
  const std::size_t target = std::min<std::size_t>(
      pairs.size(),
      static_cast<std::size_t>(world_.params().corpus_pair_target));
  std::size_t created = 0;
  for (std::size_t i = 0; i < pairs.size() && created < target; ++i) {
    const auto& [probe_id, dst] = pairs[i];
    const tr::Probe& probe = world_.platform().probe(probe_id);
    tr::Traceroute trace = timed(Layer::kCorpusIssue, [&] {
      return world_.platform().issue(probe_id, dst, now_, 0);
    });
    if (!trace.reached && trace.hops.empty()) continue;  // unroutable
    timed(Layer::kWatch, [&] { world_.engine().watch(probe, trace); });
    timed(Layer::kGroundTruth,
          [&] { world_.ground_truth().track(probe, dst); });
    ++created;
  }
  return created;
}

std::vector<tr::PairKey> ShadowDriver::plan_refreshes(int budget) {
  return timed(Layer::kPlan,
               [&] { return world_.engine().plan_refreshes(budget); });
}

signals::RefreshOutcome ShadowDriver::refresh_pair(const tr::PairKey& pair,
                                                   TimePoint t) {
  tr::Traceroute fresh = timed(Layer::kRefreshIssue, [&] {
    return world_.platform().issue(pair.probe, pair.dst, t, 0);
  });
  signals::RefreshOutcome outcome = timed(Layer::kRefresh, [&] {
    return world_.engine().apply_refresh(world_.platform().probe(pair.probe),
                                         fresh);
  });
  if (outcome.change != tracemap::ChangeKind::kNone) ++current_->refresh_hits;
  return outcome;
}

void ShadowDriver::recalibrate_all(TimePoint t) {
  for (const tr::PairKey& pair : world_.ground_truth().pairs()) {
    refresh_pair(pair, t);
  }
}

void ShadowDriver::run_until(TimePoint t, const eval::World::Hooks& hooks) {
  const std::int64_t w = world_.window_seconds();
  const eval::WorldParams& params = world_.params();
  while (now_ + w <= t) {
    TimePoint window_end = now_ + w;
    std::int64_t window = (now_ - world_.start()) / w;

    int per_window = params.public_traces_per_window;
    std::int64_t slot_spacing =
        per_window > 0 ? std::max<std::int64_t>(w / per_window, 1) : w;
    std::int64_t next_slot_offset = 0;
    int slots_done = 0;
    while (true) {
      TimePoint next_event_time = event_cursor_ < schedule_.size()
                                      ? schedule_[event_cursor_].time
                                      : TimePoint(INT64_MAX);
      TimePoint next_slot_time = slots_done < per_window
                                     ? now_ + next_slot_offset
                                     : TimePoint(INT64_MAX);
      TimePoint next = std::min(next_event_time, next_slot_time);
      if (next >= window_end) break;
      if (next_event_time <= next_slot_time) {
        process_event(schedule_[event_cursor_++]);
      } else {
        issue_public_trace(next_slot_time);
        ++slots_done;
        next_slot_offset += slot_spacing;
      }
    }
    now_ = window_end;

    const Clock::time_point close_begin = Clock::now();
    std::vector<signals::StalenessSignal> sigs = timed(
        Layer::kClose, [&] { return world_.engine().advance_to(window_end); });
    if (current_ == &measured_) {
      close_ms_.push_back(std::chrono::duration<double, std::milli>(
                              Clock::now() - close_begin)
                              .count());
    }
    if (obs::TraceRecorder* tracer = world_.tracer()) {
      timed(Layer::kTraceDrain, [&] { tracer->drain(); });
    }
    if (serve::StalenessService* service = world_.serving()) {
      timed(Layer::kMaterialize, [&] {
        service->on_window(world_.engine(), window, window_end, sigs);
      });
    }
    if (hooks.on_signals) {
      timed(Layer::kHooks, [&] {
        hooks.on_signals(window, window_end, std::move(sigs));
      });
    }
    if (params.recalibration_interval_windows > 0 &&
        (window + 1) % params.recalibration_interval_windows == 0 &&
        window_end > world_.corpus_t0()) {
      recalibrate_all(window_end);
    }
    if (window_end.seconds() % kSecondsPerDay == 0) {
      timed(Layer::kChurn,
            [&] { world_.platform().advance_churn(window_end); });
      if (hooks.on_day) {
        hooks.on_day(
            static_cast<int>(window_end.seconds() / kSecondsPerDay) - 1,
            window_end);
      }
    }
  }
}

}  // namespace rrr::e2e
