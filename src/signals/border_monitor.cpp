#include "signals/border_monitor.h"

#include <cmath>

#include "runtime/parallel.h"
#include "signals/feed_health.h"

namespace rrr::signals {

std::optional<BorderMonitor::CityPairKey> BorderMonitor::key_of(
    const tracemap::BorderView& b) {
  if (!b.near_city || !b.far_city || *b.near_city == *b.far_city) {
    return std::nullopt;  // §4.2.2 requires c_m != c_n (and both located)
  }
  return CityPairKey{b.near_as, *b.near_city, b.far_as, *b.far_city};
}

void BorderMonitor::watch(const CorpusView& view, PotentialIndex& index) {
  const tracemap::ProcessedTrace& pt = view.processed;
  for (std::size_t b = 0; b < pt.borders.size(); ++b) {
    auto key = key_of(pt.borders[b]);
    if (!key) continue;
    auto& entry = entries_[*key];
    if (!entry) {
      entry = std::make_unique<Entry>();
      entry->key = *key;
    }
    RouterSeries* rs = nullptr;
    for (auto& candidate : entry->routers) {
      if (candidate->router == pt.borders[b].border_router) {
        rs = candidate.get();
        break;
      }
    }
    if (rs == nullptr) {
      auto created = std::make_unique<RouterSeries>(RouterSeries{
          .id = index.create(Technique::kTraceBorder),
          .router = pt.borders[b].border_router,
          .series = detect::AdaptiveRatioSeries(
              prototype_, params_.max_window_multiplier),
          .subscribers = {},
          .baseline_ratio = -1.0,
          .touched = false,
      });
      rs = created.get();
      by_potential_[rs->id] = rs;
      entry->routers.push_back(std::move(created));
    }
    bool found = false;
    for (Subscriber& sub : rs->subscribers) {
      if (sub.pair == view.key && sub.border == b) {
        sub.zombie = false;
        found = true;
        break;
      }
    }
    if (!found) rs->subscribers.push_back(Subscriber{view.key, b, false});
    index.relate(rs->id, view.key, b);
    by_pair_[view.key].push_back(rs);
  }
}

void BorderMonitor::unwatch(const tr::PairKey& pair) {
  auto it = by_pair_.find(pair);
  if (it == by_pair_.end()) return;
  for (RouterSeries* rs : it->second) {
    for (Subscriber& sub : rs->subscribers) {
      if (sub.pair == pair) sub.zombie = true;
    }
  }
  by_pair_.erase(it);
}

void BorderMonitor::on_public_trace(const tracemap::ProcessedTrace& trace,
                                    std::int64_t window) {
  for (const tracemap::BorderView& border : trace.borders) {
    auto key = key_of(border);
    if (!key) continue;
    auto eit = entries_.find(*key);
    if (eit == entries_.end()) continue;
    for (auto& rs : eit->second->routers) {
      bool match = rs->router == border.border_router;
      rs->series.add(window, match ? 1 : 0, 1);
      if (!rs->touched) {
        rs->touched = true;
        touched_.push_back(rs.get());
      }
    }
  }
}

std::vector<StalenessSignal> BorderMonitor::close_series(
    RouterSeries* rs, std::int64_t window, TimePoint window_end) {
  std::vector<StalenessSignal> signals;
  for (const detect::ClosedRatioWindow& closed :
       rs->series.close_through(window + 1)) {
    if (rs->baseline_ratio < 0.0 && rs->series.armed()) {
      rs->baseline_ratio = closed.ratio;
    }
    bool drop = closed.judgement.outlier && closed.judgement.score < 0 &&
                closed.intersect >= params_.min_intersect;
    // The monitored router can only *lose* share when the border moves;
    // thin windows need two consecutive drops.
    bool confirmed =
        drop && (closed.intersect >= params_.single_shot_intersect ||
                 rs->pending_drop);
    rs->pending_drop = drop;
    if (!confirmed) continue;
    // §4.2.2 gating: a border router "losing share" during a degraded
    // trace feed usually means its observers went quiet, not that the
    // border moved.
    if (health_ != nullptr && health_->trace_degraded()) {
      obs::inc(dropped_unhealthy_,
               static_cast<std::int64_t>(rs->subscribers.size()));
      continue;
    }
    std::int64_t agg_end =
        closed.aggregate_window * closed.multiplier + closed.multiplier - 1;
    TimePoint at = window_end -
                   (window - agg_end) * params_.base_window_seconds;
    for (const Subscriber& sub : rs->subscribers) {
      StalenessSignal signal;
      signal.technique = Technique::kTraceBorder;
      signal.potential = rs->id;
      signal.time = at;
      signal.window = agg_end;
      signal.span_seconds =
          closed.multiplier * params_.base_window_seconds;
      signal.pair = sub.pair;
      signal.border_index = sub.border;
      signal.meta.deviation = std::abs(closed.judgement.score);
      signals.push_back(std::move(signal));
    }
  }
  return signals;
}

std::vector<StalenessSignal> BorderMonitor::close_window(
    std::int64_t window, TimePoint window_end) {
  std::vector<StalenessSignal> signals;
  // Router series are disjoint state; shards close them concurrently and
  // the per-series buffers are concatenated in work-list order, so the
  // output is independent of the thread count.
  obs::ScopedSpan span(mobs_.close_us);
  std::vector<RouterSeries*> work;
  work.swap(touched_);
  obs::observe(mobs_.close_items, static_cast<double>(work.size()));
  std::vector<std::vector<StalenessSignal>> shards =
      runtime::parallel_map(pool_, work, [&](RouterSeries* rs) {
        rs->touched = false;
        return close_series(rs, window, window_end);
      });
  for (std::vector<StalenessSignal>& shard : shards) {
    for (StalenessSignal& signal : shard) {
      signals.push_back(std::move(signal));
    }
  }
  if (window % 96 == 95) {
    std::vector<RouterSeries*> all;
    for (auto& [key, entry] : entries_) {
      for (auto& rs : entry->routers) all.push_back(rs.get());
    }
    std::vector<std::vector<StalenessSignal>> swept =
        runtime::parallel_map(pool_, all, [&](RouterSeries* rs) {
          return close_series(rs, window, window_end);
        });
    for (std::vector<StalenessSignal>& shard : swept) {
      for (StalenessSignal& signal : shard) {
        signals.push_back(std::move(signal));
      }
    }
    for (RouterSeries* rs : all) {
      std::erase_if(rs->subscribers,
                    [](const Subscriber& sub) { return sub.zombie; });
    }
  }
  return signals;
}

void BorderMonitor::save_state(store::Encoder& enc) const {
  enc.u64(entries_.size());
  for (const auto& [key, entry] : entries_) {
    store::put(enc, key.as_m);
    enc.u16(key.c_m);
    store::put(enc, key.as_n);
    enc.u16(key.c_n);
    enc.u64(entry->routers.size());
    for (const auto& rs : entry->routers) {
      enc.u64(rs->id);
      enc.u64(rs->router.value);
      rs->series.save_state(enc);
      enc.u64(rs->subscribers.size());
      for (const Subscriber& sub : rs->subscribers) {
        put_pair(enc, sub.pair);
        enc.u64(sub.border);
        enc.boolean(sub.zombie);
      }
      enc.f64(rs->baseline_ratio);
      enc.boolean(rs->touched);
      enc.boolean(rs->pending_drop);
    }
  }
  auto put_ids = [&enc](const std::vector<RouterSeries*>& list) {
    enc.u64(list.size());
    for (const RouterSeries* rs : list) enc.u64(rs->id);
  };
  enc.u64(by_pair_.size());
  for (const auto& [pair, list] : by_pair_) {
    put_pair(enc, pair);
    put_ids(list);
  }
  put_ids(touched_);
}

void BorderMonitor::load_state(store::Decoder& dec) {
  entries_.clear();
  by_pair_.clear();
  by_potential_.clear();
  touched_.clear();
  std::uint64_t entry_count = dec.u64();
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    CityPairKey key;
    key.as_m = store::get_asn(dec);
    key.c_m = dec.u16();
    key.as_n = store::get_asn(dec);
    key.c_n = dec.u16();
    auto entry = std::make_unique<Entry>();
    entry->key = key;
    // Smallest router series: ids, counts and flags around its detector.
    std::uint64_t router_count = dec.count(34);
    entry->routers.reserve(router_count);
    for (std::uint64_t j = 0; j < router_count; ++j) {
      auto rs = std::make_unique<RouterSeries>(RouterSeries{
          .id = dec.u64(),
          .router = tracemap::RouterKey{dec.u64()},
          .series = detect::AdaptiveRatioSeries(
              prototype_, params_.max_window_multiplier),
          .subscribers = {},
          .baseline_ratio = -1.0,
          .touched = false,
          .pending_drop = false,
      });
      rs->series.load_state(dec);
      std::uint64_t sub_count = dec.count(17);
      rs->subscribers.reserve(sub_count);
      for (std::uint64_t k = 0; k < sub_count; ++k) {
        Subscriber sub;
        sub.pair = get_pair(dec);
        sub.border = dec.u64();
        sub.zombie = dec.boolean();
        rs->subscribers.push_back(sub);
      }
      rs->baseline_ratio = dec.f64();
      rs->touched = dec.boolean();
      rs->pending_drop = dec.boolean();
      by_potential_[rs->id] = rs.get();
      entry->routers.push_back(std::move(rs));
    }
    entries_.emplace(key, std::move(entry));
  }
  auto get_ids = [this, &dec]() {
    std::vector<RouterSeries*> list;
    std::uint64_t n = dec.count(8);
    list.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      list.push_back(store::get_defined_id(dec, by_potential_));
    }
    return list;
  };
  std::uint64_t pair_count = dec.u64();
  for (std::uint64_t i = 0; i < pair_count; ++i) {
    tr::PairKey pair = get_pair(dec);
    by_pair_[pair] = get_ids();
  }
  touched_ = get_ids();
}

bool BorderMonitor::reverted(PotentialId id) const {
  auto it = by_potential_.find(id);
  if (it == by_potential_.end()) return false;
  const RouterSeries& rs = *it->second;
  if (rs.baseline_ratio < 0.0 || !rs.series.has_ratio()) return false;
  return std::abs(rs.series.last_ratio() - rs.baseline_ratio) < 0.1;
}

}  // namespace rrr::signals
