#include "signals/subpath_monitor.h"

#include <algorithm>
#include <cmath>

#include "netbase/rng.h"
#include "runtime/parallel.h"
#include "signals/feed_health.h"

namespace rrr::signals {

std::uint64_t SubpathMonitor::key_of(const std::vector<Ipv4>& ips) {
  std::uint64_t h = 0x5E69E7;
  for (Ipv4 ip : ips) h = hash_combine(h, ip.value());
  return h;
}

SubpathMonitor::Segment* SubpathMonitor::ensure_segment(
    const std::vector<Ipv4>& ips, PotentialIndex& index) {
  std::uint64_t key = key_of(ips);
  auto it = segments_.find(key);
  if (it != segments_.end()) return it->second.get();
  auto segment = std::make_unique<Segment>(Segment{
      .id = index.create(Technique::kTraceSubpath),
      .ips = ips,
      .series = detect::AdaptiveRatioSeries(prototype_,
                                            params_.max_window_multiplier),
      .subscribers = {},
      .baseline_ratio = -1.0,
      .touched = false,
  });
  Segment* raw = segment.get();
  by_first_ip_[ips.front()].push_back(raw);
  by_potential_[raw->id] = raw;
  segments_.emplace(key, std::move(segment));
  return raw;
}

void SubpathMonitor::watch(const CorpusView& view, PotentialIndex& index) {
  const tracemap::ProcessedTrace& pt = view.processed;
  for (std::size_t b = 0; b < pt.borders.size(); ++b) {
    // The monitored segment must *span* the border it watches with
    // endpoints that survive a change of that border: when the crossing
    // moves, traceroutes still flow between the endpoints (T_intersect
    // holds) but no longer follow the exact hops (T_match drops), which is
    // what the ratio detector needs. A segment whose endpoints die with
    // the crossing only ever produces missing windows.
    std::size_t begin =
        b > 0 ? pt.borders[b - 1].far_index
              : (pt.borders[b].near_index > 0 ? pt.borders[b].near_index - 1
                                              : pt.borders[b].near_index);
    std::size_t end = b + 1 < pt.borders.size()
                          ? pt.borders[b + 1].near_index
                          : std::min(pt.borders[b].far_index +
                                         static_cast<std::size_t>(
                                             params_.flank_hops),
                                     pt.hops.size() - 1);
    if (end <= begin) continue;
    std::vector<Ipv4> ips;
    bool usable = true;
    for (std::size_t i = begin; i <= end; ++i) {
      if (!pt.hops[i].responded()) {
        usable = false;
        break;
      }
      ips.push_back(*pt.hops[i].ip);
    }
    if (!usable || ips.size() < 2) continue;
    Segment* segment = ensure_segment(ips, index);
    bool found = false;
    for (Subscriber& sub : segment->subscribers) {
      if (sub.pair == view.key && sub.border == b) {
        sub.zombie = false;
        found = true;
        break;
      }
    }
    if (!found) {
      segment->subscribers.push_back(Subscriber{view.key, b, false});
    }
    index.relate(segment->id, view.key, b);
    by_pair_[view.key].push_back(segment);
  }
}

void SubpathMonitor::unwatch(const tr::PairKey& pair) {
  auto it = by_pair_.find(pair);
  if (it == by_pair_.end()) return;
  for (Segment* segment : it->second) {
    for (Subscriber& sub : segment->subscribers) {
      if (sub.pair == pair) sub.zombie = true;
    }
  }
  by_pair_.erase(it);
}

void SubpathMonitor::on_public_trace(const tracemap::ProcessedTrace& trace,
                                     std::int64_t window) {
  // Position of each responding IP (first occurrence).
  std::unordered_map<Ipv4, std::size_t> position;
  position.reserve(trace.hops.size() * 2);
  for (std::size_t i = 0; i < trace.hops.size(); ++i) {
    if (trace.hops[i].responded()) {
      position.try_emplace(*trace.hops[i].ip, i);
    }
  }
  for (std::size_t i = 0; i < trace.hops.size(); ++i) {
    if (!trace.hops[i].responded()) continue;
    auto sit = by_first_ip_.find(*trace.hops[i].ip);
    if (sit == by_first_ip_.end()) continue;
    for (Segment* segment : sit->second) {
      // Intersect: the public trace goes from ι_m to ι_n.
      auto pit = position.find(segment->ips.back());
      if (pit == position.end() || pit->second <= i) continue;
      // Match: the exact hop sequence is followed.
      bool match = true;
      if (i + segment->ips.size() <= trace.hops.size()) {
        for (std::size_t k = 0; k < segment->ips.size(); ++k) {
          const auto& hop = trace.hops[i + k];
          if (!hop.responded() || *hop.ip != segment->ips[k]) {
            match = false;
            break;
          }
        }
      } else {
        match = false;
      }
      segment->series.add(window, match ? 1 : 0, 1);
      ++observations_;
      if (!segment->touched) {
        segment->touched = true;
        touched_.push_back(segment);
      }
    }
  }
}

std::vector<StalenessSignal> SubpathMonitor::close_segment(
    Segment* segment, std::int64_t window, TimePoint window_end) {
  std::vector<StalenessSignal> signals;
  for (const detect::ClosedRatioWindow& closed :
       segment->series.close_through(window + 1)) {
    if (segment->baseline_ratio < 0.0 && segment->series.armed()) {
      segment->baseline_ratio = closed.ratio;
    }
    bool drop = closed.judgement.outlier && closed.judgement.score < 0 &&
                closed.intersect >= params_.min_intersect;
    // A path change can only *reduce* how often the exact subpath is
    // followed (upward outliers are sampling-mix noise), and a thin
    // window needs corroboration from the next one.
    bool confirmed =
        drop && (closed.intersect >= params_.single_shot_intersect ||
                 segment->pending_drop);
    segment->pending_drop = drop;
    if (!confirmed) continue;
    // §4.2.1 gating: with a degraded public-trace feed, T_ratio drops
    // measure which probes went dark, not where packets flow.
    if (health_ != nullptr && health_->trace_degraded()) {
      obs::inc(dropped_unhealthy_,
               static_cast<std::int64_t>(segment->subscribers.size()));
      continue;
    }
    // The outlier belongs to its aggregate window, which may end before
    // the base window being closed (sparse segments aggregate slowly).
    std::int64_t agg_end =
        closed.aggregate_window * closed.multiplier + closed.multiplier - 1;
    TimePoint at = window_end -
                   (window - agg_end) * params_.base_window_seconds;
    for (const Subscriber& sub : segment->subscribers) {
      StalenessSignal signal;
      signal.technique = Technique::kTraceSubpath;
      signal.potential = segment->id;
      signal.time = at;
      signal.window = agg_end;
      signal.span_seconds =
          closed.multiplier * params_.base_window_seconds;
      signal.pair = sub.pair;
      signal.border_index = sub.border;
      signal.meta.ip_overlap = static_cast<int>(segment->ips.size());
      signal.meta.deviation = std::abs(closed.judgement.score);
      signals.push_back(std::move(signal));
    }
  }
  return signals;
}

std::vector<StalenessSignal> SubpathMonitor::close_window(
    std::int64_t window, TimePoint window_end) {
  std::vector<StalenessSignal> signals;
  // Segments are disjoint state, so shards close them concurrently into
  // per-segment buffers; concatenating the buffers in work-list order makes
  // the output independent of the thread count.
  obs::ScopedSpan span(mobs_.close_us);
  std::vector<Segment*> work;
  work.swap(touched_);
  obs::observe(mobs_.close_items, static_cast<double>(work.size()));
  std::vector<std::vector<StalenessSignal>> shards =
      runtime::parallel_map(pool_, work, [&](Segment* segment) {
        segment->touched = false;
        return close_segment(segment, window, window_end);
      });
  for (std::vector<StalenessSignal>& shard : shards) {
    for (StalenessSignal& signal : shard) {
      signals.push_back(std::move(signal));
    }
  }
  // Periodic sweep so idle segments still close their pending windows;
  // zombie subscriptions have flushed whatever was pending by now.
  if (window % 96 == 95) {
    std::vector<Segment*> all;
    all.reserve(segments_.size());
    for (auto& [key, segment] : segments_) all.push_back(segment.get());
    std::vector<std::vector<StalenessSignal>> swept =
        runtime::parallel_map(pool_, all, [&](Segment* segment) {
          return close_segment(segment, window, window_end);
        });
    for (std::vector<StalenessSignal>& shard : swept) {
      for (StalenessSignal& signal : shard) {
        signals.push_back(std::move(signal));
      }
    }
    for (Segment* segment : all) {
      std::erase_if(segment->subscribers,
                    [](const Subscriber& sub) { return sub.zombie; });
    }
  }
  return signals;
}

SubpathMonitor::Stats SubpathMonitor::stats() const {
  Stats stats;
  stats.segments = segments_.size();
  double mult_sum = 0.0;
  for (const auto& [key, segment] : segments_) {
    if (segment->series.armed()) ++stats.armed;
    if (segment->series.dormant()) ++stats.dormant;
    if (!segment->subscribers.empty()) ++stats.subscribed;
    mult_sum += static_cast<double>(segment->series.multiplier());
  }
  if (!segments_.empty()) {
    stats.mean_multiplier = mult_sum / static_cast<double>(segments_.size());
  }
  stats.observations = observations_;
  return stats;
}

std::vector<SubpathMonitor::SegmentInfo> SubpathMonitor::segments_for(
    const tr::PairKey& pair) const {
  std::vector<SegmentInfo> out;
  auto it = by_pair_.find(pair);
  if (it == by_pair_.end()) return out;
  for (const Segment* segment : it->second) {
    SegmentInfo info;
    for (const Subscriber& sub : segment->subscribers) {
      if (sub.pair == pair) {
        info.border_index = sub.border;
        break;
      }
    }
    info.length = segment->ips.size();
    info.armed = segment->series.armed();
    info.dormant = segment->series.dormant();
    info.multiplier = segment->series.multiplier();
    info.has_ratio = segment->series.has_ratio();
    info.last_ratio = segment->series.last_ratio();
    out.push_back(info);
  }
  return out;
}

void SubpathMonitor::save_state(store::Encoder& enc) const {
  std::vector<const Segment*> ordered;
  ordered.reserve(segments_.size());
  for (const auto& [key, segment] : segments_) {
    ordered.push_back(segment.get());
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const Segment* a, const Segment* b) { return a->id < b->id; });
  enc.u64(ordered.size());
  for (const Segment* segment : ordered) {
    enc.u64(segment->id);
    enc.u64(segment->ips.size());
    for (Ipv4 ip : segment->ips) store::put(enc, ip);
    segment->series.save_state(enc);
    enc.u64(segment->subscribers.size());
    for (const Subscriber& sub : segment->subscribers) {
      put_pair(enc, sub.pair);
      enc.u64(sub.border);
      enc.boolean(sub.zombie);
    }
    enc.f64(segment->baseline_ratio);
    enc.boolean(segment->touched);
    enc.boolean(segment->pending_drop);
  }
  auto put_ids = [&enc](const std::vector<Segment*>& list) {
    enc.u64(list.size());
    for (const Segment* segment : list) enc.u64(segment->id);
  };
  enc.u64(by_pair_.size());
  for (const auto& [pair, list] : by_pair_) {
    put_pair(enc, pair);
    put_ids(list);
  }
  put_ids(touched_);
  enc.u64(observations_);
}

void SubpathMonitor::load_state(store::Decoder& dec) {
  segments_.clear();
  by_first_ip_.clear();
  by_pair_.clear();
  by_potential_.clear();
  touched_.clear();
  std::vector<Segment*> in_id_order;
  // Smallest segment: id, counts and flags around its detector.
  std::uint64_t count = dec.count(34);
  in_id_order.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    PotentialId id = dec.u64();
    std::vector<Ipv4> ips;
    std::uint64_t ip_count = dec.count(4);
    ips.reserve(ip_count);
    for (std::uint64_t j = 0; j < ip_count; ++j) {
      ips.push_back(store::get_ipv4(dec));
    }
    auto segment = std::make_unique<Segment>(Segment{
        .id = id,
        .ips = std::move(ips),
        .series = detect::AdaptiveRatioSeries(prototype_,
                                              params_.max_window_multiplier),
        .subscribers = {},
        .baseline_ratio = -1.0,
        .touched = false,
        .pending_drop = false,
    });
    segment->series.load_state(dec);
    std::uint64_t sub_count = dec.count(17);
    segment->subscribers.reserve(sub_count);
    for (std::uint64_t j = 0; j < sub_count; ++j) {
      Subscriber sub;
      sub.pair = get_pair(dec);
      sub.border = dec.u64();
      sub.zombie = dec.boolean();
      segment->subscribers.push_back(sub);
    }
    segment->baseline_ratio = dec.f64();
    segment->touched = dec.boolean();
    segment->pending_drop = dec.boolean();
    Segment* raw = segment.get();
    in_id_order.push_back(raw);
    by_potential_[raw->id] = raw;
    segments_.emplace(key_of(raw->ips), std::move(segment));
  }
  // Id order == original registration order (see header comment).
  for (Segment* segment : in_id_order) {
    by_first_ip_[segment->ips.front()].push_back(segment);
  }
  auto get_ids = [this, &dec]() {
    std::vector<Segment*> list;
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
  observations_ = dec.u64();
}

bool SubpathMonitor::reverted(PotentialId id) const {
  auto it = by_potential_.find(id);
  if (it == by_potential_.end()) return false;
  const Segment& segment = *it->second;
  if (segment.baseline_ratio < 0.0 || !segment.series.has_ratio()) {
    return false;
  }
  return std::abs(segment.series.last_ratio() - segment.baseline_ratio) <
         0.1;
}

}  // namespace rrr::signals
