// Focused unit tests for the BGP-based monitors (§4.1.2-§4.1.4) against a
// hand-built table view: the signal logic is exercised without the
// simulator, so every suppression rule has a deterministic witness.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include "detect/detector.h"
#include "detect/series.h"
#include "signals/aspath_monitor.h"
#include "signals/burst_monitor.h"
#include "signals/community_monitor.h"

namespace rrr::signals {
namespace {

constexpr std::int64_t kWatchWindow = 100;

class BgpMonitorFixture : public ::testing::Test {
 protected:
  BgpMonitorFixture() {
    // Four VPs, all with routes to the destination 10.1.0.1 through the
    // suffix {20, 30, 40}; VPs 0-2 enter at AS 20 (matching the corpus
    // traceroute), VP 3 first intersects deeper at AS 30.
    for (bgp::VpId vp = 0; vp < 4; ++vp) {
      bgp::VantagePoint vantage;
      vantage.id = vp;
      vantage.asn = Asn(900 + vp);
      vps_.push_back(vantage);
    }
    context_.table = &table_;
    context_.vps = &vps_;

    install(0, {Asn(900), Asn(20), Asn(30), Asn(40)},
            {Community(Asn(20), 51007)});
    install(1, {Asn(901), Asn(20), Asn(30), Asn(40)},
            {Community(Asn(20), 51007)});
    install(2, {Asn(902), Asn(20), Asn(30), Asn(40)},
            {Community(Asn(20), 51007)});
    install(3, {Asn(903), Asn(30), Asn(40)}, {});

    // The corpus traceroute's processed view: AS path {10, 20, 30, 40}.
    view_.key = tr::PairKey{7, *Ipv4::parse("10.1.0.1")};
    view_.window = kWatchWindow;
    view_.processed.as_path = {Asn(10), Asn(20), Asn(30), Asn(40)};
  }

  void install(bgp::VpId vp, AsPath path, CommunitySet communities,
               std::int64_t t = 0) {
    bgp::BgpRecord record;
    record.time = TimePoint(t);
    record.type = bgp::RecordType::kAnnouncement;
    record.vp = vp;
    record.prefix = *Prefix::parse("10.1.0.0/16");
    record.as_path = std::move(path);
    record.communities = std::move(communities);
    table_.apply(record);
  }

  // Builds a dispatched update record (not yet applied to the table).
  bgp::BgpRecord update(bgp::VpId vp, AsPath path, CommunitySet communities = {},
                        std::int64_t t = 0) {
    bgp::BgpRecord record;
    record.time = TimePoint(t);
    record.type = bgp::RecordType::kAnnouncement;
    record.vp = vp;
    record.prefix = *Prefix::parse("10.1.0.0/16");
    record.as_path = std::move(path);
    record.communities = std::move(communities);
    return record;
  }

  DispatchedRecord dispatch(const bgp::BgpRecord& record) {
    DispatchedRecord dispatched;
    dispatched.record = &record;
    dispatched.path = record.as_path;
    const bgp::VpRoute* standing =
        table_.route(record.vp, record.prefix.network());
    dispatched.duplicate = standing != nullptr &&
                           standing->path == record.as_path &&
                           standing->communities == record.communities;
    return dispatched;
  }

  // The monitors read through BgpContext's table.
  bgp::VpTableView table_;
  std::vector<bgp::VantagePoint> vps_;
  BgpContext context_;
  CorpusView view_;
  PotentialIndex index_;
};

TEST_F(BgpMonitorFixture, AsPathMonitorPinsV0AndDetectsSuffixShift) {
  AsPathMonitor monitor(context_);
  monitor.watch(view_, index_);
  ASSERT_GT(index_.relations_of(view_.key).size(), 0u);

  // Keep the ratio steady for enough windows, then shift every VP away
  // from the suffix at AS 20.
  std::int64_t w = kWatchWindow + 1;
  for (; w < kWatchWindow + 10; ++w) {
    auto none = monitor.close_window(w, TimePoint(w * 900));
    EXPECT_TRUE(none.empty());
  }
  bool flagged = false;
  for (int burst = 0; burst < 6 && !flagged; ++burst, ++w) {
    for (bgp::VpId vp : {0u, 1u, 2u}) {
      bgp::BgpRecord changed =
          update(vp, {Asn(900 + vp), Asn(20), Asn(35), Asn(40)});
      DispatchedRecord d = dispatch(changed);
      monitor.on_record(d, w);
      table_.apply(changed);
    }
    for (const auto& signal : monitor.close_window(w, TimePoint(w * 900))) {
      EXPECT_EQ(signal.technique, Technique::kBgpAsPath);
      EXPECT_EQ(signal.pair, view_.key);
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
}

// The AS-path close resolves standing routes once per distinct (vp, dst)
// per close. Its signals must be what per-entry table lookups give. Two
// pairs share the destination, so their AS-20 entries share every
// (vp, dst). Windows with updates from VPs 0-1 make the entries dirty,
// often while they are still hot; other windows evaluate them from the hot
// queue only, sometimes while VP 3's updates dirty the pairs' other
// entries. VP 2 changes only between closes, with no update: a /24 route
// is installed over its /16 and later withdrawn, so the route object a
// lookup returns changes. The next close and reverted() must both see
// each change. The oracle recomputes each entry's P_ratio from the table
// and the window's updates, tracks the entry's hot windows, and feeds its
// own Bitmap series.
TEST_F(BgpMonitorFixture, AsPathCloseMatchesPerEntryLookups) {
  AsPathMonitor monitor(context_);
  monitor.watch(view_, index_);
  CorpusView other = view_;
  other.key = tr::PairKey{8, view_.key.dst};
  // Same entry hop (AS 20) but the suffix {20, 35, 40}: a VP's route
  // matches exactly one of the two pairs.
  other.processed.as_path = {Asn(11), Asn(20), Asn(35), Asn(40)};
  monitor.watch(other, index_);

  auto via = [](bgp::VpId vp, int mid) {
    return AsPath{Asn(900 + vp), Asn(20), Asn(mid), Asn(40)};
  };
  struct Oracle {
    tr::PairKey pair;
    int mid;  // the middle AS of this pair's suffix
    detect::LazySeries series{std::make_unique<detect::BitmapDetector>(),
                              detect::GapPolicy::kCarryLast};
    double baseline;
    PotentialId id = kNoPotential;
    int hot_windows = 0;
  };
  std::vector<Oracle> oracles;
  oracles.push_back({.pair = view_.key, .mid = 30, .baseline = 1.0});
  oracles.push_back({.pair = other.key, .mid = 35, .baseline = 0.0});
  for (Oracle& oracle : oracles) {
    oracle.series.seed(kWatchWindow, oracle.baseline, 24);
    // The AS-20 entry is the pair's first relation (hops in path order).
    oracle.id = index_.relations_of(oracle.pair).front().id;
  }
  std::array<int, 3> standing = {30, 30, 30};
  auto ratio_of = [&](const Oracle& oracle,
                      const std::vector<bgp::BgpRecord>& updates) {
    int num = 0;
    for (int mid : standing) num += mid == oracle.mid ? 1 : 0;
    for (const bgp::BgpRecord& record : updates) {
      num += static_cast<int>(record.as_path[2].number()) == oracle.mid;
    }
    return static_cast<double>(num) /
           static_cast<double>(standing.size() + updates.size());
  };

  std::mt19937 rng(11);
  int signals_seen = 0;
  int hot_only_evaluations = 0;
  for (std::int64_t w = kWatchWindow + 1; w < kWatchWindow + 160; ++w) {
    // Level shifts in which middle AS the updates carry.
    int phase_mid = (w / 17) % 2 == 0 ? 30 : 35;
    std::vector<bgp::BgpRecord> updates;
    if (rng() % 3 != 0) {
      for (bgp::VpId vp : {0u, 1u}) {
        if (rng() % 2 == 0) continue;
        int mid = rng() % 5 == 0 ? 65 - phase_mid : phase_mid;
        updates.push_back(update(vp, via(vp, mid)));
      }
    }
    for (const bgp::BgpRecord& record : updates) {
      monitor.on_record(dispatch(record), w);
      table_.apply(record);
      standing[record.vp] = static_cast<int>(record.as_path[2].number());
    }
    if (rng() % 2 == 0) {  // VP 3 re-announces: only the v0 = {3} entries
      bgp::BgpRecord record = update(3, {Asn(903), Asn(30), Asn(40)});
      monitor.on_record(dispatch(record), w);
      table_.apply(record);
    }
    std::vector<StalenessSignal> signals =
        monitor.close_window(w, TimePoint(w * 900));
    for (std::size_t o = 0; o < oracles.size(); ++o) {
      Oracle& oracle = oracles[o];
      // The close's two phases: dirty entries first (with the window's
      // updates), then the hot queue as it stood before this close (from
      // standing routes alone).
      const bool hot = oracle.hot_windows > 0;
      detect::Judgement want;
      if (!updates.empty()) {
        want = oracle.series.feed(w, ratio_of(oracle, updates));
        oracle.hot_windows = 8;
      }
      if (hot) {
        --oracle.hot_windows;
        double ratio = ratio_of(oracle, {});
        bool moved = ratio != oracle.series.last_value();
        if (updates.empty()) {
          want = oracle.series.feed(w, ratio);
          ++hot_only_evaluations;
        }
        if (moved) oracle.hot_windows = 8;
      }
      std::vector<const StalenessSignal*> got;
      for (const StalenessSignal& signal : signals) {
        if (signal.pair == oracle.pair) got.push_back(&signal);
      }
      ASSERT_EQ(got.size(), want.outlier ? 1u : 0u)
          << "window " << w << " oracle " << o;
      if (want.outlier) {
        ++signals_seen;
        EXPECT_EQ(got[0]->potential, oracle.id);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[0]->meta.deviation),
                  std::bit_cast<std::uint64_t>(std::abs(want.score)));
      }
    }
    // Absorb a change with no dispatched update: the next close must read
    // it as VP 2's standing route, and reverted() must see it now.
    if (w % 5 == 0) {
      bgp::BgpRecord record = update(2, via(2, 35));
      record.prefix = *Prefix::parse("10.1.0.0/24");
      if (standing[2] == 35) record.type = bgp::RecordType::kWithdrawal;
      table_.apply(record);
      standing[2] = standing[2] == 35 ? 30 : 35;
    }
    for (const Oracle& oracle : oracles) {
      EXPECT_EQ(monitor.reverted(oracle.id),
                std::abs(ratio_of(oracle, {}) - oracle.baseline) < 1e-9)
          << "window " << w;
    }
  }
  EXPECT_GT(signals_seen, 0);
  EXPECT_GT(hot_only_evaluations, 0);
}

// The rebuilt hot queue holds each hot entry once, newly hot entries of
// the close first, then dirty entries, then the previous hot queue.
TEST_F(BgpMonitorFixture, AsPathHotQueueIsDedupedInWorkListOrder) {
  AsPathMonitor monitor(context_);
  monitor.watch(view_, index_);
  const auto& relations = index_.relations_of(view_.key);
  ASSERT_EQ(relations.size(), 2u);
  PotentialId at20 = relations[0].id;  // v0 = {0, 1, 2}
  PotentialId at30 = relations[1].id;  // v0 = {3}
  auto touch = [&](bgp::VpId vp, AsPath path, std::int64_t w) {
    bgp::BgpRecord record = update(vp, std::move(path));
    monitor.on_record(dispatch(record), w);
    table_.apply(record);
    monitor.close_window(w, TimePoint(w * 900));
  };
  std::int64_t w = kWatchWindow + 1;
  touch(3, {Asn(903), Asn(30), Asn(40)}, w++);
  EXPECT_EQ(monitor.hot_queue(), (std::vector<PotentialId>{at30}));
  // AS 20's entry turns hot; AS 30's stays hot from the previous queue.
  touch(0, {Asn(900), Asn(20), Asn(30), Asn(40)}, w++);
  EXPECT_EQ(monitor.hot_queue(), (std::vector<PotentialId>{at20, at30}));
  // AS 30's entry is dirty and hot in one close: queued once, dirty first.
  touch(3, {Asn(903), Asn(30), Asn(40)}, w++);
  EXPECT_EQ(monitor.hot_queue(), (std::vector<PotentialId>{at30, at20}));
  // Quiet closes keep the order until both entries' 8 hot windows run out.
  for (int i = 0; i < 6; ++i, ++w) monitor.close_window(w, TimePoint(w * 900));
  EXPECT_EQ(monitor.hot_queue(), (std::vector<PotentialId>{at30, at20}));
  monitor.close_window(w, TimePoint(w * 900));
  EXPECT_TRUE(monitor.hot_queue().empty());
}

TEST_F(BgpMonitorFixture, CommunityChangeSamePathSignals) {
  CommunityReputation reputation;
  CommunityMonitor monitor(context_, reputation);
  monitor.watch(view_, index_);

  std::int64_t w = kWatchWindow + 1;
  bgp::BgpRecord changed = update(0, {Asn(900), Asn(20), Asn(30), Asn(40)},
                                  {Community(Asn(20), 51013)});
  DispatchedRecord d = dispatch(changed);
  EXPECT_FALSE(d.duplicate);
  monitor.on_record(d, w);
  auto signals = monitor.close_window(w, TimePoint(w * 900));
  ASSERT_EQ(signals.size(), 1u);
  EXPECT_EQ(signals[0].technique, Technique::kBgpCommunity);
  EXPECT_EQ(signals[0].community.definer(), Asn(20));
}

TEST_F(BgpMonitorFixture, CommunityVanishingWithPathChangeIsSuppressed) {
  CommunityReputation reputation;
  CommunityMonitor monitor(context_, reputation);
  monitor.watch(view_, index_);

  // VP 0 reroutes upstream: AS 20's community disappears because the new
  // chain strips it — not evidence of a border change at AS 20. The new
  // path still overlaps the suffix at 20.
  std::int64_t w = kWatchWindow + 1;
  bgp::BgpRecord rerouted =
      update(0, {Asn(900), Asn(55), Asn(20), Asn(30), Asn(40)}, {});
  DispatchedRecord d = dispatch(rerouted);
  monitor.on_record(d, w);
  EXPECT_TRUE(monitor.close_window(w, TimePoint(w * 900)).empty());
}

TEST_F(BgpMonitorFixture, CommunityKnownElsewhereIsNotNews) {
  CommunityReputation reputation;
  CommunityMonitor monitor(context_, reputation);
  // VP 1 already carries the "new" community before the watch.
  install(1, {Asn(901), Asn(20), Asn(30), Asn(40)},
          {Community(Asn(20), 51013)});
  monitor.watch(view_, index_);

  std::int64_t w = kWatchWindow + 1;
  bgp::BgpRecord changed =
      update(0, {Asn(900), Asn(20), Asn(30), Asn(40)},
             {Community(Asn(20), 51007), Community(Asn(20), 51013)});
  DispatchedRecord d = dispatch(changed);
  monitor.on_record(d, w);
  // The addition of 20:51013 is suppressed (another VP already shows it)
  // and nothing was removed, so no signal fires.
  EXPECT_TRUE(monitor.close_window(w, TimePoint(w * 900)).empty());
}

TEST_F(BgpMonitorFixture, BurstQuorumGatesSignals) {
  BurstMonitor monitor(context_);
  monitor.watch(view_, index_);
  ASSERT_GT(monitor.entry_count(), 0u);

  // One duplicate from a single VP: never a burst.
  std::int64_t w = kWatchWindow + 30;
  bgp::BgpRecord dup0 = update(0, {Asn(900), Asn(20), Asn(30), Asn(40)},
                               {Community(Asn(20), 51007)});
  DispatchedRecord d0 = dispatch(dup0);
  ASSERT_TRUE(d0.duplicate);
  monitor.on_record(d0, w);
  EXPECT_TRUE(monitor.close_window(w, TimePoint(w * 900)).empty());

  // Contemporaneous duplicates from the whole pinned set: a burst.
  ++w;
  std::vector<bgp::BgpRecord> dups;
  for (bgp::VpId vp : {0u, 1u, 2u}) {
    dups.push_back(update(vp, {Asn(900 + vp), Asn(20), Asn(30), Asn(40)},
                          {Community(Asn(20), 51007)}));
  }
  for (const auto& record : dups) {
    DispatchedRecord d = dispatch(record);
    ASSERT_TRUE(d.duplicate);
    monitor.on_record(d, w);
  }
  auto signals = monitor.close_window(w, TimePoint(w * 900));
  ASSERT_FALSE(signals.empty());
  for (const auto& signal : signals) {
    EXPECT_EQ(signal.technique, Technique::kBgpBurst);
    EXPECT_EQ(signal.pair, view_.key);
  }
}

TEST_F(BgpMonitorFixture, UnwatchStopsSignals) {
  CommunityReputation reputation;
  CommunityMonitor monitor(context_, reputation);
  monitor.watch(view_, index_);
  monitor.unwatch(view_.key);
  index_.unrelate_pair(view_.key);

  std::int64_t w = kWatchWindow + 1;
  bgp::BgpRecord changed = update(0, {Asn(900), Asn(20), Asn(30), Asn(40)},
                                  {Community(Asn(20), 51013)});
  DispatchedRecord d = dispatch(changed);
  monitor.on_record(d, w);
  EXPECT_TRUE(monitor.close_window(w, TimePoint(w * 900)).empty());
  EXPECT_TRUE(index_.relations_of(view_.key).empty());
}

}  // namespace
}  // namespace rrr::signals
