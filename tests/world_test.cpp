// End-to-end properties of the experiment World: determinism, ground-truth
// consistency, and the staleness oracle.
#include <gtest/gtest.h>

#include <limits>

#include "eval/metrics.h"
#include "eval/world.h"

namespace rrr::eval {
namespace {

WorldParams fast_params(std::uint64_t seed) {
  WorldParams params;
  params.days = 4;
  params.warmup_days = 1;
  params.corpus_pair_target = 200;
  params.corpus_dest_count = 12;
  params.public_dest_count = 50;
  params.public_traces_per_window = 150;
  params.platform.num_probes = 200;
  params.topology.num_transit = 24;
  params.topology.num_stub = 80;
  params.seed = seed;
  return params;
}

struct RunResult {
  std::size_t pairs = 0;
  std::size_t changes = 0;
  std::size_t signals = 0;
  std::vector<std::uint64_t> change_fingerprint;
};

RunResult run_world(std::uint64_t seed) {
  World world(fast_params(seed));
  RunResult result;
  World::Hooks hooks;
  hooks.on_signals = [&](std::int64_t, TimePoint,
                         std::vector<signals::StalenessSignal>&& sigs) {
    result.signals += sigs.size();
  };
  world.run_until(world.corpus_t0(), hooks);
  result.pairs = world.initialize_corpus();
  world.run_until(world.end(), hooks);
  result.changes = world.ground_truth().changes().size();
  for (const ChangeEvent& change : world.ground_truth().changes()) {
    result.change_fingerprint.push_back(
        hash_combine(static_cast<std::uint64_t>(change.time.seconds()),
                     change.pair.dst.value()));
  }
  return result;
}

bool same_annotation(const tracemap::HopAnnotation& a,
                     const tracemap::HopAnnotation& b) {
  return a.router == b.router && a.asn == b.asn && a.ixp == b.ixp &&
         a.is_ixp == b.is_ixp && a.city == b.city;
}

// The processing context's per-interface table answers exactly what the
// IP-to-AS mapper, alias resolver and geolocator answer, for every router
// interface — including the ones IXP joins added after the table was built
// — and for destination hosts and arbitrary addresses.
TEST(World, HopAnnotationTableMatchesTheThreeLookups) {
  WorldParams params = fast_params(17);
  params.dynamics.ixp_join_per_day = 6.0;
  World world(params);
  const tracemap::HopAnnotator& annotator = world.processing().annotator();
  const std::size_t table_size = annotator.table_size();
  world.run_until(world.corpus_t0());
  world.initialize_corpus();
  world.run_until(world.start() + 8 * world.window_seconds());

  const tracemap::ProcessingContext& processing = world.processing();
  auto check = [&](Ipv4 ip) {
    tracemap::MapResult mapped = processing.ip2as().map(ip);
    tracemap::HopAnnotation direct{.router = processing.aliases().resolve(ip),
                                   .asn = mapped.asn,
                                   .ixp = mapped.ixp,
                                   .is_ixp = mapped.is_ixp,
                                   .city = processing.geo().locate(ip)};
    EXPECT_TRUE(same_annotation(annotator.annotate(ip), direct))
        << ip.to_string();
    EXPECT_TRUE(same_annotation(annotator.lookup(ip), direct))
        << ip.to_string();
  };
  std::size_t interfaces = 0;
  for (const topo::Router& router : world.topology().routers()) {
    for (Ipv4 ip : router.interfaces) {
      check(ip);
      ++interfaces;
    }
  }
  // IXP joins ran and added interfaces the table does not hold.
  EXPECT_GT(interfaces, table_size);
  for (Ipv4 dst : world.corpus_dests()) check(dst);
  for (Ipv4 dst : world.public_dests()) check(dst);
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    check(Ipv4(static_cast<std::uint32_t>(
        rng.uniform_int(0, std::numeric_limits<std::uint32_t>::max()))));
  }
}

TEST(World, FullyDeterministicPerSeed) {
  RunResult a = run_world(5);
  RunResult b = run_world(5);
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.changes, b.changes);
  EXPECT_EQ(a.signals, b.signals);
  EXPECT_EQ(a.change_fingerprint, b.change_fingerprint);
}

TEST(World, DifferentSeedsProduceDifferentRuns) {
  RunResult a = run_world(5);
  RunResult b = run_world(6);
  EXPECT_NE(a.change_fingerprint, b.change_fingerprint);
}

class WorldGroundTruth : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorldGroundTruth, IncrementalTrackingMatchesResolver) {
  // The ground truth maintained incrementally through event impacts must
  // equal a from-scratch resolution at the end of the run.
  World world(fast_params(GetParam()));
  world.run_until(world.corpus_t0());
  world.initialize_corpus();
  world.run_until(world.end());
  for (const tr::PairKey& pair : world.ground_truth().pairs()) {
    const auto& tracked = world.ground_truth().current(pair);
    const tr::Probe& probe = world.platform().probe(pair.probe);
    auto fresh = world.control_plane().resolver().resolve(
        probe.as, probe.city, pair.dst,
        GroundTruth::flow_of(probe.ip, pair.dst), /*with_ip_hops=*/false);
    EXPECT_EQ(GroundTruth::classify(tracked, fresh),
              tracemap::ChangeKind::kNone)
        << "incremental ground truth diverged for probe " << pair.probe;
  }
}

TEST_P(WorldGroundTruth, SignaturesTrackHistory) {
  World world(fast_params(GetParam()));
  world.run_until(world.corpus_t0());
  world.initialize_corpus();
  world.run_until(world.end());
  const auto& changes = world.ground_truth().changes();
  for (std::size_t i = 0; i < changes.size() && i < 20; ++i) {
    const ChangeEvent& change = changes[i];
    // A change means the border signature differs across its instant.
    EXPECT_NE(world.ground_truth().border_signature_at(
                  change.pair, change.time - 1),
              world.ground_truth().border_signature_at(change.pair,
                                                       change.time));
    if (change.kind == tracemap::ChangeKind::kAsLevel) {
      EXPECT_NE(world.ground_truth().as_signature_at(change.pair,
                                                     change.time - 1),
                world.ground_truth().as_signature_at(change.pair,
                                                     change.time));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorldGroundTruth, ::testing::Values(3, 9));

TEST(StalenessOracleTest, ReferenceFollowsRefreshes) {
  World world(fast_params(4));
  world.run_until(world.corpus_t0());
  world.initialize_corpus();
  world.run_until(world.end());
  const auto& changes = world.ground_truth().changes();
  if (changes.empty()) GTEST_SKIP();

  StalenessOracle oracle;
  oracle.ground_truth = &world.ground_truth();
  oracle.corpus_t0 = world.corpus_t0();
  // No refreshes: stale from the first change onward.
  const ChangeEvent& first = changes.front();
  EXPECT_FALSE(oracle.stale(first.pair, first.time - 1));
  EXPECT_TRUE(oracle.stale(first.pair, first.time + 1));
  // With a refresh right after the change, the pair is fresh again.
  oracle.refresh_times = {first.time + 2};
  EXPECT_FALSE(oracle.stale(first.pair, first.time + 3));
}

TEST(World, CorpusInitializationRespectsTarget) {
  WorldParams params = fast_params(8);
  params.corpus_pair_target = 37;
  World world(params);
  world.run_until(world.corpus_t0());
  EXPECT_EQ(world.initialize_corpus(), 37u);
  EXPECT_EQ(world.engine().corpus_size(), 37u);
  EXPECT_EQ(world.ground_truth().pairs().size(), 37u);
}

}  // namespace
}  // namespace rrr::eval
