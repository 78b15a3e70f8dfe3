// Tests for the Appendix-A traceroute processing pipeline (src/tracemap).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "netbase/rng.h"
#include "routing/control_plane.h"
#include "store/serial.h"
#include "topology/builder.h"
#include "tracemap/pipeline.h"
#include "traceroute/platform.h"

namespace rrr::tracemap {
namespace {

topo::Topology small_topology(std::uint64_t seed = 51) {
  topo::TopologyParams params;
  params.num_tier1 = 4;
  params.num_transit = 16;
  params.num_stub = 40;
  params.seed = seed;
  return topo::build_topology(params);
}

TEST(Ip2As, MapsAnnouncedSpaceAndIxpLans) {
  topo::Topology topology = small_topology();
  Ip2As ip2as = build_ip2as(topology, /*ixp_interface_coverage=*/1.0, 1);
  // Announced host space maps to the owner.
  MapResult host = ip2as.map(Ipv4(topo::as_block(3).network().value() + 9));
  EXPECT_EQ(host.asn, topology.as_at(3).asn);
  EXPECT_FALSE(host.is_ixp);
  // IXP interfaces map to their member with full coverage.
  for (const topo::Interconnect& ic : topology.interconnects()) {
    if (ic.ixp == topo::kNoIxp) continue;
    MapResult side_b = ip2as.map(ic.ip_b);
    EXPECT_TRUE(side_b.is_ixp);
    EXPECT_EQ(side_b.ixp, ic.ixp);
    EXPECT_EQ(side_b.asn, topology.as_at(topology.link_at(ic.link).b).asn);
    break;
  }
}

TEST(Ip2As, UnknownIxpInterfaceStaysIxpButUnmapped) {
  topo::Topology topology = small_topology();
  Ip2As ip2as = build_ip2as(topology, /*ixp_interface_coverage=*/0.0, 1);
  for (const topo::Interconnect& ic : topology.interconnects()) {
    if (ic.ixp == topo::kNoIxp) continue;
    MapResult result = ip2as.map(ic.ip_b);
    EXPECT_TRUE(result.is_ixp);
    EXPECT_FALSE(result.mapped());
    break;
  }
}

TEST(Alias, FullCoverageGroupsAllInterfaces) {
  topo::Topology topology = small_topology();
  AliasParams params;
  params.coverage = 1.0;
  AliasResolver resolver(topology, params);
  for (const topo::Router& router : topology.routers()) {
    if (router.interfaces.size() < 2) continue;
    RouterKey first = resolver.resolve(router.interfaces[0]);
    EXPECT_TRUE(first.resolved());
    for (Ipv4 ip : router.interfaces) {
      EXPECT_EQ(resolver.resolve(ip), first);
    }
  }
}

TEST(Alias, ZeroCoverageYieldsSingletons) {
  topo::Topology topology = small_topology();
  AliasParams params;
  params.coverage = 0.0;
  AliasResolver resolver(topology, params);
  for (const topo::Router& router : topology.routers()) {
    if (router.interfaces.size() < 2) continue;
    EXPECT_NE(resolver.resolve(router.interfaces[0]),
              resolver.resolve(router.interfaces[1]));
    EXPECT_FALSE(resolver.resolve(router.interfaces[0]).resolved());
    break;
  }
}

TEST(Geolocate, FullCoverageIsExact) {
  topo::Topology topology = small_topology();
  GeoParams params;
  params.ipmap_coverage = 1.0;
  Geolocator geo(topology, params);
  for (const topo::Router& router : topology.routers()) {
    for (Ipv4 ip : router.interfaces) {
      auto city = geo.locate(ip);
      ASSERT_TRUE(city.has_value());
      EXPECT_EQ(*city, router.city);
      EXPECT_EQ(geo.method(ip), GeoMethod::kIpMap);
    }
  }
}

TEST(Geolocate, UnknownAddressesAreUnlocated) {
  topo::Topology topology = small_topology();
  Geolocator geo(topology, {});
  EXPECT_FALSE(geo.locate(*Ipv4::parse("203.0.113.7")).has_value());
  EXPECT_EQ(geo.method(*Ipv4::parse("203.0.113.7")), GeoMethod::kNone);
}

TEST(HopPatcher, FillsUniquelyDeterminedStars) {
  HopPatcher patcher;
  tr::Traceroute teach;
  teach.hops = {{*Ipv4::parse("1.1.1.1"), 1.0},
                {*Ipv4::parse("2.2.2.2"), 2.0},
                {*Ipv4::parse("3.3.3.3"), 3.0}};
  patcher.observe(teach);

  tr::Traceroute broken = teach;
  broken.hops[1].ip.reset();
  tr::Traceroute patched = patcher.patch(broken);
  ASSERT_TRUE(patched.hops[1].responded());
  EXPECT_EQ(*patched.hops[1].ip, *Ipv4::parse("2.2.2.2"));
  EXPECT_NEAR(patched.hops[1].rtt_ms, 2.0, 1e-9);
}

TEST(HopPatcher, AmbiguousMiddlesStayWild) {
  HopPatcher patcher;
  tr::Traceroute a;
  a.hops = {{*Ipv4::parse("1.1.1.1"), 1.0},
            {*Ipv4::parse("2.2.2.2"), 2.0},
            {*Ipv4::parse("3.3.3.3"), 3.0}};
  patcher.observe(a);
  a.hops[1].ip = *Ipv4::parse("9.9.9.9");  // a second observed middle
  patcher.observe(a);

  tr::Traceroute broken = a;
  broken.hops[1].ip.reset();
  tr::Traceroute patched = patcher.patch(broken);
  EXPECT_FALSE(patched.hops[1].responded());
}

// The map-of-sets patcher HopPatcher replaced, kept as the model the flat
// table must agree with: every observed middle per (prev, next), unique iff
// exactly one.
class MapSetPatcher {
 public:
  void observe(const tr::Traceroute& trace) {
    const auto& hops = trace.hops;
    for (std::size_t i = 1; i + 1 < hops.size(); ++i) {
      if (hops[i - 1].responded() && hops[i].responded() &&
          hops[i + 1].responded()) {
        middles_[{*hops[i - 1].ip, *hops[i + 1].ip}].insert(*hops[i].ip);
      }
    }
  }
  std::optional<Ipv4> unique_middle(Ipv4 prev, Ipv4 next) const {
    auto it = middles_.find({prev, next});
    if (it == middles_.end() || it->second.size() != 1) return std::nullopt;
    return *it->second.begin();
  }
  tr::Traceroute patch(const tr::Traceroute& trace) const {
    tr::Traceroute patched = trace;
    auto& hops = patched.hops;
    for (std::size_t i = 1; i + 1 < hops.size(); ++i) {
      if (!hops[i].responded() && hops[i - 1].responded() &&
          hops[i + 1].responded()) {
        if (auto middle = unique_middle(*hops[i - 1].ip, *hops[i + 1].ip)) {
          hops[i].ip = middle;
          hops[i].rtt_ms = (hops[i - 1].rtt_ms + hops[i + 1].rtt_ms) / 2.0;
        }
      }
    }
    return patched;
  }
  std::size_t triple_count() const { return middles_.size(); }

 private:
  std::map<std::pair<Ipv4, Ipv4>, std::set<Ipv4>> middles_;
};

// A small alphabet makes repeated and ambiguous middles common; it holds
// 0.0.0.0 and 255.255.255.255 so the all-ones table key is exercised too.
std::vector<Ipv4> patch_alphabet() {
  return {Ipv4(0), Ipv4(1), Ipv4(0x0A000001), Ipv4(0x0A000002),
          Ipv4(0x0A000003), Ipv4(0xC0A80001), Ipv4(0xFFFFFFFEu),
          Ipv4(0xFFFFFFFFu)};
}

tr::Traceroute random_trace(Rng& rng, const std::vector<Ipv4>& alphabet,
                            double star_prob) {
  tr::Traceroute trace;
  const auto length = static_cast<std::size_t>(rng.uniform_int(1, 9));
  for (std::size_t i = 0; i < length; ++i) {
    tr::Hop hop;
    if (!rng.bernoulli(star_prob)) {
      hop.ip = alphabet[rng.index(alphabet.size())];
      hop.rtt_ms = static_cast<double>(rng.uniform_int(1, 400)) / 4.0;
    }
    trace.hops.push_back(hop);
  }
  return trace;
}

void expect_same_hops(const tr::Traceroute& got, const tr::Traceroute& want) {
  ASSERT_EQ(got.hops.size(), want.hops.size());
  for (std::size_t i = 0; i < got.hops.size(); ++i) {
    EXPECT_EQ(got.hops[i].ip, want.hops[i].ip) << "hop " << i;
    EXPECT_EQ(got.hops[i].rtt_ms, want.hops[i].rtt_ms) << "hop " << i;
  }
}

TEST(HopPatcher, FlatTableMatchesMapOfSetsModel) {
  const std::vector<Ipv4> alphabet = patch_alphabet();
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    HopPatcher flat;
    MapSetPatcher model;
    const double star_prob = 0.1 + 0.05 * static_cast<double>(seed % 6);
    for (int step = 0; step < 300; ++step) {
      tr::Traceroute trace = random_trace(rng, alphabet, star_prob);
      if (rng.bernoulli(0.5)) {
        flat.observe(trace);
        model.observe(trace);
      } else {
        expect_same_hops(flat.patch(trace), model.patch(trace));
      }
      if (step % 97 == 96) {
        // Save/load round trip mid-stream: the reloaded table answers and
        // saves exactly like the original from here on.
        store::Encoder enc;
        flat.save_state(enc);
        HopPatcher reloaded;
        store::Decoder dec(enc.buffer());
        reloaded.load_state(dec);
        EXPECT_TRUE(dec.done());
        store::Encoder again;
        reloaded.save_state(again);
        EXPECT_EQ(again.buffer(), enc.buffer());
        flat = std::move(reloaded);
      }
    }
    EXPECT_EQ(flat.triple_count(), model.triple_count());
    for (Ipv4 prev : alphabet) {
      for (Ipv4 next : alphabet) {
        EXPECT_EQ(flat.unique_middle(prev, next),
                  model.unique_middle(prev, next))
            << "seed " << seed << " " << prev << " .. " << next;
      }
    }
  }
}

TEST(HopPatcher, SnapshotWithBadEntriesIsCorrupt) {
  auto entry = [](store::Encoder& enc, std::uint32_t prev, std::uint32_t next,
                  std::uint8_t ambiguous) {
    enc.u32(prev);
    enc.u32(next);
    enc.u32(0x0A000009);
    enc.u8(ambiguous);
  };
  store::Encoder ambiguous_byte;
  ambiguous_byte.u64(1);
  entry(ambiguous_byte, 1, 2, 2);
  store::Encoder duplicate;
  duplicate.u64(2);
  entry(duplicate, 1, 2, 0);
  entry(duplicate, 1, 2, 1);
  store::Encoder unsorted;
  unsorted.u64(2);
  entry(unsorted, 1, 3, 0);
  entry(unsorted, 1, 2, 0);
  store::Encoder prev_unsorted;
  prev_unsorted.u64(2);
  entry(prev_unsorted, 2, 0, 0);
  entry(prev_unsorted, 1, 9, 0);
  for (const store::Encoder* bytes :
       {&ambiguous_byte, &duplicate, &unsorted, &prev_unsorted}) {
    HopPatcher patcher;
    store::Decoder dec(bytes->buffer());
    try {
      patcher.load_state(dec);
      ADD_FAILURE() << "decoded without error";
    } catch (const store::StoreError& e) {
      EXPECT_EQ(e.kind(), store::StoreError::Kind::kCorrupt) << e.what();
    }
  }
  // The well-formed neighbours of those payloads load.
  store::Encoder good;
  good.u64(2);
  entry(good, 1, 2, 1);
  entry(good, 1, 3, 0);
  HopPatcher patcher;
  store::Decoder dec(good.buffer());
  patcher.load_state(dec);
  EXPECT_TRUE(dec.done());
  EXPECT_EQ(patcher.unique_middle(Ipv4(1), Ipv4(2)), std::nullopt);
  EXPECT_EQ(patcher.unique_middle(Ipv4(1), Ipv4(3)), Ipv4(0x0A000009));
}

class ProcessingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    topology_ = small_topology(61);
    cp_ = std::make_unique<routing::ControlPlane>(topology_, 61);
    tr::PlatformParams plat;
    plat.num_probes = 60;
    plat.num_anchors = 10;
    plat.seed = 61;
    tr::ProberParams prober;
    prober.seed = 61;
    prober.silent_router_fraction = 0.0;
    prober.intermittent_loss_prob = 0.0;
    prober.unresponsive_destination_prob = 0.0;
    platform_ = std::make_unique<tr::Platform>(*cp_, prober, plat);
    PipelineParams pipeline;
    pipeline.alias.coverage = 1.0;
    pipeline.geo.ipmap_coverage = 1.0;
    pipeline.ixp_interface_coverage = 1.0;
    pipeline.seed = 61;
    processing_ = std::make_unique<ProcessingContext>(topology_, pipeline);
  }
  topo::Topology topology_;
  std::unique_ptr<routing::ControlPlane> cp_;
  std::unique_ptr<tr::Platform> platform_;
  std::unique_ptr<ProcessingContext> processing_;
};

TEST_F(ProcessingFixture, AsPathMatchesControlPlane) {
  // With perfect mapping/noise-free measurement, the processed AS path must
  // equal the control-plane AS path.
  int checked = 0;
  for (tr::ProbeId probe_id : platform_->regular_probes()) {
    Ipv4 dst = platform_->probe(platform_->anchors()[0]).ip;
    tr::Traceroute trace = platform_->issue(probe_id, dst, TimePoint(0), 0);
    if (!trace.reached) continue;
    ProcessedTrace processed = processing_->process(trace);
    const tr::Probe& probe = platform_->probe(probe_id);
    topo::AsIndex origin = topology_.announced_owner_of(dst);
    const routing::Route& route = cp_->table_for(origin).at(probe.as);
    if (!route.reachable()) continue;
    ASSERT_FALSE(processed.has_as_loop);
    EXPECT_EQ(processed.as_path, route.path)
        << "processed " << to_string(processed.as_path) << " vs control "
        << to_string(route.path);
    // One border per AS transition.
    EXPECT_EQ(processed.borders.size(), route.path.size() - 1);
    if (++checked >= 10) break;
  }
  EXPECT_GE(checked, 5);
}

TEST_F(ProcessingFixture, BorderRouterPathMatchesGroundTruthCrossings) {
  tr::ProbeId probe_id = platform_->regular_probes()[1];
  const tr::Probe& probe = platform_->probe(probe_id);
  Ipv4 dst = platform_->probe(platform_->anchors()[1]).ip;
  tr::Traceroute trace = platform_->issue(probe_id, dst, TimePoint(0), 0);
  if (!trace.reached) GTEST_SKIP();
  ProcessedTrace processed = processing_->process(trace);
  routing::ForwardPath truth = cp_->resolver().resolve(
      probe.as, probe.city, dst, trace.flow_id);
  ASSERT_EQ(processed.borders.size(), truth.crossings.size());
  for (std::size_t i = 0; i < processed.borders.size(); ++i) {
    // The inferred far side must physically belong to the entered AS. (It
    // is not always the interconnect's ingress interface: messy PNIs are
    // numbered from the near side's block, so LPM places the AS transition
    // one hop later — the "assume both IPs are part of the border" case.)
    EXPECT_EQ(topology_.true_owner_of(processed.borders[i].far_ip),
              truth.crossings[i].to_as);
    EXPECT_EQ(processed.borders[i].far_as,
              topology_.as_at(truth.crossings[i].to_as).asn);
  }
}

// TraceProcessor patches stars while it annotates; the result must equal
// patching the whole trace first and processing it without a patcher.
TEST_F(ProcessingFixture, InlinePatchingMatchesPatchThenProcess) {
  HopPatcher patcher;
  Rng rng(62);
  std::vector<tr::Traceroute> traces;
  for (int i = 0; i < 200; ++i) {
    tr::ProbeId probe = platform_->regular_probes()[rng.index(
        platform_->regular_probes().size())];
    Ipv4 dst = platform_->probe(platform_->anchors()[rng.index(
                                    platform_->anchors().size())])
                   .ip;
    traces.push_back(platform_->issue(probe, dst, TimePoint(i * 900), i % 5));
    patcher.observe(traces.back());
  }
  TraceProcessor inline_patching(processing_->annotator(), &patcher);
  TraceProcessor unpatched(processing_->annotator());
  int patched_hops = 0;
  for (tr::Traceroute trace : traces) {
    // Knock out a third of the hops so there are stars to patch.
    for (tr::Hop& hop : trace.hops) {
      if (rng.bernoulli(0.33)) hop.ip.reset();
    }
    tr::Traceroute patched = patcher.patch(trace);
    ProcessedTrace got = inline_patching.process(trace);
    ProcessedTrace want = unpatched.process(patched);
    ASSERT_EQ(got.hops.size(), want.hops.size());
    for (std::size_t i = 0; i < got.hops.size(); ++i) {
      EXPECT_EQ(got.hops[i].ip, want.hops[i].ip);
      EXPECT_EQ(got.hops[i].asn, want.hops[i].asn);
      EXPECT_EQ(got.hops[i].is_ixp, want.hops[i].is_ixp);
      EXPECT_EQ(got.hops[i].ixp, want.hops[i].ixp);
      EXPECT_EQ(got.hops[i].router, want.hops[i].router);
      EXPECT_EQ(got.hops[i].city, want.hops[i].city);
      patched_hops += !trace.hops[i].responded() && got.hops[i].responded();
    }
    EXPECT_EQ(got.as_path, want.as_path);
    EXPECT_EQ(got.has_as_loop, want.has_as_loop);
    EXPECT_EQ(got.borders, want.borders);
  }
  EXPECT_GT(patched_hops, 0);
}

TEST_F(ProcessingFixture, ClassifyChangeDistinguishesGranularities) {
  tr::ProbeId probe_id = platform_->regular_probes()[2];
  Ipv4 dst = platform_->probe(platform_->anchors()[2]).ip;
  tr::Traceroute trace = platform_->issue(probe_id, dst, TimePoint(0), 0);
  ProcessedTrace a = processing_->process(trace);
  EXPECT_EQ(classify_change(a, a), ChangeKind::kNone);
  // Tamper with a border router identity: border-level change.
  ProcessedTrace b = a;
  if (!b.borders.empty()) {
    b.borders[0].border_router.value ^= 1;
    EXPECT_EQ(classify_change(a, b), ChangeKind::kBorderLevel);
  }
  // Tamper with the AS path: AS-level change dominates.
  ProcessedTrace c = a;
  if (!c.as_path.empty()) {
    c.as_path[0] = Asn(64999);
    EXPECT_EQ(classify_change(a, c), ChangeKind::kAsLevel);
  }
}

}  // namespace
}  // namespace rrr::tracemap
