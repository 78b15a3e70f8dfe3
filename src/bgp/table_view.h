// Consumer-side BGP table maintenance and feed preprocessing (§4.1.1).
//
// The paper initializes its BGP monitoring by maintaining per-vantage-point
// table views from BGPStream, excluding prefixes more specific than /24,
// stripping IXP route-server ASNs from paths, and finding the most specific
// prefix each VP advertises toward every monitored destination.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "bgp/record.h"
#include "netbase/intern.h"
#include "netbase/radix_trie.h"
#include "store/codec.h"

namespace rrr::bgp {

// §4.1.1: prefixes more specific than /24 generally do not propagate and
// may indicate misconfiguration or blackholing; exclude them.
bool acceptable_prefix(const Prefix& prefix);

// §4.1.1: remove IXP route-server ASNs so paths link IXP members directly.
// `sorted_ixp_asns` must be sorted ascending — the per-hop membership test
// is a binary search over a flat array (the per-record hot path; the old
// std::set walked a node-based tree per hop).
AsPath strip_ixp_asns(const AsPath& path,
                      const std::vector<Asn>& sorted_ixp_asns);

// Collapse prepending (consecutive identical ASNs) into a single hop.
AsPath collapse_prepending(const AsPath& path);

// Memoized raw-path → table-canonical-path (IXP-strip + prepend-collapse)
// id mapping. Most updates repeat a path already seen, so canonicalization
// amortizes to one hash lookup instead of two vector rebuilds per record.
//
// Single-writer: the cache has no locking. Each owner (a VpTableView, the
// engine's dispatch path) keeps its own instance.
// With an empty IXP list this memoizes plain prepend-collapse — the
// dispatch-path normalization.
class PathCanonicalizer {
 public:
  PathCanonicalizer() = default;
  explicit PathCanonicalizer(const std::set<Asn>& ixp_asns)
      : ixp_asns_(ixp_asns.begin(), ixp_asns.end()) {}

  PathId canonical(PathId raw);

  const std::vector<Asn>& ixp_asns() const { return ixp_asns_; }

 private:
  std::vector<Asn> ixp_asns_;  // sorted (std::set iteration order)
  std::unordered_map<PathId, PathId> cache_;
};

// The route a VP currently holds for a prefix. Interned: copying a route or
// comparing paths/community sets is integer work.
struct VpRoute {
  InternedPath path;  // already IXP-stripped and prepending-collapsed
  InternedCommunities communities;
  TimePoint updated;
};

// Maintains each vantage point's table from a stream of records.
//
// Concurrency: a VpTableView has no internal synchronization. The engine
// reads it from pool threads only while no one writes it (the BGP monitor
// closes), and absorbs each window's records serially on the driver thread
// once those readers are joined. Standalone uses (tests, offline tools) may
// mutate one freely on a single thread.
class VpTableView {
 public:
  explicit VpTableView(std::set<Asn> ixp_asns = {}) : canon_(ixp_asns) {}

  // Applies one record (RIB entries and updates are treated alike; the
  // latest information wins). Records with unacceptable prefixes are
  // dropped; returns whether the record was applied. The path is
  // canonicalized through the view's own single-writer memo.
  bool apply(const BgpRecord& record);

  // Absorbs the first `count` records of `records` in order; returns how
  // many were applied. This is the once-per-window batch absorption of the
  // staleness engine: monitors dispatch against the pre-batch table (the
  // start-of-window state shared across engine shards), and the engine
  // absorbs the batch here once they are joined.
  std::size_t apply_all(const std::vector<BgpRecord>& records,
                        std::size_t count);

  // The VP's route for the most specific prefix covering `ip`, if any.
  const VpRoute* route(VpId vp, Ipv4 ip) const;

  // §4.1.1: the most specific prefix VP `vp` advertises covering `ip`.
  std::optional<Prefix> most_specific_prefix(VpId vp, Ipv4 ip) const;

  // All VPs with at least one route installed.
  std::vector<VpId> vps() const;

  std::size_t route_count(VpId vp) const;

  // Checkpoint support. save_state writes one local dictionary section —
  // every distinct path / community set once, in first-appearance order —
  // followed by the routes as dictionary indices (VP ascending, prefixes in
  // trie order), so snapshot bytes are a pure function of table *content*
  // (global intern ids never reach the disk) and repeated attributes cost
  // four bytes per route. restore_route reinstalls one route verbatim (no
  // preprocessing — stored routes were already stripped/collapsed when
  // first applied).
  void save_state(store::Encoder& enc) const;
  void load_state(store::Decoder& dec);
  void restore_route(VpId vp, const Prefix& prefix, VpRoute route);

 private:
  PathCanonicalizer canon_;
  std::map<VpId, RadixTrie<VpRoute>> tables_;
};

}  // namespace rrr::bgp
