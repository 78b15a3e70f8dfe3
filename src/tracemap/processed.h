// The fully-processed traceroute view: each hop annotated with its AS,
// router, and city; the merged AS-level path; and the border-router path —
// the granularity at which the paper tracks changes (§3).
#pragma once

#include <optional>
#include <vector>

#include "netbase/asn.h"
#include "netbase/flat_map.h"
#include "topology/topology.h"
#include "topology/types.h"
#include "tracemap/alias.h"
#include "tracemap/geolocate.h"
#include "tracemap/ip2as.h"
#include "tracemap/patch.h"
#include "traceroute/traceroute.h"

namespace rrr::tracemap {

struct ProcessedHop {
  std::optional<Ipv4> ip;  // after patching; nullopt = wildcard
  Asn asn;                 // invalid when unmapped
  bool is_ixp = false;
  topo::IxpId ixp = topo::kNoIxp;  // which LAN, when is_ixp
  RouterKey router;        // meaningful only when ip is set
  std::optional<topo::CityId> city;

  bool responded() const { return ip.has_value(); }
};

// One inter-AS boundary as inferred from the traceroute: the last hop mapped
// to the near AS and the first hop mapped to the far AS (Appendix A treats
// both IPs as part of the border when finer inference is unavailable).
struct BorderView {
  std::size_t near_index = 0;
  std::size_t far_index = 0;
  Asn near_as;
  Asn far_as;
  Ipv4 near_ip;
  Ipv4 far_ip;
  RouterKey border_router;  // the far-side (ingress) router
  bool via_ixp = false;
  std::optional<topo::CityId> near_city;
  std::optional<topo::CityId> far_city;

  friend bool operator==(const BorderView&, const BorderView&) = default;
};

struct ProcessedTrace {
  std::uint64_t trace_id = 0;
  tr::ProbeId probe = tr::kNoProbe;
  Ipv4 src_ip;
  Ipv4 dst_ip;
  TimePoint time;
  bool reached = false;

  std::vector<ProcessedHop> hops;
  // Merged AS-level path (consecutive duplicates collapsed, unmapped gaps
  // between identical ASes bridged). Empty when unusable.
  AsPath as_path;
  bool has_as_loop = false;
  std::vector<BorderView> borders;

  // The border-router path: the sequence of ingress border routers, the
  // paper's change granularity. Two traces with equal AS paths but different
  // border paths have experienced a border-level change.
  std::vector<RouterKey> border_router_path() const {
    std::vector<RouterKey> path;
    path.reserve(borders.size());
    for (const BorderView& b : borders) path.push_back(b.border_router);
    return path;
  }
};

// Classification of how two processed traces differ (§3's definitions: a
// border-level change requires the AS path to be unchanged).
enum class ChangeKind : std::uint8_t { kNone, kBorderLevel, kAsLevel };
ChangeKind classify_change(const ProcessedTrace& before,
                           const ProcessedTrace& after);

// What the pipeline attaches to one responded hop: the IP-to-AS, alias and
// geolocation answers for its address.
struct HopAnnotation {
  RouterKey router;
  Asn asn;  // invalid when unmapped
  topo::IxpId ixp = topo::kNoIxp;
  bool is_ixp = false;
  std::optional<topo::CityId> city;
};

// Answers the three per-hop lookups for an address. Every router interface
// the topology has at construction is annotated once, up front, into a
// read-only table, so a hop on a router costs one probe instead of a trie
// walk and three hash lookups. Any other address (a destination host, an
// interface a later topology change added) takes the three lookups. The
// mapper, resolver and geolocator never change after construction, so both
// paths give the same answer for every address.
class HopAnnotator {
 public:
  HopAnnotator(const topo::Topology& topology, const Ip2As& ip2as,
               const AliasResolver& aliases, const Geolocator& geo);

  HopAnnotation annotate(Ipv4 ip) const {
    if (const HopAnnotation* hit = table_.find(ip.value())) return *hit;
    return lookup(ip);
  }
  // The three lookups, bypassing the table.
  HopAnnotation lookup(Ipv4 ip) const;

  std::size_t table_size() const { return table_.size(); }

 private:
  const Ip2As& ip2as_;
  const AliasResolver& aliases_;
  const Geolocator& geo_;
  FlatMap<std::uint32_t, HopAnnotation> table_;
};

class TraceProcessor {
 public:
  // `patcher` may be null (no unresponsive-hop patching).
  explicit TraceProcessor(const HopAnnotator& annotator,
                          const HopPatcher* patcher = nullptr)
      : annotator_(annotator), patcher_(patcher) {}

  ProcessedTrace process(const tr::Traceroute& trace) const;

 private:
  const HopAnnotator& annotator_;
  const HopPatcher* patcher_;
};

}  // namespace rrr::tracemap
