// BGP record types modeled on libBGPStream's elem interface.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netbase/asn.h"
#include "netbase/community.h"
#include "netbase/intern.h"
#include "netbase/ipv4.h"
#include "netbase/prefix.h"
#include "netbase/time.h"

namespace rrr::bgp {

using VpId = std::uint32_t;
inline constexpr VpId kNoVp = 0xFFFFFFFFu;

enum class RecordType : std::uint8_t {
  kRibEntry,      // TABLE_DUMP_V2 snapshot entry
  kAnnouncement,  // UPDATE announce
  kWithdrawal,    // UPDATE withdraw
};

const char* to_string(RecordType type);

// One BGP element as a collector exposes it: who said it (peer), when, and
// the route attributes. `vp` is a dense index assigned by the feed for fast
// per-VP bookkeeping (real BGPStream users derive it from peer address).
//
// Attributes are interned (netbase/intern.h): `as_path`, `communities`, and
// `collector` are 32-bit handles whose assignment interns and whose
// comparison is one integer compare, so copying a record around the backlog
// touches no heap.
struct BgpRecord {
  TimePoint time;
  RecordType type = RecordType::kAnnouncement;
  VpId vp = kNoVp;
  Asn peer_asn;
  Ipv4 peer_ip;
  InternedCollector collector;
  Prefix prefix;
  InternedPath as_path;  // empty for withdrawals
  InternedCommunities communities;

  // A human-readable dump in the style of the paper's Figure 3.
  std::string to_string() const;
};

// A BGP vantage point: a router peering with a route collector.
struct VantagePoint {
  VpId id = kNoVp;
  std::uint32_t as_index = 0;  // topo::AsIndex of the host AS
  Asn asn;
  Ipv4 peer_ip;
  InternedCollector collector;
  bool full_table = true;  // 84% of RouteViews/RIS peers send full tables
};

}  // namespace rrr::bgp
