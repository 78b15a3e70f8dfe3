// Shared state the BGP-based monitors read: the standing per-VP table view
// and vantage-point metadata for signal attributes.
//
// Reader role: everything reached through this struct is *read-only* during
// the parallel phases of a window close. `table` points at the engine's one
// VpTableView, which holds the start-of-window state while the BGP monitors
// close — they may look routes up from any pool thread. The engine absorbs
// the window's records in the serial section after every monitor close has
// been joined, so a monitor never sees the table change under it mid-close.
#pragma once

#include <vector>

#include "bgp/table_view.h"
#include "bgp/record.h"
#include "topology/types.h"

namespace rrr::signals {

struct BgpContext {
  // The engine-owned table; monitors call `table->route(...)` etc.
  const bgp::VpTableView* table = nullptr;
  const std::vector<bgp::VantagePoint>* vps = nullptr;
  // Per-VpId location, for the Table 1 bootstrap attributes.
  std::vector<topo::AsIndex> vp_as;
  std::vector<topo::CityId> vp_city;

  std::size_t vp_count() const { return vps ? vps->size() : 0; }
};

}  // namespace rrr::signals
