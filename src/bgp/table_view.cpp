#include "bgp/table_view.h"

#include <algorithm>

namespace rrr::bgp {

bool acceptable_prefix(const Prefix& prefix) { return prefix.length() <= 24; }

AsPath strip_ixp_asns(const AsPath& path,
                      const std::vector<Asn>& sorted_ixp_asns) {
  AsPath out;
  out.reserve(path.size());
  for (Asn asn : path) {
    if (!std::binary_search(sorted_ixp_asns.begin(), sorted_ixp_asns.end(),
                            asn)) {
      out.push_back(asn);
    }
  }
  return out;
}

AsPath collapse_prepending(const AsPath& path) {
  AsPath out;
  out.reserve(path.size());
  for (Asn asn : path) {
    if (out.empty() || out.back() != asn) out.push_back(asn);
  }
  return out;
}

PathId PathCanonicalizer::canonical(PathId raw) {
  auto it = cache_.find(raw);
  if (it != cache_.end()) return it->second;
  const AsPath& path = Interner::global().path(raw);
  PathId id = Interner::global().path_id(
      collapse_prepending(strip_ixp_asns(path, ixp_asns_)));
  cache_.emplace(raw, id);
  return id;
}

bool VpTableView::apply(const BgpRecord& record) {
  if (!acceptable_prefix(record.prefix)) return false;
  RadixTrie<VpRoute>& table = tables_[record.vp];
  if (record.type == RecordType::kWithdrawal) {
    return table.erase(record.prefix);
  }
  VpRoute route;
  route.path = InternedPath::from_id(canon_.canonical(record.as_path.id()));
  route.communities = record.communities;
  route.updated = record.time;
  table.insert(record.prefix, std::move(route));
  return true;
}

std::size_t VpTableView::apply_all(const std::vector<BgpRecord>& records,
                                   std::size_t count) {
  std::size_t applied = 0;
  for (std::size_t i = 0; i < count && i < records.size(); ++i) {
    if (apply(records[i])) ++applied;
  }
  return applied;
}

const VpRoute* VpTableView::route(VpId vp, Ipv4 ip) const {
  auto it = tables_.find(vp);
  if (it == tables_.end()) return nullptr;
  return it->second.lookup(ip);
}

std::optional<Prefix> VpTableView::most_specific_prefix(VpId vp,
                                                        Ipv4 ip) const {
  auto it = tables_.find(vp);
  if (it == tables_.end()) return std::nullopt;
  auto match = it->second.lookup_match(ip);
  if (!match) return std::nullopt;
  return match->prefix;
}

std::vector<VpId> VpTableView::vps() const {
  std::vector<VpId> out;
  out.reserve(tables_.size());
  for (const auto& [vp, table] : tables_) {
    if (table.size() > 0) out.push_back(vp);
  }
  return out;
}

std::size_t VpTableView::route_count(VpId vp) const {
  auto it = tables_.find(vp);
  return it == tables_.end() ? 0 : it->second.size();
}

void VpTableView::save_state(store::Encoder& enc) const {
  // Pass 1: collect the distinct attribute ids in first-appearance order
  // (VP ascending, prefixes in trie order — the same walk pass 2 takes), so
  // the local indices, and therefore the snapshot bytes, depend only on
  // table content, never on global intern-id assignment history.
  std::vector<PathId> dict_paths;
  std::vector<CommSetId> dict_comms;
  std::unordered_map<PathId, std::uint32_t> path_index;
  std::unordered_map<CommSetId, std::uint32_t> comm_index;
  for (const auto& [vp, table] : tables_) {
    table.for_each([&](const Prefix&, const VpRoute& route) {
      if (path_index.try_emplace(route.path.id(),
                                 static_cast<std::uint32_t>(dict_paths.size()))
              .second) {
        dict_paths.push_back(route.path.id());
      }
      if (comm_index.try_emplace(route.communities.id(),
                                 static_cast<std::uint32_t>(dict_comms.size()))
              .second) {
        dict_comms.push_back(route.communities.id());
      }
    });
  }
  const Interner& interner = Interner::global();
  enc.u32(static_cast<std::uint32_t>(dict_paths.size()));
  for (PathId id : dict_paths) store::put(enc, interner.path(id));
  enc.u32(static_cast<std::uint32_t>(dict_comms.size()));
  for (CommSetId id : dict_comms) store::put(enc, interner.commset(id));

  enc.u64(tables_.size());
  for (const auto& [vp, table] : tables_) {
    enc.u32(vp);
    enc.u64(table.size());
    table.for_each([&](const Prefix& prefix, const VpRoute& route) {
      store::put(enc, prefix);
      enc.u32(path_index.at(route.path.id()));
      enc.u32(comm_index.at(route.communities.id()));
      store::put(enc, route.updated);
    });
  }
}

void VpTableView::load_state(store::Decoder& dec) {
  tables_.clear();
  std::vector<InternedPath> dict_paths;
  // Each dictionary entry carries at least its u64 length prefix.
  std::uint32_t path_count = dec.count<std::uint32_t>(8);
  dict_paths.reserve(path_count);
  for (std::uint32_t i = 0; i < path_count; ++i) {
    dict_paths.emplace_back(store::get_as_path(dec));
  }
  std::vector<InternedCommunities> dict_comms;
  std::uint32_t comm_count = dec.count<std::uint32_t>(8);
  dict_comms.reserve(comm_count);
  for (std::uint32_t i = 0; i < comm_count; ++i) {
    dict_comms.emplace_back(store::get_community_set(dec));
  }
  std::uint64_t vp_count = dec.u64();
  for (std::uint64_t i = 0; i < vp_count; ++i) {
    VpId vp = dec.u32();
    std::uint64_t routes = dec.u64();
    for (std::uint64_t j = 0; j < routes; ++j) {
      Prefix prefix = store::get_prefix(dec);
      std::uint32_t path_at = dec.u32();
      std::uint32_t comm_at = dec.u32();
      if (path_at >= dict_paths.size() || comm_at >= dict_comms.size()) {
        throw store::StoreError(
            store::StoreError::Kind::kCorrupt,
            "table snapshot route references a dictionary entry that does "
            "not exist");
      }
      VpRoute route;
      route.path = dict_paths[path_at];
      route.communities = dict_comms[comm_at];
      route.updated = store::get_time(dec);
      restore_route(vp, prefix, std::move(route));
    }
  }
}

void VpTableView::restore_route(VpId vp, const Prefix& prefix,
                                VpRoute route) {
  tables_[vp].insert(prefix, std::move(route));
}

}  // namespace rrr::bgp
