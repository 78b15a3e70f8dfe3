// Unresponsive-hop patching (Appendix A): for a '*' flanked by responsive
// hops, if every observed traceroute with that (previous, next) pair shows a
// single responsive hop between them, fill the star with it. Remaining stars
// are wildcards that can never indicate a change.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netbase/flat_map.h"
#include "netbase/ipv4.h"
#include "store/codec.h"
#include "traceroute/traceroute.h"

namespace rrr::tracemap {

class HopPatcher {
 public:
  // Learns (prev, middle, next) triples from a measurement.
  void observe(const tr::Traceroute& trace);

  // Returns a copy of `trace` with uniquely-determined stars filled in.
  tr::Traceroute patch(const tr::Traceroute& trace) const;

  // The address hop `i` of `hops` shows after patching: its own, or for a
  // star between two responded hops, their unique middle if there is one.
  // A star's neighbours are never themselves patched stars, so hops can be
  // patched independently, in any order.
  std::optional<Ipv4> patched_ip(const std::vector<tr::Hop>& hops,
                                 std::size_t i) const {
    if (hops[i].responded() || i == 0 || i + 1 >= hops.size() ||
        !hops[i - 1].responded() || !hops[i + 1].responded()) {
      return hops[i].ip;
    }
    return unique_middle(*hops[i - 1].ip, *hops[i + 1].ip);
  }

  // The unique middle hop for (prev, next), when exactly one was observed.
  std::optional<Ipv4> unique_middle(Ipv4 prev, Ipv4 next) const {
    const Middle* middle = middles_.find(key_of(prev, next));
    if (middle == nullptr || middle->ambiguous) return std::nullopt;
    return middle->first;
  }

  // Distinct (prev, next) pairs observed.
  std::size_t triple_count() const { return middles_.size(); }

  // Checkpoint support: entries sorted by (prev, next), each
  // {prev u32, next u32, first middle u32, ambiguous u8}, so the bytes
  // depend only on what was observed, never on the table's slot order.
  void save_state(store::Encoder& enc) const;
  // Rejects as kCorrupt an ambiguous byte other than 0/1 and keys that are
  // not strictly increasing (unsorted or duplicated).
  void load_state(store::Decoder& dec);

 private:
  // Only "exactly one middle seen" matters, and a set of observed middles
  // has size one exactly when every observation equals the first: keep the
  // first and whether any other was ever seen.
  struct Middle {
    Ipv4 first;
    bool ambiguous = false;
  };
  static std::uint64_t key_of(Ipv4 prev, Ipv4 next) {
    return (std::uint64_t{prev.value()} << 32) | next.value();
  }

  FlatMap<std::uint64_t, Middle> middles_;
};

}  // namespace rrr::tracemap
