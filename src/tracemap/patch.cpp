#include "tracemap/patch.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace rrr::tracemap {

void HopPatcher::observe(const tr::Traceroute& trace) {
  const auto& hops = trace.hops;
  for (std::size_t i = 1; i + 1 < hops.size(); ++i) {
    if (hops[i - 1].responded() && hops[i].responded() &&
        hops[i + 1].responded()) {
      auto [middle, inserted] = middles_.try_emplace(
          key_of(*hops[i - 1].ip, *hops[i + 1].ip), Middle{*hops[i].ip});
      if (!inserted && middle->first != *hops[i].ip) middle->ambiguous = true;
    }
  }
}

tr::Traceroute HopPatcher::patch(const tr::Traceroute& trace) const {
  tr::Traceroute patched = trace;
  auto& hops = patched.hops;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (hops[i].responded()) continue;
    if (auto middle = patched_ip(trace.hops, i)) {
      hops[i].ip = middle;
      // Interpolated latency: midway between the neighbors.
      hops[i].rtt_ms = (hops[i - 1].rtt_ms + hops[i + 1].rtt_ms) / 2.0;
    }
  }
  return patched;
}

void HopPatcher::save_state(store::Encoder& enc) const {
  std::vector<std::pair<std::uint64_t, Middle>> entries;
  entries.reserve(middles_.size());
  middles_.for_each([&entries](std::uint64_t key, const Middle& middle) {
    entries.emplace_back(key, middle);
  });
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  enc.u64(entries.size());
  for (const auto& [key, middle] : entries) {
    enc.u32(static_cast<std::uint32_t>(key >> 32));
    enc.u32(static_cast<std::uint32_t>(key));
    store::put(enc, middle.first);
    enc.boolean(middle.ambiguous);
  }
}

void HopPatcher::load_state(store::Decoder& dec) {
  middles_.clear();
  const std::uint64_t n = dec.count(13);  // three addresses and a flag
  middles_.reserve(n);
  std::optional<std::uint64_t> last_key;
  for (std::uint64_t i = 0; i < n; ++i) {
    Ipv4 prev = store::get_ipv4(dec);
    Ipv4 next = store::get_ipv4(dec);
    const std::uint64_t key = key_of(prev, next);
    if (last_key && key <= *last_key) {
      throw store::StoreError(store::StoreError::Kind::kCorrupt,
                              "patcher entries not strictly sorted");
    }
    last_key = key;
    Middle middle{store::get_ipv4(dec)};
    const std::uint8_t ambiguous = dec.u8();
    if (ambiguous > 1) {
      throw store::StoreError(store::StoreError::Kind::kCorrupt,
                              "patcher ambiguous flag is not 0 or 1");
    }
    middle.ambiguous = ambiguous == 1;
    middles_.try_emplace(key, middle);
  }
}

}  // namespace rrr::tracemap
