// Binary checkpoint codec for BGP records. The io library's text format
// (io/serialize.h) is the archive/interchange representation; this one is
// the state store's internal framing payload, used for the engine's
// pending-record backlog. Field order is fixed — see store/serial.h for
// the determinism rationale.
#pragma once

#include "bgp/record.h"
#include "store/codec.h"

namespace rrr::bgp {

// Interned attributes are resolved to content on write and re-interned on
// read, so the byte format is identical to the pre-interning one and never
// leaks intern-id values (which are free to differ across runs).
// Smallest encoded record: the fixed-width fields plus the three length
// prefixes (collector, path, communities) of an empty record.
inline constexpr std::size_t kMinRecordBytes = 8 + 1 + 4 + 4 + 4 + 8 + 5 + 8 + 8;

inline void put_record(store::Encoder& enc, const BgpRecord& record) {
  store::put(enc, record.time);
  enc.u8(static_cast<std::uint8_t>(record.type));
  enc.u32(record.vp);
  store::put(enc, record.peer_asn);
  store::put(enc, record.peer_ip);
  enc.str(record.collector.str());
  store::put(enc, record.prefix);
  store::put(enc, record.as_path);
  store::put(enc, record.communities);
}

inline BgpRecord get_record(store::Decoder& dec) {
  BgpRecord record;
  record.time = store::get_time(dec);
  record.type = dec.enumeration(RecordType::kWithdrawal);
  record.vp = dec.u32();
  record.peer_asn = store::get_asn(dec);
  record.peer_ip = store::get_ipv4(dec);
  record.collector = dec.str();
  record.prefix = store::get_prefix(dec);
  record.as_path = store::get_as_path(dec);
  record.communities = store::get_community_set(dec);
  return record;
}

}  // namespace rrr::bgp
