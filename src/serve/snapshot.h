// ServingSnapshot: the read-optimized, immutable view the staleness query
// service publishes at every window boundary (DESIGN.md §15).
//
// The paper's end goal is operational — tell an operator which traceroutes
// are stale *right now* and what to refresh next — so the serving layer
// materializes exactly three things per closed window:
//
//   * a per-pair verdict (freshness, stale-since window, active signals),
//   * a bounded per-pair signal history (the evidence trail), and
//   * a refresh-priority queue ranking the stale pairs stalest-first.
//
// Publication is a release pointer swap: the driver thread builds a fresh
// snapshot in the serial section after a window close and publishes it with
// one release store; HTTP readers take one acquire-load and then work
// entirely on the immutable object. Readers are asynchronous (they can hold
// a snapshot across any number of publications), so the pointer is a
// std::shared_ptr under std::atomic — reclamation happens when the last
// reader drops its reference, and the window close never waits on a reader.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "netbase/time.h"
#include "signals/signal.h"
#include "traceroute/corpus.h"

namespace rrr::serve {

// One signal occurrence retained in a pair's bounded history ring.
struct SignalEvent {
  std::int64_t window = 0;        // base-window index that emitted it
  std::int64_t time_seconds = 0;  // end of the generation window
  signals::Technique technique = signals::Technique::kBgpAsPath;
  // Border index the signal implicates; signals::kWholePath for AS-level
  // claims (rendered as -1 in JSON).
  std::size_t border_index = signals::kWholePath;
  std::int64_t span_seconds = 0;  // generation-window span
};

// Per-pair staleness verdict as of the snapshot's window boundary.
struct PairVerdict {
  tr::PairKey pair;
  tr::Freshness freshness = tr::Freshness::kFresh;
  std::int64_t watched_window = 0;  // window the current measurement joined
  std::uint32_t active_signals = 0; // fired-and-unrevoked signals
  // Window of the first signal of the current stale episode; -1 while the
  // pair is not stale. Drives the refresh-queue ranking.
  std::int64_t stale_since_window = -1;
  std::uint64_t signals_total = 0;  // lifetime count (history is bounded)
  std::vector<SignalEvent> history; // oldest -> newest, at most history_cap
};

// The immutable view. Readers never mutate one; the materializer builds a
// new instance per published window.
struct ServingSnapshot {
  // Publication sequence number: 0 for the pre-first-window empty
  // snapshot, then +1 per published window boundary.
  std::uint64_t version = 0;
  std::int64_t window = -1;        // last closed window; -1 before any
  std::int64_t time_seconds = 0;   // end of that window
  std::uint64_t table_epoch = 0;   // windows absorbed into the BGP table
  std::size_t history_cap = 0;
  std::size_t fresh = 0;
  std::size_t stale = 0;
  std::size_t unknown = 0;
  std::vector<PairVerdict> pairs;  // sorted by pair key
  // Indices into `pairs`, ranked by (stale_since asc, active_signals desc,
  // signals_total desc, pair asc): the refresh-priority queue.
  std::vector<std::uint32_t> refresh_queue;

  // Binary search over the sorted `pairs`; null when absent.
  const PairVerdict* find(const tr::PairKey& pair) const;
};

using SnapshotPtr = std::shared_ptr<const ServingSnapshot>;

// Release-store / acquire-load publication point. Starts out holding an
// empty snapshot (version 0), so readers always get a valid document.
class SnapshotPublisher {
 public:
  SnapshotPublisher();

  // Serial-section only (the driver's window boundary): one release store.
  void publish(SnapshotPtr snapshot);

  // Any thread, any time: one acquire load. The returned snapshot stays
  // valid for as long as the caller holds it, across later publishes.
  SnapshotPtr read() const;

 private:
  std::atomic<SnapshotPtr> current_;
};

// Label slugs shared by the JSON bodies and docs/API.md.
const char* freshness_label(tr::Freshness freshness);

}  // namespace rrr::serve
