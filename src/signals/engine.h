// EngineShard: one corpus partition of the staleness engine.
//
// The engine of the paper (§4.3) — one calibration store, one refresh
// scheduler, one revocation rule over the corpus — is the
// ShardedStalenessEngine facade (sharded_engine.h). It owns every piece of
// cross-pair state and drives the feed/close/refresh cycle; it partitions
// the corpus over N EngineShards and lends each one read/write borrows of
// that state (EngineSharedState). A shard keeps only per-pair state: its
// slice of the corpus with each pair's freshness and active signals, plus
// the BGP monitors, whose entries are per-pair. It exposes the hooks the
// facade calls instead of closing windows on its own.
//
// This header also holds the parameters shared by the whole engine and the
// two window-close helpers the facade runs on its serial path.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "runtime/thread_pool.h"

#include "obs/trace.h"

#include "bgp/record.h"
#include "bgp/table_view.h"
#include "signals/aspath_monitor.h"
#include "signals/bgp_context.h"
#include "signals/border_monitor.h"
#include "signals/burst_monitor.h"
#include "signals/calibration.h"
#include "signals/community_monitor.h"
#include "signals/engine_obs.h"
#include "signals/feed_health.h"
#include "signals/ixp_monitor.h"
#include "signals/monitor.h"
#include "signals/subpath_monitor.h"
#include "tracemap/pipeline.h"
#include "traceroute/traceroute.h"

namespace rrr::signals {

struct EngineParams {
  TimePoint t0;
  std::int64_t window_seconds = kBaseWindowSeconds;
  std::int64_t calibration_windows = 30;
  std::int64_t revocation_check_interval = 8;  // in windows
  // A potential signal that keeps flagging a persistent change re-fires at
  // most once per cooldown (the pair is already marked stale; repeats only
  // add noise to downstream consumers).
  std::int64_t signal_cooldown_windows = 8;
  SubpathParams subpath;
  BorderMonitorParams border;
  std::uint64_t seed = 31;
  // Parallelism degree for window closing (per-series work is sharded over
  // a thread pool). 1 = fully serial; results are identical either way —
  // shard buffers merge in a canonical order, see DESIGN.md "Runtime &
  // determinism".
  int threads = 1;
  // Corpus partitions of the ShardedStalenessEngine. Purely a throughput
  // knob: the signal stream is identical for any (shards, threads)
  // combination.
  int shards = 1;
  // Overlap the table-absorb step with the monitor closes: the just-closed
  // window's records are applied to the epoch table's shadow buffer by a
  // pool task while the monitors still read the published start-of-window
  // epoch, and the flip happens after both are joined. Off recovers the
  // exact serial schedule (absorb inline between the BGP and trace monitor
  // closes). The signal stream and semantic telemetry are bit-identical
  // either way — see DESIGN.md §10 "Epoch pipeline".
  bool pipeline_absorb = true;
  // Telemetry sink; null (the default) disables all instrumentation — every
  // update site degrades to one branch on a null pointer. Must outlive the
  // engine.
  obs::MetricsRegistry* metrics = nullptr;
  // Trace recorder for flight-recorder spans (obs/trace.h); null disables
  // the trace path the same way — every span site is one branch on a null
  // pointer. Must outlive the engine.
  obs::TraceRecorder* tracer = nullptr;
  // Feed-health quarantine (feed_health.h). Disabled by default: the
  // tracker is not even constructed and every consult site degrades to one
  // branch on a null pointer.
  FeedHealthParams feed_health;
};

// One pair's verdict state as read out for the serving layer (src/serve).
// A value copy of the corpus entry's dynamic fields — holders never point
// back into the engine.
struct PairStateView {
  tr::PairKey pair;
  tr::Freshness freshness = tr::Freshness::kFresh;
  std::int64_t watched_window = 0;
  std::uint32_t active_signals = 0;  // fired-and-unrevoked signals
};

// What a refresh revealed, returned to callers for their own accounting.
struct RefreshOutcome {
  tr::PairKey pair;
  tracemap::ChangeKind change = tracemap::ChangeKind::kNone;
  bool was_flagged_stale = false;
};

// Cross-pair state the ShardedStalenessEngine lends to its shards. Everything
// here has exactly one instance regardless of shard count: one BGP table
// (shards read the immutable start-of-window snapshot through `context`),
// one potential-id space, one calibration/reputation store, and one of each
// trace-driven monitor (their series are deduplicated *across* pairs, so
// per-shard copies would make the signal stream depend on the partition).
struct EngineSharedState {
  const BgpContext* context = nullptr;
  runtime::ThreadPool* pool = nullptr;  // null = serial
  PotentialIndex* index = nullptr;
  Calibration* calibration = nullptr;
  CommunityReputation* reputation = nullptr;
  SubpathMonitor* subpath = nullptr;
  BorderMonitor* border = nullptr;
  IxpMonitor* ixp = nullptr;
  // Facade-owned instrument bundle; null when the facade has no registry.
  // Shards copy it so all shards update the same shared instruments.
  const EngineObs* obs = nullptr;
  // Facade-owned feed-health tracker, read-only during shard closes; null
  // when health tracking is off.
  const FeedHealthTracker* health = nullptr;
};

// Builds the monitor-facing view of the first `count` records (normalized
// path, duplicate status) against the standing start-of-window `table`. The
// returned views point into `records`, which must outlive them. `collapse`
// is the caller's single-writer prepend-collapse memo (most updates repeat
// a path already normalized this run), and the batch itself is bump-
// allocated from `arena` — the caller resets it once the close is over.
DispatchedBatch dispatch_against_table(
    const std::vector<bgp::BgpRecord>& records, std::size_t count,
    const bgp::VpTableView& table, bgp::PathCanonicalizer& collapse,
    runtime::Arena& arena);

// Moves every record belonging to a window <= `window` to the front of
// `pending` (stably), sorts that prefix by time, and returns its length.
// Records for future windows keep their arrival order behind the cut and
// are *not* re-sorted — closing W must cost O(|window W| log |window W|),
// not O(|backlog| log |backlog|) as the old whole-buffer sort did. The
// (time, arrival-order) tie-break is identical to sorting the whole buffer,
// so the dispatched record order (and thus the signal stream) is unchanged.
std::size_t cut_window_prefix(std::vector<bgp::BgpRecord>& pending,
                              const WindowClock& clock, std::int64_t window);

class EngineShard {
 public:
  // Every pointer in `shared` except `pool`, `obs` and `health` must be
  // non-null and outlive the shard.
  EngineShard(tracemap::ProcessingContext& processing, WindowClock clock,
              const EngineSharedState& shared);

  // --- corpus management ---
  void watch(const tr::Probe& probe, const tr::Traceroute& trace);
  std::size_t corpus_size() const { return corpus_.size(); }
  bool has_pair(const tr::PairKey& pair) const {
    return corpus_.contains(pair);
  }

  // --- window close (driven by the facade) ---
  // Dispatches one window's records to this shard's BGP monitors (records
  // are read-only; the shared table still holds the start-of-window state).
  void dispatch_window_records(const DispatchedBatch& records,
                               std::int64_t window);
  // Closes the shard's BGP monitors, appending their raw (unregistered)
  // signals to `into`; the facade merges and registers across shards.
  void collect_bgp_close(std::vector<StalenessSignal>& into,
                         std::int64_t window, TimePoint window_end);
  // Applies one registered signal's state change (freshness + active set).
  // The facade has already performed the corpus-presence and cooldown
  // checks.
  void mark_stale(const StalenessSignal& signal);
  // §4.3.2 sweep over this shard's corpus.
  void run_revocation();

  // --- refresh cycle (§4.3.1) ---
  // Adds this shard's refresh candidates (pairs with firing signals) to the
  // facade's merged candidate map.
  void collect_refresh_candidates(
      std::map<tr::PairKey, RefreshScheduler::PairState>& into) const;
  // Grades related potential signals against the new measurement, updates
  // calibration and community reputation, and re-registers the pair.
  RefreshOutcome apply_refresh(const tr::Probe& probe,
                               const tr::Traceroute& fresh);

  // --- queries ---
  tr::Freshness freshness(const tr::PairKey& pair) const;
  std::vector<tr::PairKey> stale_pairs() const;
  // Appends this shard's per-pair verdict state (corpus order, i.e. sorted
  // by pair). Pure read — no state change — so the serving layer can call
  // it every window without perturbing the signal stream.
  void collect_pair_states(std::vector<PairStateView>& into) const;
  const tracemap::ProcessedTrace* processed_of(const tr::PairKey& pair) const;
  const CommunityMonitor& community_monitor() const { return *community_; }

  // --- checkpoint support ---
  // The shard's dynamic state: its corpus slice with per-pair freshness /
  // active-signal state, and its per-pair BGP monitors. Configuration and
  // the borrowed cross-pair state are not stored — the facade saves its
  // single instances itself and rebuilds the shard before loading.
  void save_shard_state(store::Encoder& enc) const;
  void load_shard_state(store::Decoder& dec);

 private:
  struct PairState {
    CorpusView view;
    tr::Freshness freshness = tr::Freshness::kFresh;
    std::int64_t watched_window = 0;
    // Fired-and-unrevoked signals, keyed by potential.
    std::map<PotentialId, ActiveSignal> active;
  };

  bool portion_changed(const tracemap::ProcessedTrace& before,
                       const tracemap::ProcessedTrace& after,
                       std::size_t border_index) const;
  tr::Freshness initial_freshness(const tr::PairKey& pair,
                                  const CorpusView& view) const;
  const Monitor* monitor_for(Technique technique) const;

  WindowClock clock_;
  tracemap::ProcessingContext& processing_;
  // Copy of the facade's instrument bundle; all-null when telemetry is off.
  EngineObs obs_;

  // Cross-pair state borrowed from the facade (see EngineSharedState).
  PotentialIndex* index_;
  Calibration* calibration_;
  CommunityReputation* reputation_;
  SubpathMonitor* subpath_;
  BorderMonitor* border_;
  IxpMonitor* ixp_;
  // Read-only during shard closes; null when health tracking is off.
  const FeedHealthTracker* health_;

  // BGP monitors hold per-pair entries only, so every shard owns its own.
  std::unique_ptr<AsPathMonitor> aspath_;
  std::unique_ptr<CommunityMonitor> community_;
  std::unique_ptr<BurstMonitor> burst_;

  std::map<tr::PairKey, PairState> corpus_;
};

}  // namespace rrr::signals
