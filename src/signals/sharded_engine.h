// ShardedStalenessEngine: the staleness engine — the public API of the
// paper's system, scaled horizontally by partitioning the corpus over N
// EngineShards.
//
// It wires the six monitors to their data feeds, maintains the corpus's
// freshness state, applies the calibration/scheduling policy of §4.3.1 and
// the revocation rule of §4.3.2. Contract: feed all BGP records and public
// traceroutes belonging to a window before calling advance_to() past that
// window's end.
//
// Each pair is routed to shard hash(pair) % N by a platform-stable hash, so
// a shard owns a disjoint slice of the corpus plus the BGP monitors whose
// entries are per-pair (AS-path, community, burst). One BGP/public-trace
// stream fans out to all shards; per-window shard batches merge at the
// boundary in a canonical order, making the signal stream bit-identical for
// any (shards, threads) combination — the same determinism contract
// DESIGN.md states for threads (see "Sharded engine").
//
// Exactly one copy of the BGP table state exists regardless of shard count:
// the facade owns a bgp::EpochTableView whose *published* epoch is the
// immutable start-of-window snapshot every shard and monitor reads (through
// the shared BgpContext). The window's records are absorbed once — into the
// *shadow* buffer, by a pool task that overlaps phases A and B when
// EngineParams::pipeline_absorb is on — and the epoch flips with one atomic
// pointer swap in the serial section before the canonical merge. Readers
// therefore never lock and never observe a half-applied batch; see
// bgp/epoch_table.h for the buffer protocol and DESIGN.md §10 for the
// schedule.
//
// Cross-pair state shared *between* pairs — the potential-id space,
// calibration and community-reputation tallies, the global signal
// cooldown, the refresh planner's RNG, and the trace-driven monitors
// (subpath/border series are deduplicated across pairs; IXP membership is
// learned globally) — stays in the facade with one instance, because
// per-shard copies would make the output depend on the partition. Shards borrow it read-only
// during parallel phases; all mutation happens in facade-serial sections
// (watch, refresh, registration), which is what keeps the sharded close
// TSAN-clean without locks.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "bgp/epoch_table.h"
#include "runtime/task_group.h"
#include "runtime/thread_pool.h"
#include "signals/asreldb.h"
#include "signals/engine.h"

namespace rrr::signals {

class ShardedStalenessEngine {
 public:
  // `params.shards` fixes the partition count (clamped to >= 1) and
  // `params.threads` the pool size shared by every shard and monitor.
  ShardedStalenessEngine(const EngineParams& params,
                         tracemap::ProcessingContext& processing,
                         std::vector<bgp::VantagePoint> vps,
                         std::vector<topo::AsIndex> vp_as,
                         std::vector<topo::CityId> vp_city,
                         std::set<Asn> ixp_route_server_asns, AsRelDb rels,
                         std::map<topo::IxpId, std::set<Asn>> ixp_members);

  // Stable pair -> shard routing (mix64-based, not std::hash: the partition
  // must not vary across platforms or runs).
  std::size_t shard_of(const tr::PairKey& pair) const;

  // --- corpus management ---
  void watch(const tr::Probe& probe, const tr::Traceroute& trace);
  std::size_t corpus_size() const;

  // --- data feeds ---
  void on_bgp_record(const bgp::BgpRecord& record);
  void on_public_trace(const tr::Traceroute& trace);

  // Closes every window ending at or before `t`; returns the staleness
  // prediction signals generated in them, merged across shards in
  // canonical (technique-close-rank, window, potential, pair) order.
  std::vector<StalenessSignal> advance_to(TimePoint t);

  // --- refresh cycle (§4.3.1) ---
  // Merges every shard's candidates and plans under one global budget with
  // one calibration store and one RNG stream, so the chosen set is
  // independent of the partition.
  std::vector<tr::PairKey> plan_refreshes(int budget);
  RefreshOutcome apply_refresh(const tr::Probe& probe,
                               const tr::Traceroute& fresh);

  // --- queries ---
  tr::Freshness freshness(const tr::PairKey& pair) const;
  // Stale pairs across all shards, sorted by pair key.
  std::vector<tr::PairKey> stale_pairs() const;
  // Per-pair verdict state merged across shards, sorted by pair key. Pure
  // read (no RNG draw, no mutation) — the serving layer materializes its
  // snapshots from this at every window boundary.
  std::vector<PairStateView> pair_states() const;
  // Publication counter of the epoch-flipped BGP table: increments once per
  // absorbed window, captured into ServingSnapshot::table_epoch.
  std::uint64_t table_epoch() const { return table_.epoch(); }
  const Calibration& calibration() const { return calibration_; }
  const CommunityReputation& community_reputation() const {
    return reputation_;
  }
  const tracemap::ProcessedTrace* processed_of(const tr::PairKey& pair) const;
  const SubpathMonitor& subpath_monitor() const { return subpath_; }
  // Suppression counters summed over every shard's community monitor.
  CommunityMonitor::Stats community_stats() const;

  // --- checkpoint support ---
  // Serializes the facade's single cross-pair instances followed by every
  // shard's local slice. The shard count is stored and verified on load:
  // a snapshot written at N shards restores only into an engine built with
  // N shards (the partition fixes which shard holds which pair — but the
  // merged signal stream is partition-invariant, so the determinism grid
  // may still compare runs across shard counts by their outputs).
  void save_state(store::Encoder& enc) const;
  void load_state(store::Decoder& dec);

 private:
  void close_one_window(std::int64_t window,
                        std::vector<StalenessSignal>& out);

  EngineParams params_;
  WindowClock clock_;
  tracemap::ProcessingContext& processing_;
  // The engine's one random stream, drawn only by the serial refresh
  // planner (plan_refreshes); shards hold no RNG.
  Rng rng_;
  // Facade-owned instrument bundles (all-null when params_.metrics is null);
  // declared before the shards, which copy obs_ at construction.
  EngineObs obs_;
  runtime::PoolObs pool_obs_;
  // Per-shard phase-A close spans, labeled {shard="i"}; empty when
  // telemetry is off.
  std::vector<obs::Histogram*> shard_close_us_;
  // Shared worker pool (null when threads <= 1); declared before everything
  // that borrows it.
  std::unique_ptr<runtime::ThreadPool> pool_;

  // The single copies of all cross-pair state (see file comment).
  std::vector<bgp::VantagePoint> vps_;
  // Table-canonical path memo used at the serial feed boundary to stamp
  // BgpRecord::canonical_path (the absorb task then never interns on a
  // pool thread). Declared before `table_`, which consumes the IXP set.
  bgp::PathCanonicalizer feed_canon_;
  // Epoch-flipped table: shards/monitors read the published buffer during
  // the parallel phases while the absorb writer fills the shadow.
  bgp::EpochTableView table_;
  BgpContext context_;
  std::vector<bgp::BgpRecord> pending_records_;
  // Dispatch-path prepend-collapse memo and the epoch arena backing the
  // per-close dispatch batch; serial close path only, arena reset per close.
  bgp::PathCanonicalizer collapse_canon_;
  runtime::Arena close_arena_;
  PotentialIndex index_;
  Calibration calibration_;
  CommunityReputation reputation_;
  AsRelDb rels_;
  SubpathMonitor subpath_;
  BorderMonitor border_;
  IxpMonitor ixp_;
  // Feed-health tracker (one instance: delivery is counted at the facade's
  // serial feed boundary; shards only consult it). Null when tracking is
  // off. Declared before the shards, which borrow it at construction.
  std::unique_ptr<FeedHealthTracker> health_;

  std::vector<std::unique_ptr<EngineShard>> shards_;
  // Global signal cooldown: a potential shared by pairs in different shards
  // must still fire at most once per cooldown window span.
  std::map<PotentialId, std::int64_t> last_fired_;
  std::int64_t next_window_ = 0;  // first window not yet closed
};

}  // namespace rrr::signals
