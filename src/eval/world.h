// World: one fully-wired experiment instance — topology, control plane,
// BGP feed, measurement platform, processing pipeline, staleness engine,
// and ground truth — plus the timeline runner every bench builds on.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "bgp/feed.h"
#include "eval/ground_truth.h"
#include "fault/injector.h"
#include "fault/io_plan.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "routing/control_plane.h"
#include "routing/events.h"
#include "signals/sharded_engine.h"
#include "store/checkpoint.h"
#include "store/io_env.h"
#include "topology/builder.h"
#include "tracemap/pipeline.h"
#include "traceroute/platform.h"

namespace rrr::serve {
class StalenessService;
}  // namespace rrr::serve

namespace rrr::eval {

struct WorldParams {
  topo::TopologyParams topology;
  routing::DynamicsParams dynamics;
  bgp::FeedParams feed;
  tr::ProberParams prober;
  tr::PlatformParams platform;
  tracemap::PipelineParams pipeline;
  signals::SubpathParams subpath;
  signals::BorderMonitorParams border;

  double peeringdb_completeness = 0.9;

  // Corpus shape (retrospective evaluation, §5.1): probes split into
  // P_public / P_corpus; anchors are the destinations.
  int corpus_pair_target = 2000;   // (probe, anchor) pairs monitored
  int corpus_dest_count = 40;      // anchors used as destinations

  // Public traceroute feed.
  int public_dest_count = 120;
  int public_traces_per_window = 200;

  int days = 30;
  int warmup_days = 2;  // BGP collection starts before corpus init (§5)
  // Retrospective mode (§5.1): the anchoring mesh remeasures every pair
  // every 900 s, so the engine gets refresh feedback (and the paper's
  // calibration, Appendix B) continuously at no modeled probing cost. We
  // model it every `recalibration_interval_windows` base windows (0 = off);
  // grading must be frequent relative to event durations or correct
  // signals about since-reverted changes are graded as false positives.
  int recalibration_interval_windows = 8;
  std::uint64_t seed = 42;
  // Parallelism degree of the staleness engine's window closing. Purely a
  // throughput knob: signal output is identical at any value (the engine's
  // determinism contract, DESIGN.md "Runtime & determinism").
  int engine_threads = 1;
  // Corpus partition count of the sharded engine (DESIGN.md "Sharded
  // engine"). Like engine_threads, a pure throughput knob: the signal
  // stream is bit-identical for any (shards, threads) combination.
  int engine_shards = 1;
  // Inert: nothing reads this field. The engine has one absorb schedule
  // (DESIGN.md §10 "Table absorb"); the field stays declared only because
  // e2ebench/workloads.cpp still assigns it, and goes when that benchmark
  // drops the assignment.
  bool pipeline_absorb = true;
  // Enables the telemetry registry + per-window stats series (DESIGN.md
  // "Observability"). The RRR_STATS environment variable force-enables it
  // regardless of this flag; when off, the engine's instrumentation sites
  // degrade to null-pointer branches.
  bool telemetry = false;
  // Enables the flight recorder (DESIGN.md §13): structured trace spans of
  // the window-close machinery, drained at window boundaries and exported
  // via trace_json(). RRR_TRACE force-enables it the same way RRR_STATS
  // force-enables telemetry. Runtime-domain only: the semantic snapshot is
  // byte-identical with tracing on or off.
  bool trace = false;
  obs::TraceParams trace_params;
  // Slow-window watchdog (obs/watchdog.h): snapshots the flight recorder
  // and metrics when a window close exceeds the EWMA-derived deadline.
  // Off by default (watchdog.enabled).
  obs::WatchdogParams watchdog;
  // Fault plan applied at the feed boundary (DESIGN.md "Fault model &
  // degradation"). Inert by default; the injector is only constructed when
  // fault_plan.enabled().
  fault::FaultPlan fault_plan;
  // Feed-health quarantine parameters, forwarded to the engine. Off by
  // default (the tracker is not constructed).
  signals::FeedHealthParams feed_health;

  // --- durable checkpoint/resume (DESIGN.md §11) ---
  // Directory receiving periodic snapshots plus the exogenous-op WAL;
  // empty = checkpointing off.
  std::string checkpoint_dir;
  // Snapshot cadence in closed windows (clamped to >= 1). Windows between
  // snapshots are covered by the WAL: resume restores the newest snapshot
  // at or before the target and replays the tail live.
  int checkpoint_every = 1;
  // Checkpoint directory to resume from; empty = cold start. Construction
  // fast-forwards the world to `resume_window` (or, when -1, the furthest
  // state the directory can reconstruct) before the first run_until call.
  // The snapshot must have been written under the same world parameters
  // (fingerprint-checked); shard count must match too (the engine's own
  // check). Refresh-cycle ops are only replayable when they went through
  // World::plan_refreshes / World::refresh_pair rather than the engine
  // directly.
  std::string resume_from;
  std::int64_t resume_window = -1;

  // --- crash-fault tolerance (DESIGN.md §14) ---
  // Storage fault plan applied to every physical store IO (snapshot and
  // WAL reads/writes). Inert by default; like fault_plan it is a
  // robustness knob, deliberately excluded from the params fingerprint —
  // injected storage faults must never change the semantic timeline.
  fault::IoFaultPlan io_fault_plan;
  // Retry policy for transient-classified store IO errors. The default
  // (max_attempts = 1) disables retrying.
  store::RetryPolicy io_retry;
  // Run under the self-healing supervisor (eval/supervisor.h): a failed
  // window close scrubs the checkpoint directory, restores the last good
  // state, and replays. Read by run_supervised / the benches, not by
  // World itself.
  bool supervise = false;
};

class World {
 public:
  explicit World(const WorldParams& params);

  // --- components ---
  const WorldParams& params() const { return params_; }
  topo::Topology& topology() { return topology_; }
  routing::ControlPlane& control_plane() { return *cp_; }
  bgp::FeedSimulator& feed() { return *feed_; }
  tr::Platform& platform() { return *platform_; }
  tracemap::ProcessingContext& processing() { return *processing_; }
  signals::ShardedStalenessEngine& engine() { return *engine_; }
  GroundTruth& ground_truth() { return *ground_truth_; }
  Rng& rng() { return rng_; }
  // Null when WorldParams::fault_plan is inert.
  const fault::FaultInjector* fault_injector() const { return fault_.get(); }
  // Store IO context (retries + fault injection). Null unless
  // checkpointing or resume is configured.
  store::IoContext* io_context() { return io_.get(); }
  // Null when WorldParams::io_fault_plan is inert.
  const fault::IoFaultInjector* io_fault_injector() const {
    return io_fault_.get();
  }

  // --- timeline ---
  TimePoint start() const { return TimePoint(0); }
  TimePoint corpus_t0() const {
    return start() + params_.warmup_days * kSecondsPerDay;
  }
  TimePoint end() const {
    return corpus_t0() + params_.days * kSecondsPerDay;
  }

  const std::vector<tr::ProbeId>& corpus_probes() const {
    return corpus_probes_;
  }
  const std::vector<tr::ProbeId>& public_probes() const {
    return public_probes_;
  }
  const std::vector<Ipv4>& corpus_dests() const { return corpus_dests_; }
  const std::vector<Ipv4>& public_dests() const { return public_dests_; }

  // Issues the t0 traceroutes for the monitored (probe, anchor) pairs and
  // registers them with the engine and ground truth. Call after running the
  // warmup (so the BGP table view is populated). Returns the pair count.
  // Idempotent: a world resumed past corpus init returns the existing
  // count without re-issuing anything.
  std::size_t initialize_corpus();
  bool corpus_initialized() const { return corpus_initialized_; }

  // Issues (and tracks) one corpus refresh measurement right now.
  tr::Traceroute issue_corpus_traceroute(const tr::PairKey& pair,
                                         TimePoint t);

  // --- WAL-logged refresh cycle ---
  // Checkpoint-aware wrappers over the engine's refresh cycle: each call is
  // appended to the checkpoint WAL (when checkpointing is on) with the
  // window clock and replay point at which it ran, so a resumed run
  // re-applies it at exactly the same place in the timeline. Drivers that
  // want resumability must go through these, not world.engine() directly.
  std::vector<tr::PairKey> plan_refreshes(int budget);
  signals::RefreshOutcome refresh_pair(const tr::PairKey& pair, TimePoint t);

  // Remeasures every corpus pair and feeds the outcomes to the engine's
  // calibration (the daily_recalibration step).
  void recalibrate_all(TimePoint t);
  // Times at which recalibrate_all ran (for the staleness oracle).
  const std::vector<TimePoint>& recalibration_times() const {
    return recalibration_times_;
  }

  struct Hooks {
    // Signals generated in a closed window.
    std::function<void(std::int64_t window, TimePoint window_end,
                       std::vector<signals::StalenessSignal>&&)>
        on_signals;
    // End of a simulated day (relative to world start).
    std::function<void(int day_index, TimePoint day_end)> on_day;
  };

  // Attaches (or detaches, with null) the staleness query service: after
  // every closed window — in the serial section, before hooks.on_signals —
  // the world hands the service the engine's per-pair state and the
  // window's signals so it can publish a fresh ServingSnapshot. Borrowed;
  // must outlive every subsequent run_until call. The service only reads,
  // so attaching it never changes the semantic timeline (pinned by
  // tests/serve_test.cpp).
  void attach_serving(serve::StalenessService* service) { serving_ = service; }
  serve::StalenessService* serving() const { return serving_; }

  // Advances the world to `t`: applies routing events and public
  // measurements in time order, feeds the engine, closes windows.
  void run_until(TimePoint t, const Hooks& hooks = {});

  // Convenience: warmup + corpus init + full run.
  void run_all(const Hooks& hooks = {});

  std::int64_t window_seconds() const { return kBaseWindowSeconds; }
  // Number of fully closed base windows (the checkpoint clock).
  std::int64_t completed_windows() const {
    return (now_ - start()) / window_seconds();
  }

  // Digest of the parameters that shape the simulated timeline; snapshots
  // written under a different fingerprint must not feed a resume. The
  // supervisor passes this to RecoveryManager::scrub.
  static std::uint64_t fingerprint(const WorldParams& params);

  // --- telemetry (null/empty unless WorldParams::telemetry or RRR_STATS) ---
  const obs::MetricsRegistry* metrics() const { return metrics_.get(); }
  // Mutable registry access for the supervisor's rrr_recovery_* counters
  // (null when telemetry is off).
  obs::MetricsRegistry* metrics_mutable() { return metrics_.get(); }
  // Full cumulative snapshot as a JSON metric array.
  std::string stats_json() const {
    return metrics_ ? obs::to_json(metrics_->snapshot()) : "[]";
  }
  // Same registry in Prometheus text exposition format.
  std::string stats_prometheus() const {
    return metrics_ ? obs::to_prometheus(metrics_->snapshot()) : "";
  }
  // Semantic-domain-only snapshot: byte-identical across any
  // (shards, threads) grid point (the determinism contract).
  std::string semantic_stats_json() const {
    return metrics_ ? obs::to_json(metrics_->snapshot(obs::Domain::kSemantic))
                    : "[]";
  }
  // Per-window sparse series sampled after each closed window.
  std::string stats_series_json() const {
    return series_ ? series_->json() : "[]";
  }

  // --- tracing (null/empty unless WorldParams::trace or RRR_TRACE) ---
  obs::TraceRecorder* tracer() { return tracer_.get(); }
  // Chrome trace-event / Perfetto JSON of the flight recorder: everything
  // drained through the last closed window. Always a valid document, even
  // with tracing off. Safe from another thread (a live introspection
  // endpoint) concurrently with the run.
  std::string trace_json() const {
    return tracer_ ? tracer_->json()
                   : "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}";
  }
  // Null unless WorldParams::watchdog.enabled.
  const obs::Watchdog* watchdog() const { return watchdog_.get(); }
  std::string watchdog_reports_json() const {
    return watchdog_ ? watchdog_->reports_json() : "[]";
  }

 private:
  void process_event(const routing::Event& event);
  void issue_public_trace(TimePoint t);
  // Routes one producer record through the fault injector (when present)
  // into the engine.
  void feed_bgp(const bgp::BgpRecord& record);

  // --- checkpoint/resume machinery (DESIGN.md §11) ---
  // Where in a window an exogenous op ran — resume must replay it at the
  // same call site because platform/world RNG draws interleave with the
  // window's own work (recalibration, churn, the next window's feeds).
  enum class ReplayPoint : std::uint8_t {
    kHook = 0,      // inside the on_signals hook of a closing window
    kDay = 1,       // inside the on_day hook of a day boundary
    kBoundary = 2,  // between run_until calls
  };
  // Digest of the parameters that shape the simulated timeline (seed,
  // corpus/feed shape, fault plan, ...). The pure throughput knob — threads
  // — is excluded; shard count is verified separately by the engine's own
  // loader.
  std::uint64_t params_fingerprint() const;
  // Appends one op to the WAL at the current (clock, replay point). No-op
  // unless checkpointing is on, and always a no-op during replay.
  void log_op(const char* type, std::string payload);
  void apply_wal_op(const store::WalOp& op);
  // Writes a full snapshot (engine, patcher, semantic metrics) for the
  // current completed-window count.
  void write_checkpoint();
  void load_checkpoint(const store::SnapshotReader& reader);
  // Constructor tail for WorldParams::resume_from: re-simulates the world
  // side of the timeline with the engine suppressed up to the snapshot,
  // restores the engine there, then replays the remaining windows and WAL
  // ops live.
  void resume_from_checkpoint();

  WorldParams params_;
  Rng rng_;
  // Telemetry sink; declared before the engine, which holds instrument
  // pointers into it.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::StatsSeries> series_;
  // Flight recorder; declared before the engine, which holds the tracer
  // pointer (same lifetime rule as metrics_).
  std::unique_ptr<obs::TraceRecorder> tracer_;
  std::unique_ptr<obs::Watchdog> watchdog_;
  // Fault injector at the feed boundary; null when the plan is inert.
  std::unique_ptr<fault::FaultInjector> fault_;
  // Storage fault environment + retry context for every store IO this
  // world performs. io_fault_ is null when io_fault_plan is inert; io_ is
  // null unless checkpointing or resume is configured.
  std::unique_ptr<fault::IoFaultInjector> io_fault_;
  std::unique_ptr<store::IoContext> io_;
  topo::Topology topology_;
  std::unique_ptr<routing::ControlPlane> cp_;
  std::unique_ptr<bgp::FeedSimulator> feed_;
  std::unique_ptr<tr::Platform> platform_;
  std::unique_ptr<tracemap::ProcessingContext> processing_;
  std::unique_ptr<signals::ShardedStalenessEngine> engine_;
  std::unique_ptr<GroundTruth> ground_truth_;

  // Borrowed serving layer; null when no query service is attached.
  serve::StalenessService* serving_ = nullptr;

  std::vector<routing::Event> schedule_;
  std::size_t event_cursor_ = 0;
  TimePoint now_;
  std::int64_t next_public_trace_slot_ = 0;

  // Checkpoint/resume state. `suppress_engine_` marks the resume
  // fast-forward region before the snapshot: the world (events, platform,
  // fault injector, ground truth) re-simulates live to regenerate its RNG
  // streams and state, while every engine call is skipped — the engine's
  // state comes wholesale from the snapshot. `replaying_` covers the whole
  // fast-forward: WAL writes, snapshot writes, and per-window series
  // samples are suppressed while it is set.
  bool corpus_initialized_ = false;
  bool checkpoint_enabled_ = false;
  bool suppress_engine_ = false;
  bool replaying_ = false;
  ReplayPoint replay_point_ = ReplayPoint::kBoundary;
  // How far the checkpoint WAL has advanced (op count + chained digest).
  // Stamped into every snapshot as its "walpos" section: the world side of
  // a resume is regenerated by WAL replay, so a snapshot is only loadable
  // while the log still holds the exact op prefix it was written over.
  store::WalPosition wal_pos_;
  // rrr_checkpoint_* telemetry (runtime domain; null when telemetry is off
  // or checkpointing is off).
  obs::Counter* obs_snapshots_written_ = nullptr;
  obs::Counter* obs_wal_ops_ = nullptr;
  obs::Gauge* obs_snapshot_bytes_ = nullptr;
  obs::Histogram* obs_checkpoint_write_us_ = nullptr;
  obs::Gauge* obs_resumed_window_ = nullptr;

  std::vector<TimePoint> recalibration_times_;
  std::vector<tr::ProbeId> corpus_probes_;
  std::vector<tr::ProbeId> public_probes_;
  std::vector<Ipv4> corpus_dests_;
  std::vector<Ipv4> public_dests_;
  std::vector<topo::AsIndex> monitored_origins_;
};

}  // namespace rrr::eval
