#include "eval/world.h"

#include <algorithm>
#include <cassert>
#include <filesystem>
#include <optional>

#include "serve/service.h"
#include "signals/serial.h"
#include "store/codec.h"
#include "store/framing.h"

namespace rrr::eval {
namespace {

// Snapshot section codec for the semantic metric values (counters and
// gauges only — no semantic metric is a histogram). Field order is fixed;
// see store/serial.h.
std::string encode_semantic_metrics(const obs::MetricsRegistry& registry) {
  obs::Snapshot snap = registry.snapshot(obs::Domain::kSemantic);
  store::Encoder enc;
  std::uint64_t count = 0;
  for (const obs::MetricSnapshot& m : snap) {
    if (m.kind != obs::Kind::kHistogram) ++count;
  }
  enc.u64(count);
  for (const obs::MetricSnapshot& m : snap) {
    if (m.kind == obs::Kind::kHistogram) continue;
    enc.str(m.name);
    enc.u8(static_cast<std::uint8_t>(m.kind));
    enc.u8(static_cast<std::uint8_t>(m.domain));
    enc.str(m.help);
    enc.u64(m.labels.size());
    for (const auto& [key, value] : m.labels) {
      enc.str(key);
      enc.str(value);
    }
    enc.i64(m.value);
  }
  return enc.take();
}

obs::Snapshot decode_semantic_metrics(std::string_view payload) {
  store::Decoder dec(payload);
  obs::Snapshot snap;
  std::uint64_t n = dec.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    obs::MetricSnapshot m;
    m.name = std::string(dec.str());
    std::uint8_t kind = dec.u8();
    std::uint8_t domain = dec.u8();
    if (kind > static_cast<std::uint8_t>(obs::Kind::kHistogram) ||
        domain > static_cast<std::uint8_t>(obs::Domain::kRuntime)) {
      throw store::StoreError(store::StoreError::Kind::kCorrupt,
                              "metrics section holds an impossible tag");
    }
    m.kind = static_cast<obs::Kind>(kind);
    m.domain = static_cast<obs::Domain>(domain);
    m.help = std::string(dec.str());
    std::uint64_t labels = dec.u64();
    for (std::uint64_t j = 0; j < labels; ++j) {
      std::string key(dec.str());
      std::string value(dec.str());
      m.labels.emplace_back(std::move(key), std::move(value));
    }
    m.value = dec.i64();
    snap.push_back(std::move(m));
  }
  dec.expect_done();
  return snap;
}

}  // namespace

World::World(const WorldParams& params)
    : params_(params),
      rng_(Rng(params.seed).fork(0x0E1D)),
      topology_([&] {
        topo::TopologyParams tp = params.topology;
        tp.seed = Rng(params.seed).fork(1).seed();
        return topo::build_topology(tp);
      }()),
      now_(start()) {
  cp_ = std::make_unique<routing::ControlPlane>(topology_,
                                                rng_.fork(2).seed());

  tr::ProberParams prober = params_.prober;
  prober.seed = rng_.fork(3).seed();
  tr::PlatformParams plat = params_.platform;
  plat.seed = rng_.fork(4).seed();
  platform_ = std::make_unique<tr::Platform>(*cp_, prober, plat);

  // Destinations: the first anchors are the corpus targets; public targets
  // are fresh host addresses scattered across ASes.
  for (int i = 0; i < params_.corpus_dest_count &&
                  i < static_cast<int>(platform_->anchors().size());
       ++i) {
    corpus_dests_.push_back(
        platform_->probe(platform_->anchors()[static_cast<std::size_t>(i)])
            .ip);
  }
  // Public targets: §5.1.2 excludes only the anchoring *targets*, not their
  // host networks, so half of the public feed probes other hosts inside the
  // corpus destination ASes (giving the traceroute techniques visibility of
  // destination-side borders) and half probes random ASes.
  for (int i = 0; i < params_.public_dest_count; ++i) {
    topo::AsIndex as;
    if (i % 2 == 0 && !corpus_dests_.empty()) {
      Ipv4 anchor = corpus_dests_[static_cast<std::size_t>(i / 2) %
                                  corpus_dests_.size()];
      as = topology_.announced_owner_of(anchor);
      if (as == topo::kNoAs) {
        as = static_cast<topo::AsIndex>(rng_.index(topology_.as_count()));
      }
    } else {
      as = static_cast<topo::AsIndex>(rng_.index(topology_.as_count()));
    }
    public_dests_.push_back(topology_.allocate_host_ip(as));
  }

  for (Ipv4 dst : corpus_dests_) {
    topo::AsIndex origin = topology_.announced_owner_of(dst);
    if (origin != topo::kNoAs) monitored_origins_.push_back(origin);
  }
  std::sort(monitored_origins_.begin(), monitored_origins_.end());
  monitored_origins_.erase(
      std::unique(monitored_origins_.begin(), monitored_origins_.end()),
      monitored_origins_.end());

  // BGP feed over all ASes as VP candidates.
  std::vector<topo::AsIndex> candidates(topology_.as_count());
  for (topo::AsIndex as = 0; as < topology_.as_count(); ++as) {
    candidates[as] = as;
  }
  bgp::FeedParams feed_params = params_.feed;
  feed_params.seed = rng_.fork(5).seed();
  feed_ = std::make_unique<bgp::FeedSimulator>(*cp_, feed_params, candidates,
                                               monitored_origins_);

  tracemap::PipelineParams pipeline = params_.pipeline;
  pipeline.seed = rng_.fork(6).seed();
  processing_ = std::make_unique<tracemap::ProcessingContext>(topology_,
                                                              pipeline);

  // Engine wiring: VP metadata, IXP route-server ASNs, relationships,
  // PeeringDB membership snapshot.
  std::vector<bgp::VantagePoint> vps = feed_->vantage_points();
  std::vector<topo::AsIndex> vp_as;
  std::vector<topo::CityId> vp_city;
  std::vector<topo::AsIndex> vp_as_for_schedule;
  for (const bgp::VantagePoint& vp : vps) {
    vp_as.push_back(vp.as_index);
    vp_city.push_back(topology_.as_at(vp.as_index).pops.front());
    vp_as_for_schedule.push_back(vp.as_index);
  }
  std::set<Asn> rs_asns;
  for (const topo::Ixp& ixp : topology_.ixps()) {
    rs_asns.insert(ixp.route_server_asn);
  }
  Rng pdb_rng = rng_.fork(7);
  topo::PeeringDbSnapshot pdb =
      topo::make_peeringdb(topology_, params_.peeringdb_completeness,
                           pdb_rng);
  std::map<topo::IxpId, std::set<Asn>> members;
  for (topo::IxpId i = 0; i < pdb.ixp_members.size(); ++i) {
    members[i] = std::set<Asn>(pdb.ixp_members[i].begin(),
                               pdb.ixp_members[i].end());
  }
  if (params_.telemetry || obs::env_enabled()) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    series_ = std::make_unique<obs::StatsSeries>();
  }
  if (params_.trace || obs::trace_env_enabled()) {
    tracer_ = std::make_unique<obs::TraceRecorder>(params_.trace_params);
    tracer_->name_this_thread("driver");
    if (metrics_) tracer_->set_metrics(*metrics_);
  }
  if (params_.watchdog.enabled) {
    watchdog_ = std::make_unique<obs::Watchdog>(params_.watchdog);
    if (metrics_) watchdog_->set_metrics(*metrics_);
  }

  if (params_.fault_plan.enabled()) {
    fault_ = std::make_unique<fault::FaultInjector>(
        params_.fault_plan, start(), kBaseWindowSeconds);
    if (metrics_) fault_->set_metrics(*metrics_);
    if (tracer_) fault_->set_tracer(tracer_.get());
  }

  signals::EngineParams engine_params;
  engine_params.t0 = start();
  engine_params.window_seconds = kBaseWindowSeconds;
  engine_params.subpath = params_.subpath;
  engine_params.border = params_.border;
  engine_params.seed = rng_.fork(8).seed();
  engine_params.threads = params_.engine_threads;
  engine_params.shards = params_.engine_shards;
  engine_params.metrics = metrics_.get();
  engine_params.tracer = tracer_.get();
  engine_params.feed_health = params_.feed_health;
  engine_ = std::make_unique<signals::ShardedStalenessEngine>(
      engine_params, *processing_, std::move(vps), std::move(vp_as),
      std::move(vp_city), std::move(rs_asns),
      signals::AsRelDb::from_topology(topology_), std::move(members));

  ground_truth_ = std::make_unique<GroundTruth>(*cp_);

  schedule_ = routing::generate_schedule(
      topology_, params_.dynamics, start(), end(), monitored_origins_,
      vp_as_for_schedule, rng_.fork(9).seed());

  // Probe split: half public, half corpus (§5.1.1).
  std::vector<tr::ProbeId> regular = platform_->regular_probes();
  rng_.shuffle(regular);
  for (std::size_t i = 0; i < regular.size(); ++i) {
    (i % 2 == 0 ? public_probes_ : corpus_probes_).push_back(regular[i]);
  }

  // Bootstrap the engine's table view from a RIB dump. The dump goes
  // through the injector too: a blacked-out stream contributes nothing to
  // the initial table, as a real collector outage at t0 would.
  for (bgp::BgpRecord& record : feed_->initial_rib(start())) {
    feed_bgp(record);
  }

  params_.checkpoint_every = std::max(params_.checkpoint_every, 1);
  if (!params_.checkpoint_dir.empty() || !params_.resume_from.empty()) {
    if (params_.io_fault_plan.enabled()) {
      io_fault_ = std::make_unique<fault::IoFaultInjector>(
          params_.io_fault_plan);
    }
    io_ = std::make_unique<store::IoContext>(params_.io_retry,
                                             io_fault_.get());
    if (metrics_) io_->set_metrics(*metrics_);
    if (tracer_) io_->set_tracer(tracer_.get());
  }
  if (metrics_ &&
      (!params_.checkpoint_dir.empty() || !params_.resume_from.empty())) {
    constexpr auto kRt = obs::Domain::kRuntime;
    obs_snapshots_written_ =
        &metrics_->counter("rrr_checkpoint_snapshots_written_total", {}, kRt,
                           "full snapshots written to the checkpoint dir");
    obs_wal_ops_ = &metrics_->counter("rrr_checkpoint_wal_ops_total", {}, kRt,
                                      "exogenous ops appended to the WAL");
    obs_snapshot_bytes_ =
        &metrics_->gauge("rrr_checkpoint_snapshot_bytes", {}, kRt,
                         "section payload bytes of the last snapshot");
    obs_checkpoint_write_us_ = &metrics_->histogram(
        "rrr_checkpoint_write_us", obs::duration_buckets_us(), {}, kRt,
        "snapshot assembly + atomic write wall time");
    obs_resumed_window_ =
        &metrics_->gauge("rrr_checkpoint_resumed_window", {}, kRt,
                         "window boundary this world resumed at");
  }
  if (!params_.resume_from.empty()) resume_from_checkpoint();
  if (!params_.checkpoint_dir.empty()) {
    store::ensure_dir(params_.checkpoint_dir);
    checkpoint_enabled_ = true;
  }
}

void World::feed_bgp(const bgp::BgpRecord& record) {
  // The injector runs even while the engine is suppressed (resume
  // fast-forward): its RNG draws and dedup/replay buffers are world-side
  // state that must advance exactly as in the original run.
  if (fault_ == nullptr) {
    if (!suppress_engine_) engine_->on_bgp_record(record);
    return;
  }
  for (const bgp::BgpRecord& out : fault_->on_bgp_record(record)) {
    if (!suppress_engine_) engine_->on_bgp_record(out);
  }
}

std::size_t World::initialize_corpus() {
  if (corpus_initialized_) return ground_truth_->pairs().size();
  assert(now_ == corpus_t0());
  obs::TraceSpan span(tracer_.get(), "corpus_init", "driver");
  corpus_initialized_ = true;
  log_op("init", {});
  std::vector<std::pair<tr::ProbeId, Ipv4>> pairs;
  for (tr::ProbeId probe : corpus_probes_) {
    for (Ipv4 dst : corpus_dests_) {
      pairs.emplace_back(probe, dst);
    }
  }
  rng_.shuffle(pairs);
  std::size_t target = std::min<std::size_t>(
      pairs.size(), static_cast<std::size_t>(params_.corpus_pair_target));
  std::size_t created = 0;
  for (std::size_t i = 0; i < pairs.size() && created < target; ++i) {
    const auto& [probe_id, dst] = pairs[i];
    const tr::Probe& probe = platform_->probe(probe_id);
    tr::Traceroute trace = platform_->issue(probe_id, dst, now_, 0);
    if (!trace.reached && trace.hops.empty()) continue;  // unroutable
    if (!suppress_engine_) engine_->watch(probe, trace);
    ground_truth_->track(probe, dst);
    ++created;
  }
  return created;
}

tr::Traceroute World::issue_corpus_traceroute(const tr::PairKey& pair,
                                              TimePoint t) {
  return platform_->issue(pair.probe, pair.dst, t, 0);
}

void World::recalibrate_all(TimePoint t) {
  recalibration_times_.push_back(t);
  for (const tr::PairKey& pair : ground_truth_->pairs()) {
    const tr::Probe& probe = platform_->probe(pair.probe);
    tr::Traceroute fresh = platform_->issue(pair.probe, pair.dst, t, 0);
    if (!suppress_engine_) engine_->apply_refresh(probe, fresh);
  }
}

std::vector<tr::PairKey> World::plan_refreshes(int budget) {
  store::Encoder enc;
  enc.i64(budget);
  log_op("plan", enc.take());
  return engine_->plan_refreshes(budget);
}

signals::RefreshOutcome World::refresh_pair(const tr::PairKey& pair,
                                            TimePoint t) {
  store::Encoder enc;
  signals::put_pair(enc, pair);
  store::put(enc, t);
  log_op("refresh", enc.take());
  tr::Traceroute fresh = issue_corpus_traceroute(pair, t);
  return engine_->apply_refresh(platform_->probe(pair.probe), fresh);
}

void World::process_event(const routing::Event& event) {
  routing::ControlPlane::Impact impact = cp_->apply(event);
  for (bgp::BgpRecord& record : feed_->on_event(event, impact)) {
    feed_bgp(record);
  }
  ground_truth_->on_impact(event, impact);
}

void World::issue_public_trace(TimePoint t) {
  if (public_probes_.empty() || public_dests_.empty()) return;
  // Retry a few times to find an active probe.
  for (int attempt = 0; attempt < 4; ++attempt) {
    tr::ProbeId probe_id = public_probes_[rng_.index(public_probes_.size())];
    if (!platform_->probe(probe_id).active) continue;
    Ipv4 dst = public_dests_[rng_.index(public_dests_.size())];
    int variant = static_cast<int>(rng_.uniform_int(0, 15));
    tr::Traceroute trace = platform_->issue(probe_id, dst, t, variant);
    if (fault_ != nullptr) {
      // The measurement was issued; whether the result reaches the engine
      // is the injector's call (probe blackout / result loss).
      std::optional<tr::Traceroute> kept = fault_->on_public_trace(trace);
      if (kept && !suppress_engine_) engine_->on_public_trace(*kept);
    } else if (!suppress_engine_) {
      engine_->on_public_trace(trace);
    }
    return;
  }
}

void World::run_until(TimePoint t, const Hooks& hooks) {
  const std::int64_t w = window_seconds();
  while (now_ + w <= t) {
    TimePoint window_end = now_ + w;
    std::int64_t window = (now_ - start()) / w;

    // Public measurement slots, evenly spaced through the window.
    int per_window = params_.public_traces_per_window;
    std::int64_t slot_spacing =
        per_window > 0 ? std::max<std::int64_t>(w / per_window, 1) : w;
    std::int64_t next_slot_offset = 0;
    int slots_done = 0;

    // Merge events and measurement slots in time order. Untraced while the
    // engine is suppressed: resume fast-forward never drains the recorder.
    {
      obs::TraceSpan feed_span(suppress_engine_ ? nullptr : tracer_.get(),
                               "feed", "driver", window);
      while (true) {
        TimePoint next_event_time =
            event_cursor_ < schedule_.size() ? schedule_[event_cursor_].time
                                             : TimePoint(INT64_MAX);
        TimePoint next_slot_time = slots_done < per_window
                                       ? now_ + next_slot_offset
                                       : TimePoint(INT64_MAX);
        TimePoint next = std::min(next_event_time, next_slot_time);
        if (next >= window_end) break;
        if (next_event_time <= next_slot_time) {
          process_event(schedule_[event_cursor_++]);
        } else {
          issue_public_trace(next_slot_time);
          ++slots_done;
          next_slot_offset += slot_spacing;
        }
      }
    }

    // The window is now closed: advance the clock before the hooks so WAL
    // ops logged from inside them carry clock == completed_windows().
    now_ = window_end;

    std::vector<signals::StalenessSignal> sigs;
    if (!suppress_engine_) {
      // One "window" span per closed window wraps the whole close; every
      // cat="close" span the engine emits for this window nests inside it
      // (asserted by tools/validate_trace.py).
      double close_us = -1.0;
      {
        obs::TraceSpan window_span(tracer_.get(), "window", "window",
                                   window);
        if (watchdog_ == nullptr) {
          sigs = engine_->advance_to(window_end);
        } else {
          const auto close_begin = obs::SpanClock::now();
          sigs = engine_->advance_to(window_end);
          close_us = std::chrono::duration<double, std::micro>(
                         obs::SpanClock::now() - close_begin)
                         .count();
        }
      }
      // Window boundary = the serial drain point: every thread's ring
      // moves into the flight recorder, so exports (and the watchdog
      // report below) see everything through this window.
      if (tracer_) tracer_->drain();
      if (watchdog_ != nullptr && close_us >= 0.0) {
        watchdog_->observe(
            window, close_us, [this] { return trace_json(); },
            [this] { return stats_json(); });
      }
    }
    // Serving materialization: still inside the serial section (no close
    // is in flight), so the engine read is race-free; the publish itself is
    // the release store HTTP readers synchronize with. Skipped while the
    // engine is suppressed (resume fast-forward) — its state is not live.
    if (serving_ != nullptr && !suppress_engine_) {
      serving_->on_window(*engine_, window, window_end, sigs);
    }
    if (hooks.on_signals) {
      replay_point_ = ReplayPoint::kHook;
      hooks.on_signals(window, window_end, std::move(sigs));
      replay_point_ = ReplayPoint::kBoundary;
    }

    if (params_.recalibration_interval_windows > 0 &&
        (window + 1) % params_.recalibration_interval_windows == 0 &&
        window_end > corpus_t0()) {
      recalibrate_all(window_end);
    }
    bool day_boundary = window_end.seconds() % kSecondsPerDay == 0;
    if (day_boundary) {
      platform_->advance_churn(window_end);
      if (hooks.on_day) {
        replay_point_ = ReplayPoint::kDay;
        hooks.on_day(
            static_cast<int>(window_end.seconds() / kSecondsPerDay) - 1,
            window_end);
        replay_point_ = ReplayPoint::kBoundary;
      }
    }
    if (series_ && !replaying_) series_->sample(window, *metrics_);
    if (checkpoint_enabled_ && !replaying_ &&
        (window + 1) % params_.checkpoint_every == 0) {
      write_checkpoint();
    }
  }
}

void World::run_all(const Hooks& hooks) {
  run_until(corpus_t0(), hooks);
  initialize_corpus();  // no-op when resumed past corpus init
  run_until(end(), hooks);
}

std::uint64_t World::fingerprint(const WorldParams& params) {
  // A coarse digest of the parameters that shape the simulated timeline.
  // It catches the common foot-guns (different seed, days, corpus or feed
  // shape, fault plan) — it is a guard, not a proof of identity. The
  // throughput knob (threads) and the robustness knobs (io_fault_plan,
  // io_retry, supervise) are deliberately excluded; the engine's loader
  // verifies the shard count itself.
  store::Encoder enc;
  enc.u64(params.seed);
  enc.i64(params.days);
  enc.i64(params.warmup_days);
  enc.i64(params.corpus_pair_target);
  enc.i64(params.corpus_dest_count);
  enc.i64(params.public_dest_count);
  enc.i64(params.public_traces_per_window);
  enc.i64(params.recalibration_interval_windows);
  enc.f64(params.peeringdb_completeness);
  enc.i64(params.topology.num_tier1);
  enc.i64(params.topology.num_transit);
  enc.i64(params.topology.num_stub);
  enc.i64(params.topology.num_ixps);
  enc.i64(params.platform.num_probes);
  enc.i64(params.platform.num_anchors);
  enc.f64(params.platform.probe_death_per_day);
  enc.boolean(params.feed_health.enabled);
  enc.str(params.fault_plan.spec());
  return store::fnv1a64(enc.buffer());
}

std::uint64_t World::params_fingerprint() const {
  return fingerprint(params_);
}

void World::log_op(const char* type, std::string payload) {
  if (!checkpoint_enabled_ || replaying_) return;
  store::WalOp op;
  op.clock = completed_windows();
  op.point = static_cast<std::uint8_t>(replay_point_);
  op.type = type;
  op.payload = std::move(payload);
  store::wal_append(params_.checkpoint_dir, op, io_.get());
  wal_pos_.digest = store::chain_wal_digest(wal_pos_.digest, op);
  ++wal_pos_.count;
  obs::inc(obs_wal_ops_);
}

void World::apply_wal_op(const store::WalOp& op) {
  store::Decoder dec(op.payload);
  if (op.type == "init") {
    dec.expect_done();
    initialize_corpus();
  } else if (op.type == "plan") {
    std::int64_t budget = dec.i64();
    dec.expect_done();
    // Consumes only the engine's own RNG stream, which the snapshot
    // restores — nothing to do while the engine is suppressed.
    if (!suppress_engine_) {
      engine_->plan_refreshes(static_cast<int>(budget));
    }
  } else if (op.type == "refresh") {
    tr::PairKey pair = signals::get_pair(dec);
    TimePoint t = store::get_time(dec);
    dec.expect_done();
    tr::Traceroute fresh = issue_corpus_traceroute(pair, t);
    if (!suppress_engine_) {
      engine_->apply_refresh(platform_->probe(pair.probe), fresh);
    }
  } else {
    throw store::StoreError(store::StoreError::Kind::kCorrupt,
                            "wal.log contains unknown op '" + op.type + "'");
  }
}

void World::write_checkpoint() {
  obs::ScopedSpan span(obs_checkpoint_write_us_);
  obs::TraceSpan trace_span(tracer_.get(), "checkpoint_write", "checkpoint",
                            completed_windows());
  store::SnapshotWriter writer(completed_windows(), params_fingerprint());
  std::size_t bytes = 0;
  store::Encoder engine_enc;
  engine_->save_state(engine_enc);
  bytes += engine_enc.buffer().size();
  writer.add_section("engine", engine_enc.take());
  store::Encoder patch_enc;
  processing_->patcher().save_state(patch_enc);
  bytes += patch_enc.buffer().size();
  writer.add_section("patcher", patch_enc.take());
  if (metrics_) {
    std::string metrics = encode_semantic_metrics(*metrics_);
    bytes += metrics.size();
    writer.add_section("metrics", std::move(metrics));
  }
  // The WAL position this snapshot was written over: the world side of a
  // resume is regenerated by replaying exactly these ops, so a log that
  // can no longer produce this prefix makes the snapshot unusable.
  std::string walpos = store::encode_wal_position(wal_pos_);
  bytes += walpos.size();
  writer.add_section(store::kWalPositionSection, std::move(walpos));
  writer.write(params_.checkpoint_dir, io_.get());
  obs::inc(obs_snapshots_written_);
  obs::set(obs_snapshot_bytes_, static_cast<std::int64_t>(bytes));
}

void World::load_checkpoint(const store::SnapshotReader& reader) {
  obs::TraceSpan trace_span(tracer_.get(), "checkpoint_load", "checkpoint");
  {
    store::Decoder dec(reader.section("engine"));
    engine_->load_state(dec);
    dec.expect_done();
  }
  {
    store::Decoder dec(reader.section("patcher"));
    processing_->patcher().load_state(dec);
    dec.expect_done();
  }
  if (metrics_ && reader.has_section("metrics")) {
    metrics_->restore(decode_semantic_metrics(reader.section("metrics")));
  }
}

void World::resume_from_checkpoint() {
  namespace fs = std::filesystem;
  const std::string& dir = params_.resume_from;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw store::StoreError(store::StoreError::Kind::kIo,
                            "resume directory '" + dir + "' does not exist");
  }
  obs::Histogram* resume_us =
      metrics_ ? &metrics_->histogram("rrr_checkpoint_resume_us",
                                      obs::duration_buckets_us(), {},
                                      obs::Domain::kRuntime,
                                      "resume fast-forward wall time")
               : nullptr;
  obs::ScopedSpan span(resume_us);

  std::vector<store::WalOp> ops = store::wal_read(dir, io_.get());
  std::int64_t max_clock = 0;
  for (const store::WalOp& op : ops) {
    max_clock = std::max(max_clock, op.clock);
  }
  std::optional<std::int64_t> snap =
      store::latest_snapshot(dir, params_.resume_window);
  const std::int64_t k = params_.resume_window >= 0
                             ? params_.resume_window
                             : std::max(snap.value_or(0), max_clock);
  if (k > (end() - start()) / window_seconds()) {
    throw store::StoreError(store::StoreError::Kind::kCorrupt,
                            "resume window lies beyond this world's end");
  }

  // Map and validate the snapshot (framing, checksums, fingerprint) before
  // spending any time on re-simulation.
  std::optional<store::SnapshotReader> reader;
  if (snap) {
    reader.emplace(dir, *snap, io_.get());
    if (reader->fingerprint() != params_fingerprint()) {
      throw store::StoreError(
          store::StoreError::Kind::kCorrupt,
          "snapshot was written under different world parameters");
    }
    // The ops the snapshot was written over must still head the log: the
    // world side (corpus, platform, RNG streams) is regenerated by
    // replaying them, so a WAL whose head was lost to silent corruption
    // must not pair with this snapshot — that would resume a silently
    // wrong world, not a slightly older one.
    if (reader->has_section(store::kWalPositionSection)) {
      const store::WalPosition pos = store::decode_wal_position(
          reader->section(store::kWalPositionSection));
      if (!store::wal_position_consistent(pos, ops)) {
        throw store::StoreError(
            store::StoreError::Kind::kCorrupt,
            "snapshot depends on WAL ops the log no longer holds");
      }
    }
  }
  const std::int64_t r0 = snap.value_or(-1);

  // Phase 1, start..r0: the world side (events, platform, injector, ground
  // truth) re-simulates live to regenerate its RNG streams; every engine
  // call is suppressed because the snapshot carries the engine wholesale.
  // Phase 2, r0..k: fully live — the engine replays the WAL tail and
  // regenerates the already-delivered signals, which are discarded. The
  // WAL interpreter applies each op at its recorded (clock, point) so
  // platform draws interleave exactly as in the original run.
  replaying_ = true;
  suppress_engine_ = r0 > 0;
  std::size_t cursor = 0;
  auto apply_until = [&](std::int64_t clock, ReplayPoint point) {
    while (cursor < ops.size() && ops[cursor].clock == clock &&
           ops[cursor].point == static_cast<std::uint8_t>(point)) {
      apply_wal_op(ops[cursor]);
      ++cursor;
    }
  };
  Hooks replay;
  replay.on_signals = [&](std::int64_t window, TimePoint,
                          std::vector<signals::StalenessSignal>&&) {
    apply_until(window + 1, ReplayPoint::kHook);
  };
  replay.on_day = [&](int, TimePoint day_end) {
    apply_until((day_end - start()) / window_seconds(), ReplayPoint::kDay);
  };
  apply_until(0, ReplayPoint::kBoundary);
  for (std::int64_t c = 1; c <= k; ++c) {
    run_until(start() + c * window_seconds(), replay);
    if (c == r0) {
      load_checkpoint(*reader);
      suppress_engine_ = false;
    }
    apply_until(c, ReplayPoint::kBoundary);
  }
  replaying_ = false;
  obs::set(obs_resumed_window_, k);

  // When the run keeps checkpointing into the same directory, drop the
  // tail beyond the resume point: future appends must not interleave with
  // dead ops, and stale later snapshots must not shadow the rerun's.
  if (!params_.checkpoint_dir.empty() &&
      params_.checkpoint_dir == params_.resume_from) {
    std::vector<store::WalOp> kept;
    for (store::WalOp& op : ops) {
      if (op.clock <= k) kept.push_back(std::move(op));
    }
    if (kept.size() != ops.size()) store::wal_rewrite(dir, kept, io_.get());
    for (std::int64_t c : store::list_snapshots(dir)) {
      if (c > k) fs::remove(dir + "/" + store::snapshot_name(c), ec);
    }
    // Future appends and snapshots continue the kept prefix.
    wal_pos_ = store::wal_position_of(kept, kept.size());
  }
}

}  // namespace rrr::eval
