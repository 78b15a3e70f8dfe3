// End-to-end determinism of the staleness engine's parallel window closing:
// the signal stream, stale-pair set, and calibration state must be
// bit-identical at any engine (shards, threads) combination (the
// determinism contract, DESIGN.md "Runtime & determinism" and "Sharded
// engine"), and two serial runs must be byte-identical through the
// io/serialize text formats.
#include <gtest/gtest.h>

#include <sstream>
#include <tuple>
#include <vector>

#include "eval/world.h"
#include "io/serialize.h"
#include "netbase/intern.h"
#include "store/serial.h"

namespace rrr::eval {
namespace {

WorldParams small_params(std::uint64_t seed, int engine_threads,
                         int engine_shards = 1) {
  WorldParams params;
  params.days = 3;
  params.warmup_days = 1;
  params.corpus_pair_target = 150;
  params.corpus_dest_count = 10;
  params.public_dest_count = 40;
  params.public_traces_per_window = 120;
  params.platform.num_probes = 160;
  params.topology.num_transit = 24;
  params.topology.num_stub = 80;
  params.seed = seed;
  params.engine_threads = engine_threads;
  params.engine_shards = engine_shards;
  // Telemetry on, so every run also carries a semantic-counter snapshot:
  // the obs::Domain::kSemantic metrics (signals emitted, potentials opened,
  // refreshes graded, ...) are part of the determinism contract, unlike the
  // kRuntime timing histograms which differ run to run by design.
  params.telemetry = true;
  // Flight recorder on across the whole grid: tracing is kRuntime-only
  // (clock reads and private buffers, no RNG or engine state), so every
  // byte-identity assertion below also proves recording never perturbs
  // the semantic outputs (DESIGN.md §13).
  params.trace = true;
  return params;
}

// Everything about a signal that identifies it across runs.
using SignalKey = std::tuple<std::int64_t, tr::ProbeId, std::uint32_t,
                             int, signals::PotentialId, std::size_t,
                             std::int64_t>;

struct RunTrace {
  std::vector<SignalKey> signals;
  std::vector<tr::PairKey> stale;
  std::uint64_t calibration_digest = 0;
  std::string corpus_bytes;  // io/serialize rendering of the final corpus
  std::string semantic_stats;  // JSON of the semantic-domain metrics
  std::int64_t fault_records_affected = 0;
  // Full id→content dump of the run's intern tables (save_state bytes:
  // content in id order). Byte equality means the id *assignment order* —
  // not just the value set — was identical, which is the serial-insert
  // discipline the interner relies on (netbase/intern.h).
  std::string interner_dict;
};

// The fault plan of the degraded-grid test: every clause active at once, so
// the grid comparison covers blackout membership, session-reset replay,
// loss, duplication, reordering, and corruption in one run.
fault::FaultPlan grid_fault_plan() {
  fault::FaultPlan plan;
  plan.collector_blackout_fraction = 0.4;
  plan.blackout_start_window = 120;
  plan.blackout_windows = 48;
  plan.session_reset_replay = true;
  plan.drop_rate = 0.05;
  plan.duplicate_rate = 0.1;
  plan.reorder_rate = 0.1;
  plan.reorder_max_seconds = 120;
  plan.corrupt_rate = 0.02;
  plan.seed = 99;
  return plan;
}

RunTrace run_world(std::uint64_t seed, int engine_threads,
                   int engine_shards = 1, bool faulted = false) {
  WorldParams params = small_params(seed, engine_threads, engine_shards);
  if (faulted) {
    params.fault_plan = grid_fault_plan();
    params.feed_health.enabled = true;
  }
  // Fresh intern tables per grid point, so the dictionary dump compares id
  // assignment from a clean slate (the process-global instance would carry
  // ids interned by earlier tests).
  Interner::ScopedInstance interner;
  World world(params);
  RunTrace trace;
  World::Hooks hooks;
  hooks.on_signals = [&](std::int64_t window, TimePoint,
                         std::vector<signals::StalenessSignal>&& sigs) {
    for (const signals::StalenessSignal& s : sigs) {
      trace.signals.emplace_back(window, s.pair.probe, s.pair.dst.value(),
                                 static_cast<int>(s.technique), s.potential,
                                 s.border_index, s.time.seconds());
    }
  };
  world.run_until(world.corpus_t0(), hooks);
  world.initialize_corpus();
  world.run_until(world.end(), hooks);

  trace.stale = world.engine().stale_pairs();
  trace.calibration_digest = world.engine().calibration().digest();
  trace.semantic_stats = world.semantic_stats_json();
  if (world.fault_injector() != nullptr) {
    const fault::FaultInjector::Stats& stats =
        world.fault_injector()->stats();
    trace.fault_records_affected =
        stats.bgp_blackout_dropped + stats.bgp_dropped +
        stats.bgp_corrupted + stats.bgp_corrupt_dropped +
        stats.bgp_duplicated + stats.bgp_replayed + stats.trace_dropped +
        stats.trace_blackout_dropped;
  }

  // Render the final corpus view through the text serializer so the
  // byte-identity check covers every field the formats carry.
  std::ostringstream corpus;
  std::vector<tr::Traceroute> finals;
  for (const tr::PairKey& pair : world.ground_truth().pairs()) {
    finals.push_back(world.issue_corpus_traceroute(pair, world.end()));
  }
  io::write_traceroutes(corpus, finals);
  trace.corpus_bytes = corpus.str();

  store::Encoder dict;
  interner.get().save_state(dict);
  trace.interner_dict = dict.buffer();
  return trace;
}

TEST(Determinism, SignalStreamIdenticalAcrossThreadCounts) {
  RunTrace serial = run_world(11, 1);
  RunTrace parallel = run_world(11, 4);
  ASSERT_GT(serial.signals.size(), 0u)
      << "world too quiet to exercise the engine";
  EXPECT_EQ(serial.signals, parallel.signals);
}

TEST(Determinism, StalePairsAndCalibrationIdenticalAcrossThreadCounts) {
  RunTrace serial = run_world(12, 1);
  RunTrace parallel = run_world(12, 4);
  EXPECT_EQ(serial.stale, parallel.stale);
  EXPECT_EQ(serial.calibration_digest, parallel.calibration_digest);
}

TEST(Determinism, SerialRunsAreByteIdentical) {
  RunTrace a = run_world(13, 1);
  RunTrace b = run_world(13, 1);
  EXPECT_EQ(a.signals, b.signals);
  EXPECT_EQ(a.stale, b.stale);
  EXPECT_EQ(a.calibration_digest, b.calibration_digest);
  ASSERT_FALSE(a.corpus_bytes.empty());
  EXPECT_EQ(a.corpus_bytes, b.corpus_bytes);
}

TEST(Determinism, ParallelRunMatchesSerialBytes) {
  RunTrace serial = run_world(14, 1);
  RunTrace parallel = run_world(14, 4);
  EXPECT_EQ(serial.corpus_bytes, parallel.corpus_bytes);
}

// The tentpole contract: partitioning the corpus over shards must not
// change a single byte of the output, whatever thread count runs the
// shards. Every (shards, threads) grid point is compared against the
// serial single-shard run.
TEST(Determinism, ShardGridMatchesSingleShardSerial) {
  RunTrace baseline = run_world(15, 1);
  ASSERT_GT(baseline.signals.size(), 0u)
      << "world too quiet to exercise the engine";
  for (int shards : {1, 2, 4}) {
    for (int threads : {1, 4}) {
      if (shards == 1 && threads == 1) continue;
      RunTrace run = run_world(15, threads, shards);
      auto point = [&] {
        std::ostringstream os;
        os << "shards=" << shards << " threads=" << threads;
        return os.str();
      }();
      EXPECT_EQ(baseline.signals, run.signals) << point;
      EXPECT_EQ(baseline.stale, run.stale) << point;
      EXPECT_EQ(baseline.calibration_digest, run.calibration_digest)
          << point;
      EXPECT_EQ(baseline.corpus_bytes, run.corpus_bytes) << point;
      // The semantic telemetry snapshot is part of the same contract: the
      // counters describe the signal stream, so their JSON rendering must
      // be byte-identical at every grid point (timing differences live in
      // the runtime domain).
      EXPECT_EQ(baseline.semantic_stats, run.semantic_stats) << point;
      // So is the intern dictionary: byte-identical dumps mean every grid
      // point assigned every path/commset/collector id in the same order,
      // i.e. all interner inserts really are confined to serial code.
      EXPECT_EQ(baseline.interner_dict, run.interner_dict) << point;
    }
  }
  EXPECT_NE(baseline.semantic_stats.find("rrr_signals_emitted_total"),
            std::string::npos)
      << "semantic snapshot missing the emitted-signal counters";
  // The dictionary comparison must not be vacuous: the run interned real
  // feed content beyond the three built-in empty values.
  Interner::ScopedInstance decoded;
  store::Decoder dict(baseline.interner_dict);
  decoded.get().load_state(dict);
  EXPECT_GT(decoded.get().path_count(), 1u);
  EXPECT_GT(decoded.get().collector_count(), 1u);
}

// The degraded half of the contract: a fault plan plus feed-health gating
// must be exactly as deterministic as the clean path. The injector draws
// from per-stream generators on the facade's serial feed path and the
// health tracker transitions in the serial close, so every (shards,
// threads) grid point must reproduce the serial faulted run byte for byte —
// signal stream, stale pairs, calibration, corpus bytes, and the semantic
// telemetry (which now includes the rrr_fault_* and rrr_feed_* series).
TEST(Determinism, FaultedGridMatchesSingleShardSerial) {
  RunTrace baseline = run_world(16, 1, 1, /*faulted=*/true);
  ASSERT_GT(baseline.fault_records_affected, 0)
      << "fault plan never fired; the grid comparison would be vacuous";
  ASSERT_GT(baseline.signals.size(), 0u)
      << "world too quiet to exercise the engine";
  for (int shards : {1, 2, 4}) {
    for (int threads : {1, 4}) {
      if (shards == 1 && threads == 1) continue;
      RunTrace run = run_world(16, threads, shards, /*faulted=*/true);
      auto point = [&] {
        std::ostringstream os;
        os << "shards=" << shards << " threads=" << threads;
        return os.str();
      }();
      EXPECT_EQ(baseline.signals, run.signals) << point;
      EXPECT_EQ(baseline.stale, run.stale) << point;
      EXPECT_EQ(baseline.calibration_digest, run.calibration_digest)
          << point;
      EXPECT_EQ(baseline.corpus_bytes, run.corpus_bytes) << point;
      EXPECT_EQ(baseline.semantic_stats, run.semantic_stats) << point;
      EXPECT_EQ(baseline.interner_dict, run.interner_dict) << point;
      EXPECT_EQ(baseline.fault_records_affected,
                run.fault_records_affected)
          << point;
    }
  }
  EXPECT_NE(baseline.semantic_stats.find("rrr_fault_bgp_records"),
            std::string::npos)
      << "semantic snapshot missing the fault-injection counters";
  EXPECT_NE(baseline.semantic_stats.find("rrr_feed_streams"),
            std::string::npos)
      << "semantic snapshot missing the feed-health gauges";
}

}  // namespace
}  // namespace rrr::eval
