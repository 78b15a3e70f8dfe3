// The resume-determinism contract of the durable state store (DESIGN.md
// §11): a run that checkpoints at window k and resumes must be
// indistinguishable — signal stream, stale pairs, calibration digest,
// semantic telemetry, and the io/serialize rendering of the final corpus —
// from the run that never stopped. The grid here pins that for every
// window k of a small world, across (shards x threads x fault plan),
// through the WAL tail after a mid-cadence crash, and across
// resume-of-a-resumed-run. The rejection tables pin the other half of the
// contract: a corrupted, truncated, or version-skewed snapshot is a
// classified StoreError, never UB and never a silently wrong world.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bgp/table_view.h"
#include "eval/world.h"
#include "io/serialize.h"
#include "netbase/intern.h"
#include "signals/aspath_monitor.h"
#include "signals/border_monitor.h"
#include "signals/burst_monitor.h"
#include "signals/community_monitor.h"
#include "signals/feed_health.h"
#include "signals/subpath_monitor.h"
#include "signals/serial.h"
#include "store/checkpoint.h"
#include "store/codec.h"
#include "store/framing.h"
#include "store/recovery.h"
#include "store/serial.h"
#include "tracemap/serial.h"

namespace rrr::eval {
namespace {

namespace fs = std::filesystem;

// Unique scratch directory under the gtest temp root, removed on scope
// exit. Checkpoint directories are cheap (a few MB of snapshots) but the
// grid makes many, so each case cleans up after itself.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = fs::path(::testing::TempDir()) /
            ("rrr-ckpt-" + tag + "-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter.fetch_add(1)));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A deliberately small world: one day, no warmup, 96 base windows — small
// enough that the every-k sweep (which costs one near-full run per k) stays
// within test-suite budget, busy enough that the engine emits signals and
// the refresh cycle grades them.
WorldParams tiny_params(std::uint64_t seed, int threads = 1, int shards = 1,
                        bool faulted = false) {
  WorldParams params;
  params.days = 1;
  params.warmup_days = 0;
  params.corpus_pair_target = 60;
  params.corpus_dest_count = 6;
  params.public_dest_count = 20;
  params.public_traces_per_window = 40;
  params.platform.num_probes = 80;
  params.topology.num_transit = 16;
  params.topology.num_stub = 50;
  // One day is short, so crank the routing dynamics: roughly a week's
  // worth of events compressed into the 96 windows, keeping the engine
  // busy enough to open potentials and emit signals.
  params.dynamics.interconnect_flap_per_day = 60.0;
  params.dynamics.interconnect_outage_mean_hours = 3.0;
  params.dynamics.egress_shift_per_day = 45.0;
  params.dynamics.egress_shift_mean_hours = 4.0;
  params.dynamics.adjacency_flap_per_day = 30.0;
  params.dynamics.adjacency_outage_mean_hours = 3.0;
  params.dynamics.preferred_link_shift_per_day = 25.0;
  params.dynamics.preferred_link_mean_hours = 6.0;
  params.dynamics.te_community_churn_per_day = 80.0;
  params.dynamics.parrot_update_per_day = 150.0;
  params.seed = seed;
  params.engine_threads = threads;
  params.engine_shards = shards;
  // Telemetry on: the semantic-counter snapshot is part of the resume
  // contract (restored wholesale from the snapshot, then advanced live).
  params.telemetry = true;
  if (faulted) {
    fault::FaultPlan plan;
    plan.collector_blackout_fraction = 0.4;
    plan.blackout_start_window = 30;
    plan.blackout_windows = 16;
    plan.session_reset_replay = true;
    plan.drop_rate = 0.05;
    plan.duplicate_rate = 0.1;
    plan.reorder_rate = 0.1;
    plan.reorder_max_seconds = 120;
    plan.corrupt_rate = 0.02;
    plan.seed = 99;
    params.fault_plan = plan;
    params.feed_health.enabled = true;
  }
  return params;
}

std::int64_t total_windows(const WorldParams& params) {
  return (params.days + params.warmup_days) * kSecondsPerDay /
         kBaseWindowSeconds;
}

// Everything about a signal that identifies it across runs; the leading
// element is the window index, which suffix comparison keys on.
using SignalKey = std::tuple<std::int64_t, tr::ProbeId, std::uint32_t, int,
                             signals::PotentialId, std::size_t, std::int64_t>;

struct RunTrace {
  std::int64_t resumed_at = 0;  // completed windows right after construction
  // engine().table_epoch() and a digest of the BGP table's bytes right after
  // construction (resumed runs only).
  std::uint64_t resumed_table_epoch = 0;
  std::uint64_t resumed_table_digest = 0;
  // Table digest after each closed window, indexed by window (only with
  // DriveSpec::table_digests).
  std::vector<std::uint64_t> table_digests;
  std::vector<SignalKey> signals;
  std::vector<tr::PairKey> stale;
  std::uint64_t calibration_digest = 0;
  std::string semantic_stats;
  std::string corpus_bytes;  // io/serialize rendering of the final corpus
  bool finished = false;     // false for deliberately "crashed" runs
};

std::vector<SignalKey> window_suffix(const std::vector<SignalKey>& all,
                                     std::int64_t k) {
  std::vector<SignalKey> out;
  for (const SignalKey& key : all) {
    if (std::get<0>(key) >= k) out.push_back(key);
  }
  return out;
}

struct DriveSpec {
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  std::string resume_from;
  std::int64_t resume_window = -1;
  // >= 0: stop ("crash") once this many windows completed, skipping the
  // final-state capture — the world simply goes out of scope mid-run.
  std::int64_t stop_window = -1;
  // Drive the WAL-logged refresh cycle from the hooks: plan + refresh
  // inside on_signals every 7th window, one refresh inside on_day, and one
  // between-run_until refresh at mid-run (all three ReplayPoints).
  bool ops = false;
  // Record RunTrace::table_digests.
  bool table_digests = false;
};

std::uint64_t table_digest(World& world) {
  store::Encoder enc;
  world.engine().table().save_state(enc);
  return store::fnv1a64(enc.buffer());
}

RunTrace drive(WorldParams params, const DriveSpec& spec) {
  params.checkpoint_dir = spec.checkpoint_dir;
  params.checkpoint_every = spec.checkpoint_every;
  params.resume_from = spec.resume_from;
  params.resume_window = spec.resume_window;
  World world(params);

  RunTrace trace;
  if (!spec.resume_from.empty()) {
    trace.resumed_at = world.completed_windows();
    trace.resumed_table_epoch = world.engine().table_epoch();
    trace.resumed_table_digest = table_digest(world);
  }
  World::Hooks hooks;
  hooks.on_signals = [&](std::int64_t window, TimePoint window_end,
                         std::vector<signals::StalenessSignal>&& sigs) {
    // The table epoch is a plain counter of windows absorbed so far.
    EXPECT_EQ(world.engine().table_epoch(),
              static_cast<std::uint64_t>(window + 1));
    if (spec.table_digests) trace.table_digests.push_back(table_digest(world));
    for (const signals::StalenessSignal& s : sigs) {
      trace.signals.emplace_back(window, s.pair.probe, s.pair.dst.value(),
                                 static_cast<int>(s.technique), s.potential,
                                 s.border_index, s.time.seconds());
    }
    if (spec.ops && window % 7 == 3) {
      std::vector<tr::PairKey> plan = world.plan_refreshes(2);
      if (!plan.empty()) world.refresh_pair(plan.front(), window_end);
    }
  };
  hooks.on_day = [&](int, TimePoint day_end) {
    if (spec.ops && !world.ground_truth().pairs().empty()) {
      world.refresh_pair(world.ground_truth().pairs().front(), day_end);
    }
  };

  world.run_until(world.corpus_t0(), hooks);
  world.initialize_corpus();
  const std::int64_t windows = total_windows(params);
  const std::int64_t stop =
      spec.stop_window >= 0 ? spec.stop_window : windows;
  const std::int64_t mid = windows / 2;
  if (spec.ops && world.completed_windows() < mid && stop > mid) {
    // A between-run_until op (ReplayPoint::kBoundary). Skipped when the
    // resume point is already past mid: the WAL replays it instead.
    world.run_until(world.start() + mid * world.window_seconds(), hooks);
    world.refresh_pair(world.ground_truth().pairs().back(),
                       world.start() + mid * world.window_seconds());
  }
  world.run_until(world.start() + stop * world.window_seconds(), hooks);
  if (stop < windows) return trace;  // crashed mid-run, no final state

  trace.stale = world.engine().stale_pairs();
  trace.calibration_digest = world.engine().calibration().digest();
  trace.semantic_stats = world.semantic_stats_json();
  std::ostringstream corpus;
  std::vector<tr::Traceroute> finals;
  for (const tr::PairKey& pair : world.ground_truth().pairs()) {
    finals.push_back(world.issue_corpus_traceroute(pair, world.end()));
  }
  io::write_traceroutes(corpus, finals);
  trace.corpus_bytes = corpus.str();
  trace.finished = true;
  return trace;
}

void expect_same_final_state(const RunTrace& want, const RunTrace& got,
                             const std::string& label) {
  ASSERT_TRUE(want.finished && got.finished) << label;
  EXPECT_EQ(want.stale, got.stale) << label;
  EXPECT_EQ(want.calibration_digest, got.calibration_digest) << label;
  EXPECT_EQ(want.semantic_stats, got.semantic_stats) << label;
  EXPECT_EQ(want.corpus_bytes, got.corpus_bytes) << label;
}

// Resume expected to fail during World construction; returns the error.
store::StoreError resume_error(WorldParams params, const DriveSpec& spec) {
  params.checkpoint_dir = spec.checkpoint_dir;
  params.checkpoint_every = spec.checkpoint_every;
  params.resume_from = spec.resume_from;
  params.resume_window = spec.resume_window;
  try {
    World world(params);
  } catch (const store::StoreError& e) {
    return e;
  }
  ADD_FAILURE() << "resume unexpectedly succeeded";
  return store::StoreError(store::StoreError::Kind::kIo, "unreachable");
}

// --- the checkpointed run is the same run ---

// Turning checkpointing on must not perturb the run: snapshot writes and
// WAL appends are side effects, not timeline inputs.
TEST(CheckpointResume, CheckpointingIsOutputInvisible) {
  WorldParams params = tiny_params(21);
  TempDir dir("invisible");
  DriveSpec with;
  with.checkpoint_dir = dir.str();
  with.checkpoint_every = 4;
  RunTrace checkpointed = drive(params, with);
  RunTrace plain = drive(params, DriveSpec{});
  ASSERT_GT(checkpointed.signals.size(), 0u)
      << "world too quiet to exercise the engine";
  EXPECT_EQ(plain.signals, checkpointed.signals);
  expect_same_final_state(plain, checkpointed, "checkpointing on vs off");

  // The directory really is a checkpoint store: periodic snapshots plus a
  // WAL that starts with the corpus-init op.
  std::vector<std::int64_t> snaps = store::list_snapshots(dir.str());
  ASSERT_FALSE(snaps.empty());
  EXPECT_EQ(snaps.front(), 4);
  EXPECT_EQ(snaps.back(), total_windows(params));
  std::vector<store::WalOp> ops = store::wal_read(dir.str());
  ASSERT_FALSE(ops.empty());
  EXPECT_EQ(ops.front().type, "init");
  EXPECT_EQ(ops.front().clock, 0);
}

// --- the every-k sweep ---
// Resume at every single window boundary must reproduce the uninterrupted
// run: the post-k signal stream and the complete final state. Split into
// thirds so ctest can run the sweep in parallel.
void sweep_every_window(std::uint64_t seed, std::int64_t lo, std::int64_t hi) {
  WorldParams params = tiny_params(seed);
  TempDir dir("sweep");
  DriveSpec cold_spec;
  cold_spec.checkpoint_dir = dir.str();
  cold_spec.table_digests = true;
  RunTrace cold = drive(params, cold_spec);
  ASSERT_GT(cold.signals.size(), 0u)
      << "world too quiet to exercise the engine";
  ASSERT_EQ(cold.table_digests.size(),
            static_cast<std::size_t>(total_windows(params)));
  ASSERT_NE(cold.table_digests.front(), cold.table_digests.back())
      << "table never changed; the table comparison would be vacuous";
  for (std::int64_t k = lo; k <= hi; ++k) {
    DriveSpec spec;
    spec.resume_from = dir.str();
    spec.resume_window = k;
    RunTrace warm = drive(params, spec);
    const std::string label = "k=" + std::to_string(k);
    EXPECT_EQ(warm.resumed_at, k) << label;
    // The resumed world restores the cold run's table and epoch at k.
    EXPECT_EQ(warm.resumed_table_epoch, static_cast<std::uint64_t>(k))
        << label;
    EXPECT_EQ(warm.resumed_table_digest,
              cold.table_digests[static_cast<std::size_t>(k - 1)])
        << label;
    EXPECT_EQ(window_suffix(cold.signals, k), warm.signals) << label;
    expect_same_final_state(cold, warm, label);
  }
}

TEST(CheckpointResume, ResumeAtEveryWindowFirstThird) {
  sweep_every_window(31, 1, 32);
}
TEST(CheckpointResume, ResumeAtEveryWindowMiddleThird) {
  sweep_every_window(31, 33, 64);
}
TEST(CheckpointResume, ResumeAtEveryWindowLastThird) {
  WorldParams params = tiny_params(31);
  sweep_every_window(31, 65, total_windows(params));
}

// --- the (shards x threads x fault plan) grid ---
// Every grid point writes its own checkpoint and resumes at mid-run; the
// resumed run must match both its own cold run and the serial single-shard
// baseline (tying the resume contract to the engine determinism contract).
void grid_resume(bool faulted) {
  const std::uint64_t seed = faulted ? 47 : 46;
  WorldParams serial = tiny_params(seed, 1, 1, faulted);
  RunTrace baseline = drive(serial, DriveSpec{});
  ASSERT_GT(baseline.signals.size(), 0u)
      << "world too quiet to exercise the engine";
  const std::int64_t k = total_windows(serial) / 2;
  for (int shards : {1, 2}) {
    for (int threads : {1, 4}) {
      WorldParams params = tiny_params(seed, threads, shards, faulted);
      TempDir dir("grid");
      DriveSpec cold_spec;
      cold_spec.checkpoint_dir = dir.str();
      cold_spec.checkpoint_every = 4;  // k is a multiple: exact snapshot
      RunTrace cold = drive(params, cold_spec);
      DriveSpec warm_spec;
      warm_spec.resume_from = dir.str();
      warm_spec.resume_window = k;
      RunTrace warm = drive(params, warm_spec);
      std::ostringstream os;
      os << "shards=" << shards << " threads=" << threads
         << " faulted=" << faulted;
      const std::string point = os.str();
      EXPECT_EQ(baseline.signals, cold.signals) << point;
      EXPECT_EQ(warm.resumed_at, k) << point;
      EXPECT_EQ(window_suffix(baseline.signals, k), warm.signals) << point;
      expect_same_final_state(baseline, warm, point);
    }
  }
}

TEST(CheckpointResume, GridResumeMatchesColdRun) { grid_resume(false); }
TEST(CheckpointResume, FaultedGridResumeMatchesColdRun) {
  grid_resume(true);
}

// Threads are a pure throughput knob, so a snapshot written at one thread
// count must resume at another (the fingerprint deliberately excludes it)
// and still reproduce the run byte for byte.
TEST(CheckpointResume, ResumeAcrossThroughputKnobs) {
  WorldParams writer = tiny_params(52, /*threads=*/1, /*shards=*/2);
  TempDir dir("knobs");
  DriveSpec cold_spec;
  cold_spec.checkpoint_dir = dir.str();
  cold_spec.checkpoint_every = 8;
  RunTrace cold = drive(writer, cold_spec);
  WorldParams reader = tiny_params(52, /*threads=*/4, /*shards=*/2);
  DriveSpec warm_spec;
  warm_spec.resume_from = dir.str();
  warm_spec.resume_window = 40;
  RunTrace warm = drive(reader, warm_spec);
  EXPECT_EQ(window_suffix(cold.signals, 40), warm.signals);
  expect_same_final_state(cold, warm,
                          "threads=1 snapshot resumed at threads=4");
}

// --- the WAL tail ---

// A run that snapshots every 8 windows, logs exogenous refresh-cycle ops
// through the World wrappers, and crashes mid-cadence must resume at the
// furthest reconstructible state (last snapshot + WAL tail) and then — with
// the driver re-attached — converge with the run that never crashed. The
// resumed run keeps checkpointing into the same directory, so a second
// resume from the rewritten store must work too.
TEST(CheckpointResume, WalTailReplayAfterMidCadenceCrash) {
  WorldParams params = tiny_params(63);
  TempDir dir("crash");

  DriveSpec ref_spec;
  ref_spec.ops = true;
  RunTrace reference = drive(params, ref_spec);
  ASSERT_GT(reference.signals.size(), 0u);

  DriveSpec crash_spec;
  crash_spec.checkpoint_dir = dir.str();
  crash_spec.checkpoint_every = 8;
  crash_spec.ops = true;
  crash_spec.stop_window = 21;  // between the snapshots at 16 and 24
  RunTrace crashed = drive(params, crash_spec);
  EXPECT_FALSE(crashed.finished);
  {
    // The WAL really holds the exogenous ops the hooks issued.
    std::vector<store::WalOp> ops = store::wal_read(dir.str());
    bool saw_plan = false, saw_refresh = false;
    for (const store::WalOp& op : ops) {
      saw_plan |= op.type == "plan";
      saw_refresh |= op.type == "refresh";
    }
    EXPECT_TRUE(saw_plan);
    EXPECT_TRUE(saw_refresh);
  }

  DriveSpec resume_spec;
  resume_spec.checkpoint_dir = dir.str();  // keep checkpointing where we left
  resume_spec.checkpoint_every = 8;
  resume_spec.resume_from = dir.str();
  resume_spec.ops = true;
  RunTrace warm = drive(params, resume_spec);
  // Crash-resume granularity: at least the last snapshot, at most the crash
  // point (windows closed after the last snapshot/op are legitimately lost).
  EXPECT_GE(warm.resumed_at, 16);
  EXPECT_LE(warm.resumed_at, 21);
  EXPECT_EQ(window_suffix(reference.signals, warm.resumed_at), warm.signals);
  expect_same_final_state(reference, warm, "first resume after crash");

  // Second generation: the continued run rewrote the WAL tail and kept
  // snapshotting, so resuming the resumed run is just as exact.
  DriveSpec again_spec;
  again_spec.resume_from = dir.str();
  again_spec.resume_window = 40;
  again_spec.ops = true;
  RunTrace again = drive(params, again_spec);
  EXPECT_EQ(again.resumed_at, 40);
  EXPECT_EQ(window_suffix(reference.signals, 40), again.signals);
  expect_same_final_state(reference, again, "resume of the resumed run");
}

// No snapshot at all (cadence longer than the crashed run): resume must
// rebuild purely from the WAL — full live replay from window zero.
TEST(CheckpointResume, ResumeFromWalOnlyWhenNoSnapshotExists) {
  WorldParams params = tiny_params(64);
  TempDir dir("walonly");
  DriveSpec ref_spec;
  ref_spec.ops = true;
  RunTrace reference = drive(params, ref_spec);

  DriveSpec crash_spec;
  crash_spec.checkpoint_dir = dir.str();
  crash_spec.checkpoint_every = 200;  // never reached: WAL is all there is
  crash_spec.ops = true;
  crash_spec.stop_window = 21;
  drive(params, crash_spec);
  EXPECT_TRUE(store::list_snapshots(dir.str()).empty());

  DriveSpec resume_spec;
  resume_spec.resume_from = dir.str();
  resume_spec.ops = true;
  RunTrace warm = drive(params, resume_spec);
  EXPECT_GT(warm.resumed_at, 0);
  EXPECT_LE(warm.resumed_at, 21);
  EXPECT_EQ(window_suffix(reference.signals, warm.resumed_at), warm.signals);
  expect_same_final_state(reference, warm, "WAL-only resume");
}

// --- storage faults on the checkpoint path (DESIGN.md §14) ---

// (crash-at-window-k x io-fault-seed) grid under a silent-only fault plan
// (torn writes, bit flips, crash-renames — nothing is ever reported to the
// writer). The crashed directory holds checksummed-but-damaged artifacts;
// a RecoveryManager scrub must turn it back into one the resume path
// loads, and the resumed run must converge with the never-faulted,
// never-crashed reference. Storage faults are a robustness knob outside
// the params fingerprint, so the faulted writer's snapshots anchor a
// fault-free resume and vice versa.
//
// No exogenous WAL ops here: a torn append can sever the log *inside* a
// hook's op group, and replaying a partial group while the live hook
// re-issues it is exactly the duplicate-delivery hazard the supervisor's
// resume_window = last_hook_window + 1 discipline exists to prevent
// (pinned in recovery_test.cpp). An unsupervised resume_window = -1 is
// only exact for state the world re-simulates deterministically.
TEST(CheckpointResume, SilentFaultCrashScrubResumeGrid) {
  WorldParams params = tiny_params(65);
  RunTrace reference = drive(params, DriveSpec{});
  ASSERT_GT(reference.signals.size(), 0u)
      << "world too quiet to exercise the engine";

  for (std::int64_t k : {9, 21}) {
    for (std::uint64_t io_seed : {5u, 6u}) {
      const std::string label =
          "k=" + std::to_string(k) + " io_seed=" + std::to_string(io_seed);
      TempDir dir("silent");
      WorldParams faulted = params;
      faulted.io_fault_plan.torn_write_rate = 0.05;
      faulted.io_fault_plan.bit_flip_rate = 0.03;
      faulted.io_fault_plan.crash_rename_rate = 0.05;
      faulted.io_fault_plan.seed = io_seed;

      DriveSpec crash_spec;
      crash_spec.checkpoint_dir = dir.str();
      crash_spec.checkpoint_every = 4;
      crash_spec.stop_window = k;
      RunTrace crashed = drive(faulted, crash_spec);
      EXPECT_FALSE(crashed.finished) << label;

      // Scrub exactly as the supervisor would before a resume: damaged
      // snapshots and stranded temp files quarantined, the WAL truncated
      // at its first bad frame.
      store::RecoveryManager manager(dir.str());
      manager.scrub(World::fingerprint(faulted));

      DriveSpec resume_spec;
      resume_spec.resume_from = dir.str();
      RunTrace warm = drive(faulted, resume_spec);
      EXPECT_LE(warm.resumed_at, k) << label;
      EXPECT_EQ(window_suffix(reference.signals, warm.resumed_at),
                warm.signals)
          << label;
      expect_same_final_state(reference, warm, label);
    }
  }
}

// Reported-but-transient faults under a retry budget: every injected
// ENOSPC / EIO clears within the policy's attempts, so the run completes
// without crashing, the final state is byte-identical to the fault-free
// reference, and the retry layer's tallies prove the plan actually fired.
TEST(CheckpointResume, TransientReportedFaultsAreInvisibleUnderRetry) {
  WorldParams params = tiny_params(66);
  RunTrace reference = drive(params, DriveSpec{});
  ASSERT_GT(reference.signals.size(), 0u);

  TempDir dir("transient");
  WorldParams faulted = params;
  faulted.checkpoint_dir = dir.str();
  faulted.checkpoint_every = 4;
  faulted.io_fault_plan.enospc_rate = 0.05;
  faulted.io_fault_plan.eio_write_rate = 0.03;
  faulted.io_fault_plan.eio_fsync_rate = 0.02;
  faulted.io_fault_plan.transient_fraction = 1.0;  // retries always win
  faulted.io_fault_plan.transient_clears_after = 2;
  faulted.io_fault_plan.seed = 7;
  faulted.io_retry.max_attempts = 4;
  faulted.io_retry.base_delay_us = 10;
  faulted.io_retry.max_delay_us = 100;

  World world(faulted);
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
  std::ostringstream corpus;
  std::vector<tr::Traceroute> finals;
  for (const tr::PairKey& pair : world.ground_truth().pairs()) {
    finals.push_back(world.issue_corpus_traceroute(pair, world.end()));
  }
  io::write_traceroutes(corpus, finals);
  trace.corpus_bytes = corpus.str();
  trace.finished = true;

  EXPECT_EQ(reference.signals, trace.signals);
  expect_same_final_state(reference, trace, "transient faults + retry");

  ASSERT_NE(world.io_context(), nullptr);
  const store::IoStats& io = world.io_context()->stats();
  EXPECT_GT(io.injected_enospc + io.injected_eio, 0)
      << "fault plan never fired; the test exercised nothing";
  EXPECT_GT(io.retries, 0);
  EXPECT_EQ(io.gave_up, 0) << "a transient fault exhausted the retry budget";
}

// --- the fig11 warm-start arm, in miniature (bench reproducibility) ---
// An archival-reuse-flavored world (no free recalibration, probe churn)
// checkpointed to the end and resumed at the final window: the warm world
// must report the same rrr-stats-v1 semantic snapshot byte for byte — the
// property the bench-level smoke test (tools/resume_smoke.py) checks
// through the real fig11 binary and its --stats-json files.
TEST(CheckpointResume, SemanticStatsByteIdenticalColdVsWarmFinalWindow) {
  WorldParams params = tiny_params(55);
  params.recalibration_interval_windows = 0;
  params.platform.probe_death_per_day = 0.006;
  TempDir dir("fig11");
  DriveSpec cold_spec;
  cold_spec.checkpoint_dir = dir.str();
  cold_spec.checkpoint_every = 16;
  RunTrace cold = drive(params, cold_spec);
  DriveSpec warm_spec;
  warm_spec.resume_from = dir.str();  // default window: furthest state
  RunTrace warm = drive(params, warm_spec);
  EXPECT_EQ(warm.resumed_at, total_windows(params));
  EXPECT_TRUE(warm.signals.empty());  // nothing left to run
  ASSERT_NE(cold.semantic_stats.find("rrr_signals_emitted_total"),
            std::string::npos);
  expect_same_final_state(cold, warm, "cold vs warm final-window resume");
}

// --- rejection: malformed snapshots are classified errors, not UB ---

TEST(CheckpointResume, MalformedSnapshotRejectionTable) {
  WorldParams params = tiny_params(71);
  TempDir dir("malformed");
  DriveSpec make_spec;
  make_spec.checkpoint_dir = dir.str();
  make_spec.checkpoint_every = 2;
  make_spec.stop_window = 6;
  drive(params, make_spec);
  const std::string snap_path = dir.str() + "/" + store::snapshot_name(6);
  const std::string good = read_bytes(snap_path);
  ASSERT_GT(good.size(), 64u);

  std::string future_version;
  store::append_frame_versioned(future_version, "rrr.snapshot",
                                "from-the-future",
                                store::kFormatVersion + 1);
  // Version checking is exact-match in both directions: a v1 snapshot (no
  // table attribute dictionaries) must be rejected, not misparsed.
  std::string old_version;
  store::append_frame_versioned(old_version, "rrr.snapshot",
                                "from-the-past", store::kFormatVersion - 1);

  struct Case {
    const char* label;
    std::string bytes;
    store::StoreError::Kind want;
  };
  std::string checksum_flip = good;
  checksum_flip[checksum_flip.size() - 1] ^= 0x5A;  // inside the checksum
  std::string payload_flip = good;
  payload_flip[good.size() / 2] ^= 0x5A;  // inside a section payload
  std::string bad_magic = good;
  bad_magic[0] ^= 0x20;
  std::vector<Case> cases = {
      // No bytes at all is not a short frame but a structurally headerless
      // snapshot — classified kCorrupt ("snapshot missing header frame").
      {"empty file", std::string(), store::StoreError::Kind::kCorrupt},
      {"truncated mid-frame", good.substr(0, good.size() / 2),
       store::StoreError::Kind::kTruncated},
      {"truncated mid-header", good.substr(0, 10),
       store::StoreError::Kind::kTruncated},
      {"checksum byte flipped", checksum_flip,
       store::StoreError::Kind::kBadChecksum},
      {"payload byte flipped", payload_flip,
       store::StoreError::Kind::kBadChecksum},
      {"bad magic", bad_magic, store::StoreError::Kind::kCorrupt},
      {"future container version", future_version,
       store::StoreError::Kind::kVersionSkew},
      {"pre-dictionary container version", old_version,
       store::StoreError::Kind::kVersionSkew},
  };
  for (const Case& c : cases) {
    write_bytes(snap_path, c.bytes);
    DriveSpec spec;
    spec.resume_from = dir.str();
    spec.resume_window = 6;
    store::StoreError error = resume_error(params, spec);
    EXPECT_EQ(error.kind(), c.want)
        << c.label << ": " << error.what();
  }
  // Restore the pristine snapshot: the store must work again untouched.
  write_bytes(snap_path, good);
  DriveSpec ok_spec;
  ok_spec.resume_from = dir.str();
  ok_spec.resume_window = 6;
  RunTrace warm = drive(params, ok_spec);
  EXPECT_EQ(warm.resumed_at, 6);
  EXPECT_TRUE(warm.finished);
}

// The v2 table snapshot carries local attribute dictionaries (paths and
// community sets as *content*, routes as u32 indices). The bytes must be a
// pure function of table content — independent of the process-global
// intern-id assignment history — so saving, loading into a world whose
// interner assigned ids in a different order, and saving again is
// byte-identical.
TEST(CheckpointResume, TableSnapshotDictionaryIsContentPure) {
  auto make_record = [](std::uint32_t vp, std::uint32_t net,
                        std::initializer_list<std::uint32_t> hops) {
    bgp::BgpRecord record;
    record.vp = vp;
    record.prefix = Prefix(Ipv4(net), 24);
    AsPath path;
    for (std::uint32_t h : hops) path.push_back(Asn(h));
    record.as_path = path;
    CommunitySet comms;
    comms.insert(Community(Asn(hops.size() ? *hops.begin() : 1), 7));
    record.communities = comms;
    record.time = TimePoint(1000);
    return record;
  };

  std::string first_bytes;
  {
    Interner::ScopedInstance interner;
    bgp::VpTableView table;
    table.apply(make_record(1, 0x0A000000, {64500, 64501}));
    table.apply(make_record(1, 0x0A000100, {64502}));
    table.apply(make_record(2, 0x0A000000, {64500, 64501}));
    store::Encoder enc;
    table.save_state(enc);
    first_bytes = enc.buffer();
  }
  std::string second_bytes;
  {
    Interner::ScopedInstance interner;
    // Pre-seed the fresh interner so the same contents land on *different*
    // global ids than in the first scope.
    for (std::uint32_t i = 0; i < 50; ++i) {
      AsPath noise;
      noise.push_back(Asn(90000 + i));
      interner.get().path_id(noise);
    }
    bgp::VpTableView table;
    store::Decoder dec(first_bytes);
    table.load_state(dec);
    store::Encoder enc;
    table.save_state(enc);
    second_bytes = enc.buffer();
  }
  ASSERT_FALSE(first_bytes.empty());
  EXPECT_EQ(first_bytes, second_bytes);
}

// A route row whose dictionary index points past the dictionary is a
// classified kCorrupt, not an out-of-bounds read.
TEST(CheckpointResume, TableSnapshotDanglingDictionaryIndexIsRejected) {
  store::Encoder enc;
  enc.u32(0);  // empty path dictionary
  enc.u32(0);  // empty community-set dictionary
  enc.u64(1);  // one VP
  enc.u32(7);  // VP id
  enc.u64(1);  // one route
  store::put(enc, Prefix(Ipv4(0x0A000000), 24));
  enc.u32(0);  // path index 0 — but the dictionary is empty
  enc.u32(0);  // community index, same
  bgp::VpTableView table;
  store::Decoder dec(enc.buffer());
  try {
    table.load_state(dec);
    FAIL() << "expected StoreError";
  } catch (const store::StoreError& e) {
    EXPECT_EQ(e.kind(), store::StoreError::Kind::kCorrupt);
  }
}

// Element counts and enum bytes come straight from the snapshot payload.
// A count no payload could hold must be kCorrupt before it sizes an
// allocation (not a std::length_error or a giant reserve), and an enum
// byte outside its enum must be kCorrupt, not a bogus enumerator. Each row
// decodes one hostile payload; any other exception type fails the row.
TEST(CheckpointResume, DecodedCountAndEnumRejectionTable) {
  auto u64_bytes = [](std::uint64_t v) {
    store::Encoder enc;
    enc.u64(v);
    return enc.take();
  };

  // A small engine mid-run, with a corpus and BGP state, saved whole.
  WorldParams params = tiny_params(79);
  World world(params);
  World::Hooks hooks;
  world.run_until(world.corpus_t0(), hooks);
  world.initialize_corpus();
  world.run_until(world.start() + 6 * world.window_seconds(), hooks);
  store::Encoder engine_enc;
  world.engine().save_state(engine_enc);
  const std::string engine_bytes = engine_enc.take();
  auto load_engine = [&world](const std::string& bytes) {
    store::Decoder dec(bytes);
    world.engine().load_state(dec);
  };

  // The facade's pending-record count follows its RNG state and table.
  std::string huge_backlog = engine_bytes;
  {
    store::Decoder dec(engine_bytes);
    dec.str();
    dec.u64();  // table epoch
    bgp::VpTableView scratch;
    scratch.load_state(dec);
    const std::size_t at = engine_bytes.size() - dec.remaining();
    huge_backlog.replace(at, 8, u64_bytes(std::uint64_t{1} << 62));
  }

  // The freshness byte of the first corpus pair sits right after its
  // processed trace and before its watched window.
  std::string bad_freshness = engine_bytes;
  {
    const std::vector<signals::PairStateView> states =
        world.engine().pair_states();
    ASSERT_FALSE(states.empty());
    const signals::PairStateView& first = states.front();
    const tracemap::ProcessedTrace* processed =
        world.engine().processed_of(first.pair);
    ASSERT_NE(processed, nullptr);
    store::Encoder needle;
    tracemap::put_processed(needle, *processed);
    const std::size_t freshness_at = needle.buffer().size();
    needle.u8(static_cast<std::uint8_t>(first.freshness));
    needle.i64(first.watched_window);
    const std::size_t at = engine_bytes.find(needle.buffer());
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(at, engine_bytes.rfind(needle.buffer()));
    bad_freshness[at + freshness_at] = 7;
  }

  // Whole dictionary sections of a table snapshot.
  store::Encoder huge_dictionary;
  huge_dictionary.u32(0xFFFFFFFFu);  // path dictionary entries
  store::Encoder huge_dictionary_path;
  huge_dictionary_path.u32(1);  // one path dictionary entry ...
  huge_dictionary_path.u64(std::uint64_t{1} << 62);  // ... of 2^62 hops

  store::Encoder bad_signal;
  signals::put_signal(bad_signal, signals::StalenessSignal{});
  std::string bad_signal_bytes = bad_signal.take();
  bad_signal_bytes[0] = static_cast<char>(signals::kTechniqueCount);
  store::Encoder bad_active;
  signals::put_active(bad_active, signals::ActiveSignal{});
  std::string bad_active_bytes = bad_active.take();
  bad_active_bytes[8] = static_cast<char>(0xFF);  // after the potential id

  // Monitor snapshots with no entries whose final id list names potential
  // 999, which the snapshot never defined.
  constexpr std::uint64_t kUndefinedId = 999;
  auto undefined_id_tail = [](store::Encoder& enc, int empty_counts) {
    for (int i = 0; i < empty_counts; ++i) enc.u64(0);
    enc.u64(1);
    enc.u64(kUndefinedId);
  };
  store::Encoder aspath_undefined;  // entries, pairs, dsts; dirty list
  undefined_id_tail(aspath_undefined, 3);
  aspath_undefined.u64(0);  // hot list
  store::Encoder border_undefined;  // entries, pairs; touched list
  undefined_id_tail(border_undefined, 2);
  store::Encoder burst_undefined;  // entries, pairs, dsts; dirty list
  undefined_id_tail(burst_undefined, 3);
  store::Encoder community_undefined;
  for (int i = 0; i < 8; ++i) community_undefined.i64(0);  // stats
  undefined_id_tail(community_undefined, 3);  // entries, pairs, dsts; pending
  store::Encoder subpath_undefined;  // segments, pairs; touched list
  undefined_id_tail(subpath_undefined, 2);
  subpath_undefined.u64(0);  // observations
  const signals::BgpContext no_bgp;
  signals::CommunityReputation reputation;

  // Feed-health snapshots: one BGP stream whose count ring and position,
  // and a feed totals ring and position, are as given; the tracker's own
  // ring is the default 48 windows.
  auto feed_health = [](std::uint64_t recent_size, std::uint64_t recent_pos,
                        std::uint64_t totals_size, std::uint64_t totals_pos) {
    store::Encoder enc;
    enc.u64(1);  // one BGP stream
    enc.u32(7);
    enc.f64(3.0);
    enc.u8(0);  // healthy
    enc.i64(0);
    enc.i64(0);
    enc.i64(5);
    enc.u64(recent_size);
    for (std::uint64_t i = 0; i < recent_size; ++i) enc.i64(1);
    enc.u64(recent_pos);
    enc.u64(0);  // pending
    enc.u64(totals_size);
    for (std::uint64_t i = 0; i < totals_size; ++i) enc.i64(1);
    enc.u64(totals_pos);
    enc.i64(5);
    for (int i = 0; i < 6; ++i) enc.u64(0);  // trace feed, collectors, VPs
    enc.boolean(false);
    enc.boolean(false);
    enc.f64(0.0);
    enc.f64(0.0);
    return enc.take();
  };
  auto load_feed_health = [](const std::string& bytes) {
    signals::FeedHealthParams params;
    params.enabled = true;
    signals::FeedHealthTracker tracker(params);
    store::Decoder dec(bytes);
    tracker.load_state(dec);
  };
  {
    // The same layout with in-range rings and with never-closed (empty)
    // rings loads: the rows below fail for their ring fields alone.
    const signals::FeedHealthParams defaults;
    const auto ring =
        static_cast<std::uint64_t>(defaults.max_horizon_windows);
    load_feed_health(feed_health(ring, ring - 1, ring, 0));
    load_feed_health(feed_health(0, 0, 0, 0));
  }

  struct Row {
    const char* label;
    std::function<void()> decode;
  };
  const std::vector<Row> rows = {
      {"AS path count 2^62 with no elements",
       [&] {
         const std::string bytes = u64_bytes(std::uint64_t{1} << 62);
         store::Decoder dec(bytes);
         store::get_as_path(dec);
       }},
      {"table path dictionary count 2^32-1",
       [&] {
         store::Decoder dec(huge_dictionary.buffer());
         bgp::VpTableView().load_state(dec);
       }},
      {"table path dictionary entry of 2^62 hops",
       [&] {
         store::Decoder dec(huge_dictionary_path.buffer());
         bgp::VpTableView().load_state(dec);
       }},
      {"engine pending-record count 2^62",
       [&] { load_engine(huge_backlog); }},
      {"engine corpus freshness byte 7", [&] { load_engine(bad_freshness); }},
      {"signal technique byte past the last technique",
       [&] {
         store::Decoder dec(bad_signal_bytes);
         signals::get_signal(dec);
       }},
      {"active-signal technique byte 0xFF",
       [&] {
         store::Decoder dec(bad_active_bytes);
         signals::get_active(dec);
       }},
      {"AS-path monitor dirty list names an undefined potential",
       [&] {
         store::Decoder dec(aspath_undefined.buffer());
         signals::AsPathMonitor(no_bgp).load_state(dec);
       }},
      {"border monitor touched list names an undefined potential",
       [&] {
         store::Decoder dec(border_undefined.buffer());
         signals::BorderMonitor().load_state(dec);
       }},
      {"burst monitor dirty list names an undefined potential",
       [&] {
         store::Decoder dec(burst_undefined.buffer());
         signals::BurstMonitor(no_bgp).load_state(dec);
       }},
      {"community monitor pending list names an undefined potential",
       [&] {
         store::Decoder dec(community_undefined.buffer());
         signals::CommunityMonitor(no_bgp, reputation).load_state(dec);
       }},
      {"subpath monitor touched list names an undefined potential",
       [&] {
         store::Decoder dec(subpath_undefined.buffer());
         signals::SubpathMonitor().load_state(dec);
       }},
      {"feed-health stream position equal to its ring size",
       [&] { load_feed_health(feed_health(48, 48, 48, 0)); }},
      {"feed-health totals position past its ring",
       [&] { load_feed_health(feed_health(48, 0, 48, 1000)); }},
      {"feed-health empty stream ring at position 5",
       [&] { load_feed_health(feed_health(0, 5, 48, 0)); }},
      {"feed-health empty totals ring at position 1",
       [&] { load_feed_health(feed_health(48, 0, 0, 1)); }},
      {"feed-health stream ring of 100 windows, tracker ring 48",
       [&] { load_feed_health(feed_health(100, 60, 48, 0)); }},
  };
  for (const Row& row : rows) {
    try {
      row.decode();
      ADD_FAILURE() << row.label << ": decoded without error";
    } catch (const store::StoreError& e) {
      EXPECT_EQ(e.kind(), store::StoreError::Kind::kCorrupt)
          << row.label << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << row.label << ": unclassified " << e.what();
    }
  }
  // The hostile loads leave the engine half-restored; the pristine bytes
  // must still load cleanly over it.
  store::Decoder dec(engine_bytes);
  world.engine().load_state(dec);
  EXPECT_TRUE(dec.done());
}

TEST(CheckpointResume, CorruptedWalIsRejected) {
  WorldParams params = tiny_params(72);
  TempDir dir("badwal");
  DriveSpec make_spec;
  make_spec.checkpoint_dir = dir.str();
  make_spec.stop_window = 4;
  drive(params, make_spec);
  const std::string wal_path = dir.str() + "/wal.log";
  std::string wal = read_bytes(wal_path);
  ASSERT_FALSE(wal.empty());
  wal[wal.size() / 2] ^= 0x5A;
  write_bytes(wal_path, wal);
  DriveSpec spec;
  spec.resume_from = dir.str();
  EXPECT_EQ(resume_error(params, spec).kind(),
            store::StoreError::Kind::kBadChecksum);
}

TEST(CheckpointResume, UnknownWalOpIsRejected) {
  WorldParams params = tiny_params(73);
  TempDir dir("bogusop");
  DriveSpec make_spec;
  make_spec.checkpoint_dir = dir.str();
  make_spec.stop_window = 4;
  drive(params, make_spec);
  store::WalOp bogus;
  bogus.clock = 2;
  bogus.point = 2;  // ReplayPoint::kBoundary
  bogus.type = "defragment";
  store::wal_append(dir.str(), bogus);
  DriveSpec spec;
  spec.resume_from = dir.str();
  spec.resume_window = 4;
  store::StoreError error = resume_error(params, spec);
  EXPECT_EQ(error.kind(), store::StoreError::Kind::kCorrupt);
  EXPECT_NE(std::string(error.what()).find("defragment"), std::string::npos);
}

TEST(CheckpointResume, FingerprintMismatchIsRejected) {
  WorldParams writer = tiny_params(74);
  TempDir dir("fingerprint");
  DriveSpec make_spec;
  make_spec.checkpoint_dir = dir.str();
  make_spec.stop_window = 4;
  drive(writer, make_spec);
  // A different seed is a different timeline; the snapshot must refuse.
  WorldParams reader = tiny_params(75);
  DriveSpec spec;
  spec.resume_from = dir.str();
  spec.resume_window = 4;
  store::StoreError error = resume_error(reader, spec);
  EXPECT_EQ(error.kind(), store::StoreError::Kind::kCorrupt);
  EXPECT_NE(std::string(error.what()).find("different world parameters"),
            std::string::npos);
}

TEST(CheckpointResume, ShardCountMismatchIsRejected) {
  WorldParams writer = tiny_params(76, /*threads=*/1, /*shards=*/1);
  TempDir dir("shards");
  DriveSpec make_spec;
  make_spec.checkpoint_dir = dir.str();
  make_spec.stop_window = 4;
  drive(writer, make_spec);
  // Shard count shapes the engine's serialized layout; the fingerprint
  // passes (it is a throughput knob) but the engine's own loader refuses.
  WorldParams reader = tiny_params(76, /*threads=*/1, /*shards=*/2);
  DriveSpec spec;
  spec.resume_from = dir.str();
  spec.resume_window = 4;
  EXPECT_EQ(resume_error(reader, spec).kind(),
            store::StoreError::Kind::kCorrupt);
}

TEST(CheckpointResume, ResumeBeyondWorldEndIsRejected) {
  WorldParams params = tiny_params(77);
  TempDir dir("beyond");
  DriveSpec make_spec;
  make_spec.checkpoint_dir = dir.str();
  make_spec.stop_window = 4;
  drive(params, make_spec);
  DriveSpec spec;
  spec.resume_from = dir.str();
  spec.resume_window = total_windows(params) + 10;
  EXPECT_EQ(resume_error(params, spec).kind(),
            store::StoreError::Kind::kCorrupt);
}

TEST(CheckpointResume, MissingResumeDirectoryIsRejected) {
  WorldParams params = tiny_params(78);
  TempDir dir("missing");
  DriveSpec spec;
  spec.resume_from = dir.str() + "/nope";
  EXPECT_EQ(resume_error(params, spec).kind(),
            store::StoreError::Kind::kIo);
}

// --- FeedHealthTracker round-trip (the quarantine state machine) ---
// Save mid-run with one stream quarantined and its EWMA baseline mid-decay;
// the restored tracker's judgements must be bit-identical from there on —
// checked both through the query surface and by re-serializing after every
// subsequent window.
TEST(CheckpointResume, FeedHealthTrackerRoundTripsBitIdentically) {
  signals::FeedHealthParams p;
  p.enabled = true;
  p.warmup_windows = 4;
  p.suspect_windows = 2;
  p.recover_windows = 4;
  p.judge_mass = 8.0;  // short horizons: judgements nearly per window
  p.max_horizon_windows = 8;
  signals::FeedHealthTracker live(p);

  // Collector rrc00 (vp 1) and probe 7 stay healthy; collector rrc01
  // (vp 2) and probe 8 fall silent over [10, 16) and then return, so the
  // save point (after window 17) lands mid-recovery.
  auto feed_window = [&](signals::FeedHealthTracker& t, std::int64_t w) {
    for (int i = 0; i < 6; ++i) {
      t.count_bgp(1, "rrc00", w);
      t.count_trace(7, w);
    }
    if (w < 10 || w >= 16) {
      for (int i = 0; i < 5; ++i) {
        t.count_bgp(2, "rrc01", w);
        t.count_trace(8, w);
      }
    }
    t.close_window(w);
  };
  bool was_dead = false;
  for (std::int64_t w = 0; w < 18; ++w) {
    feed_window(live, w);
    was_dead |= live.trace_state(8) == signals::FeedState::kDead;
  }
  ASSERT_TRUE(was_dead) << "the silent stream never reached kDead";
  ASSERT_TRUE(live.trace_quarantined(8))
      << "save point not mid-quarantine; state "
      << to_string(live.trace_state(8));
  ASSERT_TRUE(live.bgp_quarantined(2));

  store::Encoder enc;
  live.save_state(enc);
  signals::FeedHealthTracker restored(p);
  store::Decoder dec(enc.buffer());
  restored.load_state(dec);
  dec.expect_done();

  // Restoring is lossless: re-serializing yields the same bytes.
  store::Encoder again;
  restored.save_state(again);
  EXPECT_EQ(enc.buffer(), again.buffer());

  for (std::int64_t w = 18; w < 40; ++w) {
    feed_window(live, w);
    feed_window(restored, w);
    const std::string label = "window " + std::to_string(w);
    for (bgp::VpId vp : {bgp::VpId(1), bgp::VpId(2)}) {
      EXPECT_EQ(live.bgp_state(vp), restored.bgp_state(vp)) << label;
      EXPECT_EQ(live.bgp_quarantined(vp), restored.bgp_quarantined(vp))
          << label;
    }
    for (tr::ProbeId probe : {tr::ProbeId(7), tr::ProbeId(8)}) {
      EXPECT_EQ(live.trace_state(probe), restored.trace_state(probe))
          << label;
      EXPECT_EQ(live.trace_quarantined(probe),
                restored.trace_quarantined(probe))
          << label;
    }
    EXPECT_EQ(live.bgp_degraded(), restored.bgp_degraded()) << label;
    EXPECT_EQ(live.trace_degraded(), restored.trace_degraded()) << label;
    EXPECT_EQ(live.bgp_quarantined_fraction(),
              restored.bgp_quarantined_fraction())
        << label;
    EXPECT_EQ(live.trace_quarantined_fraction(),
              restored.trace_quarantined_fraction())
        << label;
    store::Encoder ea, eb;
    live.save_state(ea);
    restored.save_state(eb);
    EXPECT_EQ(ea.buffer(), eb.buffer()) << label;
  }
  // The recovered stream made it back to healthy across the restore.
  EXPECT_EQ(live.trace_state(8), signals::FeedState::kHealthy);
  EXPECT_EQ(restored.trace_state(8), signals::FeedState::kHealthy);
}

// --- on-disk format pinning ---

// The frame layout documented in store/framing.h, reproduced here by hand:
// any accidental layout change (field order, endianness, checksum seeding)
// breaks this before it breaks someone's archived checkpoint.
TEST(CheckpointResume, FrameLayoutMatchesDocumentedSpec) {
  std::string frame;
  store::append_frame(frame, "wal.op", "payload-bytes");

  std::string want;
  auto u32le = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      want.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  auto u64le = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      want.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  want += "RRRS";
  u32le(store::kFormatVersion);
  u64le(6);
  want += "wal.op";
  u64le(13);
  want += "payload-bytes";
  u64le(store::fnv1a64("payload-bytes", store::fnv1a64("wal.op")));
  EXPECT_EQ(frame, want);
}

// Golden snapshot fixture: when RRR_GOLDEN_SNAPSHOT_DIR is set (CI does),
// write a deterministic checkpoint there — uploaded as an artifact so
// format regressions are diffable across PRs — and prove it resumes.
TEST(CheckpointResume, GoldenSnapshotFixture) {
  const char* golden = std::getenv("RRR_GOLDEN_SNAPSHOT_DIR");
  if (golden == nullptr) {
    GTEST_SKIP() << "RRR_GOLDEN_SNAPSHOT_DIR not set";
  }
  store::ensure_dir(golden);
  WorldParams params = tiny_params(7);
  DriveSpec make_spec;
  make_spec.checkpoint_dir = golden;
  make_spec.checkpoint_every = 4;
  make_spec.stop_window = 8;
  drive(params, make_spec);
  DriveSpec spec;
  spec.resume_from = golden;
  spec.resume_window = 8;
  RunTrace warm = drive(params, spec);
  EXPECT_EQ(warm.resumed_at, 8);
  EXPECT_TRUE(warm.finished);
  // Sidecar digest so artifact diffs have a one-line summary.
  const std::string snap =
      std::string(golden) + "/" + store::snapshot_name(8);
  std::ofstream digest(std::string(golden) + "/DIGEST.txt");
  digest << store::snapshot_name(8) << " fnv1a64="
         << store::fnv1a64(read_bytes(snap)) << "\n";
}

}  // namespace
}  // namespace rrr::eval
