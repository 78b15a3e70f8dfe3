// Micro-benchmarks for the performance-critical building blocks: longest
// prefix matching, outlier detectors, route computation, forwarding
// resolution, traceroute processing, and the engine's parallel window
// closing (BM_AdvanceTo; emit BENCH_parallel_scaling.json with
//   --benchmark_filter=AdvanceTo --benchmark_out=BENCH_parallel_scaling.json
//   --benchmark_out_format=json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>

#include "detect/detector.h"
#include "eval/world.h"
#include "netbase/intern.h"
#include "netbase/radix_trie.h"
#include "netbase/rng.h"
#include "runtime/arena.h"
#include "routing/control_plane.h"
#include "topology/builder.h"
#include "tracemap/pipeline.h"
#include "traceroute/platform.h"

namespace {

using namespace rrr;

topo::Topology& shared_topology() {
  static topo::Topology topology = [] {
    topo::TopologyParams params;
    params.seed = 1234;
    return topo::build_topology(params);
  }();
  return topology;
}

void BM_RadixTrieLookup(benchmark::State& state) {
  RadixTrie<int> trie;
  Rng rng(1);
  std::vector<Ipv4> probes;
  for (int i = 0; i < 4096; ++i) {
    auto ip = Ipv4(static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30)));
    trie.insert(Prefix(ip, static_cast<std::uint8_t>(
                               rng.uniform_int(8, 24))),
                i);
    probes.push_back(ip);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.lookup(probes[i++ & 4095]));
  }
}
BENCHMARK(BM_RadixTrieLookup);

void BM_ModifiedZScoreUpdate(benchmark::State& state) {
  detect::ModifiedZScoreDetector detector;
  Rng rng(2);
  for (int i = 0; i < 96; ++i) detector.update(rng.uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.update(rng.uniform()));
  }
}
BENCHMARK(BM_ModifiedZScoreUpdate);

void BM_BitmapUpdate(benchmark::State& state) {
  detect::BitmapDetector detector;
  Rng rng(3);
  for (int i = 0; i < 40; ++i) detector.update(rng.uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.update(rng.uniform()));
  }
}
BENCHMARK(BM_BitmapUpdate);

void BM_RouteComputation(benchmark::State& state) {
  topo::Topology& topology = shared_topology();
  routing::RoutingState rs(topology);
  std::size_t origin = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::compute_routes(
        topology, rs, static_cast<topo::AsIndex>(origin)));
    origin = (origin + 17) % topology.as_count();
  }
}
BENCHMARK(BM_RouteComputation);

void BM_ForwardingResolve(benchmark::State& state) {
  topo::Topology& topology = shared_topology();
  static routing::ControlPlane cp(topology, 5);
  Rng rng(6);
  std::vector<std::pair<topo::AsIndex, Ipv4>> queries;
  for (int i = 0; i < 512; ++i) {
    auto src = static_cast<topo::AsIndex>(rng.index(topology.as_count()));
    auto dst = static_cast<topo::AsIndex>(rng.index(topology.as_count()));
    queries.emplace_back(
        src, Ipv4(topo::as_block(dst).network().value() + 1));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [src, dst] = queries[i++ & 511];
    benchmark::DoNotOptimize(cp.resolver().resolve(
        src, topology.as_at(src).pops.front(), dst, i));
  }
}
BENCHMARK(BM_ForwardingResolve);

routing::ControlPlane& shared_control_plane() {
  static routing::ControlPlane cp(shared_topology(), 7);
  return cp;
}

tr::Platform& shared_platform() {
  static tr::Platform platform(shared_control_plane(), tr::ProberParams{},
                               tr::PlatformParams{});
  return platform;
}

// 256 public-style traceroutes over the shared topology, issued once.
const std::vector<tr::Traceroute>& sample_traces() {
  static const std::vector<tr::Traceroute> traces = [] {
    topo::Topology& topology = shared_topology();
    tr::Platform& platform = shared_platform();
    Rng rng(8);
    std::vector<tr::Traceroute> out;
    for (int i = 0; i < 256; ++i) {
      tr::ProbeId probe = platform.regular_probes()[rng.index(
          platform.regular_probes().size())];
      auto dst_as =
          static_cast<topo::AsIndex>(rng.index(topology.as_count()));
      out.push_back(platform.issue(
          probe, Ipv4(topo::as_block(dst_as).network().value() + 1),
          TimePoint(static_cast<std::int64_t>(i) * 900), i & 0xF));
    }
    return out;
  }();
  return traces;
}

// One traceroute synthesis: forwarding resolution plus the per-hop RTT,
// loss and filtering draws of a fresh per-measurement generator.
void BM_ProberMeasure(benchmark::State& state) {
  topo::Topology& topology = shared_topology();
  tr::Platform& platform = shared_platform();
  tr::Prober prober(shared_control_plane(), tr::ProberParams{});
  Rng rng(10);
  std::vector<std::pair<tr::ProbeId, Ipv4>> queries;
  for (int i = 0; i < 256; ++i) {
    auto dst_as = static_cast<topo::AsIndex>(rng.index(topology.as_count()));
    queries.emplace_back(
        platform.regular_probes()[rng.index(platform.regular_probes().size())],
        Ipv4(topo::as_block(dst_as).network().value() + 1));
  }
  std::int64_t t = 0;
  for (auto _ : state) {
    const auto& [probe, dst] = queries[static_cast<std::size_t>(t) & 255];
    benchmark::DoNotOptimize(prober.measure(platform.probe(probe), dst,
                                            TimePoint(t * 900), t & 0xF));
    ++t;
  }
}
BENCHMARK(BM_ProberMeasure);

// Processing without learning: patch (against an empty patcher), annotate,
// merge the AS path, extract borders.
void BM_TraceProcessing(benchmark::State& state) {
  static tracemap::ProcessingContext processing(shared_topology(), {});
  const std::vector<tr::Traceroute>& traces = sample_traces();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(processing.process(traces[i++ & 255]));
  }
}
BENCHMARK(BM_TraceProcessing);

// The engine's per-trace path: the patcher learns the trace's triples, then
// the trace is processed against everything learned so far.
void BM_TraceIngest(benchmark::State& state) {
  static tracemap::ProcessingContext processing(shared_topology(), {});
  const std::vector<tr::Traceroute>& traces = sample_traces();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(processing.ingest(traces[i++ & 255]));
  }
}
BENCHMARK(BM_TraceIngest);

// End-to-end window closing of the staleness engine, parameterized by
// engine thread count, shard count, and corpus size. One iteration = one
// 900 s window: the feed (public traces, untimed) plus advance_to (timed).
// The signal stream is identical at every (shards, threads) combination
// (the engine's determinism contract); only the wall time changes, so the
// 1-shard 1-thread arg is the serial baseline the others are compared
// against.
struct AdvanceToFixture {
  explicit AdvanceToFixture(int threads, int shards = 1, int pairs = 2000,
                            int num_probes = 700, bool telemetry = false,
                            bool trace = false) {
    eval::WorldParams params;
    params.days = 1;
    params.warmup_days = 1;
    params.corpus_pair_target = pairs;
    params.corpus_dest_count = 40;
    params.public_dest_count = 120;
    params.public_traces_per_window = 800;
    params.platform.num_probes = num_probes;
    params.topology.num_transit = 48;
    params.topology.num_stub = 200;
    params.recalibration_interval_windows = 0;
    params.seed = 20200642;
    params.engine_threads = threads;
    params.engine_shards = shards;
    params.telemetry = telemetry;
    params.trace = trace;
    world = std::make_unique<eval::World>(params);
    world->run_until(world->corpus_t0());
    world->initialize_corpus();
    now = world->corpus_t0();

    // A fixed pool of public traceroutes, replayed every window with
    // shifted timestamps — the per-window feed is identical work.
    Rng rng(9);
    const auto& probes = world->public_probes();
    const auto& dests = world->public_dests();
    for (int i = 0; i < 800 && !probes.empty() && !dests.empty(); ++i) {
      tr::ProbeId probe = probes[rng.index(probes.size())];
      if (!world->platform().probe(probe).active) continue;
      Ipv4 dst = dests[rng.index(dests.size())];
      pool.push_back(world->platform().issue(probe, dst, now, i & 0xF));
    }
  }

  // Feeds one window's worth of traces, timestamps shifted into the
  // current window. Also drains the flight recorder (when tracing) so the
  // rings never fill mid-measurement — a full ring fails pushes fast and
  // would understate the recording cost. The drain itself runs untimed,
  // matching World::run_until's boundary drain.
  void feed_window() {
    if (world->tracer() != nullptr) world->tracer()->drain();
    const std::int64_t w = world->window_seconds();
    std::int64_t spacing =
        pool.empty() ? w
                     : std::max<std::int64_t>(w / std::int64_t(pool.size()), 1);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      tr::Traceroute trace = pool[i];
      trace.time = now + std::int64_t(i) * spacing;
      world->engine().on_public_trace(trace);
    }
  }

  std::unique_ptr<eval::World> world;
  std::vector<tr::Traceroute> pool;
  TimePoint now{0};
};

void BM_AdvanceTo(benchmark::State& state) {
  AdvanceToFixture fixture(static_cast<int>(state.range(0)));
  std::size_t signals = 0;
  for (auto _ : state) {
    state.PauseTiming();
    fixture.feed_window();
    state.ResumeTiming();
    auto sigs =
        fixture.world->engine().advance_to(fixture.now +
                                           fixture.world->window_seconds());
    benchmark::DoNotOptimize(sigs.data());
    signals += sigs.size();
    fixture.now = fixture.now + fixture.world->window_seconds();
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["signals"] = static_cast<double>(signals);
}
// 96 iterations = one full simulated day, so the measured span contains
// exactly one periodic full-sweep window (window % 96 == 95) — the close
// path where every monitored series is evaluated, not just touched ones.
BENCHMARK(BM_AdvanceTo)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Iterations(96)
    ->Unit(benchmark::kMillisecond);

// Sharded-engine scaling on a larger (>= 4000-pair) corpus: sweeps the
// (shards, threads) grid so the per-dimension contributions separate —
// shards alone exercise the partition with a serial scheduler, threads
// alone the intra-engine monitor fan-out, and the combined points the
// two-level parallelism. Emit BENCH_sharded_scaling.json with
//   --benchmark_filter=ShardedAdvanceTo
//   --benchmark_out=BENCH_sharded_scaling.json --benchmark_out_format=json
void BM_ShardedAdvanceTo(benchmark::State& state) {
  AdvanceToFixture fixture(static_cast<int>(state.range(1)),
                           static_cast<int>(state.range(0)),
                           /*pairs=*/4200, /*probes=*/900);
  std::size_t signals = 0;
  for (auto _ : state) {
    state.PauseTiming();
    fixture.feed_window();
    state.ResumeTiming();
    auto sigs =
        fixture.world->engine().advance_to(fixture.now +
                                           fixture.world->window_seconds());
    benchmark::DoNotOptimize(sigs.data());
    signals += sigs.size();
    fixture.now = fixture.now + fixture.world->window_seconds();
  }
  state.counters["shards"] = static_cast<double>(state.range(0));
  state.counters["threads"] = static_cast<double>(state.range(1));
  state.counters["signals"] = static_cast<double>(signals);
  state.counters["corpus"] =
      static_cast<double>(fixture.world->engine().corpus_size());
}
BENCHMARK(BM_ShardedAdvanceTo)
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({1, 4})
    ->Args({2, 4})
    ->Args({4, 4})
    ->Iterations(96)
    ->Unit(benchmark::kMillisecond);

// Telemetry overhead on the full close path, three arms (emit
// BENCH_trace_overhead.json with --benchmark_filter=TelemetryOverhead):
//   Arg(0) — registry and recorder both off: every instrumentation site
//            (counter, histogram, span) is one null-pointer branch;
//   Arg(1) — metrics on, tracing off: every counter/histogram/span live;
//   Arg(2) — metrics AND the flight recorder on: each close-path span
//            additionally stamps two steady_clock reads and one SPSC push.
// DESIGN.md §13 documents the budgets: Arg(1)/Arg(0) must stay under ~2%,
// Arg(2)/Arg(0) under ~5%. If either regresses, a registry lookup, an
// allocation, or an unconditional clock read leaked into a per-item loop —
// fix that rather than accepting the number.
void BM_TelemetryOverhead(benchmark::State& state) {
  AdvanceToFixture fixture(/*threads=*/1, /*shards=*/1, /*pairs=*/2000,
                           /*probes=*/700,
                           /*telemetry=*/state.range(0) >= 1,
                           /*trace=*/state.range(0) >= 2);
  std::size_t signals = 0;
  for (auto _ : state) {
    state.PauseTiming();
    fixture.feed_window();
    state.ResumeTiming();
    auto sigs =
        fixture.world->engine().advance_to(fixture.now +
                                           fixture.world->window_seconds());
    benchmark::DoNotOptimize(sigs.data());
    signals += sigs.size();
    fixture.now = fixture.now + fixture.world->window_seconds();
  }
  state.counters["telemetry"] = static_cast<double>(state.range(0) >= 1);
  state.counters["trace"] = static_cast<double>(state.range(0) >= 2);
  state.counters["signals"] = static_cast<double>(signals);
}
BENCHMARK(BM_TelemetryOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Iterations(96)
    ->Unit(benchmark::kMillisecond);

// The two primitives the interning refactor put on the per-record path:
// content→id lookup of an already-interned AS path (the steady state — new
// content is rare by design) and id→content resolution (one acquire-load).
void BM_InternLookup(benchmark::State& state) {
  Interner::ScopedInstance interner;
  Rng rng(7);
  std::vector<AsPath> paths;
  std::vector<PathId> ids;
  for (int i = 0; i < 1024; ++i) {
    AsPath path;
    int hops = static_cast<int>(rng.uniform_int(2, 6));
    for (int h = 0; h < hops; ++h) {
      path.push_back(Asn(static_cast<std::uint32_t>(
          rng.uniform_int(64500, 64500 + 200))));
    }
    paths.push_back(path);
    ids.push_back(interner.get().path_id(path));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    PathId id = interner.get().path_id(paths[i & 1023]);
    benchmark::DoNotOptimize(id);
    benchmark::DoNotOptimize(&interner.get().path(ids[i & 1023]));
    ++i;
  }
}
BENCHMARK(BM_InternLookup);

// The window-close allocation pattern with and without the epoch arena:
// build a dispatched-batch-sized vector of 64-byte records, tear it down,
// repeat. Arg(1) = arena backing with reset() per epoch (the engines'
// steady state: zero heap traffic); Arg(0) = plain heap vector.
void BM_ArenaVsHeapBacklog(benchmark::State& state) {
  struct Rec {
    std::uint64_t words[8];
  };
  constexpr std::size_t kBatch = 4096;
  const bool use_arena = state.range(0) != 0;
  runtime::Arena arena;
  for (auto _ : state) {
    if (use_arena) {
      std::vector<Rec, runtime::ArenaAllocator<Rec>> batch{
          runtime::ArenaAllocator<Rec>(arena)};
      batch.reserve(kBatch);
      for (std::size_t i = 0; i < kBatch; ++i) {
        batch.push_back(Rec{{i, i, i, i, i, i, i, i}});
      }
      benchmark::DoNotOptimize(batch.data());
      batch.clear();
      arena.reset();
    } else {
      std::vector<Rec> batch;
      batch.reserve(kBatch);
      for (std::size_t i = 0; i < kBatch; ++i) {
        batch.push_back(Rec{{i, i, i, i, i, i, i, i}});
      }
      benchmark::DoNotOptimize(batch.data());
    }
  }
  state.counters["arena"] = static_cast<double>(state.range(0));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_ArenaVsHeapBacklog)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
