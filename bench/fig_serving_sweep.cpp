// Serving sweep — query latency vs concurrency vs engine throughput for
// the staleness query service (serve/service.h, docs/API.md).
//
// Two questions, two phases:
//
//  1. *Load arms* — the same retrospective world runs with 0 (baseline),
//     then N concurrent HTTP clients hammering the /v1 route family for
//     the whole run. Each arm reports query p50/p99 latency, sustained
//     queries/s, and the engine's window-close throughput; the headline
//     check is that serving under load keeps window throughput within 5%
//     of the no-serving baseline (readers take one acquire-load and never
//     block the close — see serve/snapshot.h).
//
//  2. *Determinism grid* — the world re-runs across
//     (engine_shards × engine_threads) points with serving attached and
//     clients querying throughout. The semantic signal stream (FNV digest
//     + count) and the semantic telemetry snapshot must be byte-identical
//     across every grid point AND equal to the load arms' — serving only
//     reads, so attaching it must not move one byte of output. Any
//     mismatch exits nonzero.
//
// Arms run sequentially on purpose: this harness measures time, so arms
// must not compete for cores.
//
// Writes BENCH_serving_latency.json (schema rrr-serving-v1).
//
// Flags: --days N --pairs N --seed N --public-rate N
//        --clients-list 0,2,8 --grid 1x1,2x2,4x2 --think-us N
//        --out BENCH_serving_latency.json
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_common.h"
#include "serve/http_client.h"

namespace {

using namespace rrr;

// FNV-1a over the semantic signal stream.
struct SignalDigest {
  std::uint64_t digest = 1469598103934665603ull;
  std::int64_t count = 0;

  void fold(std::int64_t window,
            const std::vector<signals::StalenessSignal>& sigs) {
    for (const signals::StalenessSignal& s : sigs) {
      auto mix = [this](std::uint64_t v) {
        digest = (digest ^ v) * 1099511628211ull;
      };
      mix(static_cast<std::uint64_t>(window));
      mix(static_cast<std::uint64_t>(s.pair.probe));
      mix(s.pair.dst.value());
      mix(static_cast<std::uint64_t>(s.technique));
      mix(static_cast<std::uint64_t>(s.potential));
      ++count;
    }
  }
};

// One client thread's loop: rotate through the documented routes until the
// stop flag, recording whole-round-trip latencies.
struct ClientStats {
  std::vector<double> latencies_us;
  std::int64_t errors = 0;
};

void client_loop(int port, const std::vector<std::string>& targets,
                 std::size_t offset, std::int64_t think_us,
                 const std::atomic<bool>& stop, ClientStats& stats) {
  std::size_t i = offset;  // stagger starting routes across clients
  while (!stop.load(std::memory_order_relaxed)) {
    const auto begin = std::chrono::steady_clock::now();
    std::optional<serve::HttpResult> result =
        serve::http_get(port, targets[i++ % targets.size()]);
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - begin)
                          .count();
    if (result && result->status == 200) {
      stats.latencies_us.push_back(us);
    } else {
      ++stats.errors;
    }
    // Closed-loop client with think time: without it the fleet busy-spins
    // the loopback into a CPU-starvation test (every core burns on socket
    // churn and the engine measurement reads as scheduler contention, not
    // serving cost). --think-us 0 restores the saturation mode.
    if (think_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(think_us));
    }
  }
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted.size())));
  return sorted[idx];
}

struct ArmResult {
  std::string label;
  int clients = 0;
  int shards = 1;
  int threads = 1;
  double run_seconds = 0.0;      // timed segment: corpus_t0 -> end
  std::int64_t windows = 0;      // windows closed in the timed segment
  std::int64_t queries = 0;
  std::int64_t query_errors = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double qps = 0.0;
  SignalDigest digest;
  std::string semantic;          // semantic telemetry snapshot (JSON)
  std::uint64_t snapshots = 0;   // ServingSnapshots published
};

double windows_per_s(const ArmResult& r) {
  return r.run_seconds > 0.0
             ? static_cast<double>(r.windows) / r.run_seconds
             : 0.0;
}

ArmResult run_arm(eval::WorldParams params, const std::string& label,
                  int clients, int shards, int threads,
                  std::int64_t think_us) {
  params.telemetry = true;  // semantic snapshot is half the determinism check
  params.engine_shards = shards;
  params.engine_threads = threads;

  ArmResult result;
  result.label = label;
  result.clients = clients;
  result.shards = shards;
  result.threads = threads;

  eval::World world(params);
  eval::World::Hooks hooks;
  hooks.on_signals = [&](std::int64_t window, TimePoint,
                         std::vector<signals::StalenessSignal>&& sigs) {
    result.digest.fold(window, sigs);
  };
  world.run_until(world.corpus_t0(), hooks);
  world.initialize_corpus();

  // Serving stack: service + server + client fleet, present only on
  // serving arms so the baseline measures the engine alone.
  serve::StalenessService service;
  std::unique_ptr<obs::HttpServer> server;
  std::vector<std::thread> fleet;
  std::vector<ClientStats> stats(static_cast<std::size_t>(
      clients > 0 ? clients : 0));
  std::atomic<bool> stop{false};
  // Declared at function scope: the client threads reference `targets`
  // until they are joined below.
  std::vector<std::string> targets;
  if (clients > 0) {
    world.attach_serving(&service);
    obs::HttpHandlers handlers;
    handlers.api = [&service](const std::string& target) {
      return service.handle(target);
    };
    server = std::make_unique<obs::HttpServer>(0, std::move(handlers));
    // Query mix over every documented /v1 route, anchored on a real pair.
    const tr::PairKey pair = world.ground_truth().pairs().front();
    const std::string pair_query = "src=" + std::to_string(pair.probe) +
                                   "&dst=" + pair.dst.to_string();
    targets = {
        "/v1/verdict?" + pair_query,
        "/v1/signals?" + pair_query + "&limit=8",
        "/v1/pairs?limit=50",
        "/v1/pairs?freshness=stale&limit=50",
        "/v1/refresh-queue?k=20",
    };
    for (int c = 0; c < clients; ++c) {
      fleet.emplace_back([&, c] {
        client_loop(server->port(), targets, static_cast<std::size_t>(c),
                    think_us, stop, stats[static_cast<std::size_t>(c)]);
      });
    }
  }

  const std::int64_t windows_before = world.completed_windows();
  const auto begin = std::chrono::steady_clock::now();
  world.run_until(world.end(), hooks);
  result.run_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  result.windows = world.completed_windows() - windows_before;

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : fleet) t.join();
  server.reset();
  world.attach_serving(nullptr);

  std::vector<double> merged;
  for (const ClientStats& s : stats) {
    merged.insert(merged.end(), s.latencies_us.begin(),
                  s.latencies_us.end());
    result.query_errors += s.errors;
  }
  result.queries = static_cast<std::int64_t>(merged.size());
  std::sort(merged.begin(), merged.end());
  result.p50_us = percentile(merged, 0.50);
  result.p99_us = percentile(merged, 0.99);
  result.qps = result.run_seconds > 0.0
                   ? static_cast<double>(result.queries) / result.run_seconds
                   : 0.0;
  result.semantic = world.semantic_stats_json();
  result.snapshots = service.windows_published();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rrr;
  bench::Flags flags(argc, argv);
  eval::WorldParams params = bench::retrospective_params(flags);
  params.days = static_cast<int>(flags.get_int("days", 4));
  params.corpus_pair_target = static_cast<int>(flags.get_int("pairs", 600));

  eval::print_banner(std::cout, "Serving sweep",
                     "query latency under load vs engine throughput",
                     "snapshot readers never block a window close; serving "
                     "moves zero bytes of the semantic stream");

  auto parse_list = [&](const std::string& spec) {
    std::vector<std::string> items;
    std::istringstream in(spec);
    std::string item;
    while (std::getline(in, item, ',')) {
      if (!item.empty()) items.push_back(item);
    }
    return items;
  };

  // Default pacing = a 10 ms operator-poll cadence per client. The within-5%
  // throughput check below compares wall-clock window rates, so the fleet
  // must model a realistic query load, not a core-saturation attack — on a
  // single-core box an unpaced fleet turns the comparison into a scheduler
  // benchmark. --think-us 0 gives the saturation mode when that is the
  // question being asked.
  const std::int64_t think_us = flags.get_int("think-us", 10000);

  // Phase 1: load arms at the session's engine configuration.
  std::vector<ArmResult> arms;
  for (const std::string& item :
       parse_list(flags.get_str("clients-list", "0,2,8"))) {
    const int clients = std::atoi(item.c_str());
    const std::string label =
        clients == 0 ? "baseline" : "clients=" + item;
    arms.push_back(run_arm(params, label, clients, params.engine_shards,
                           params.engine_threads, think_us));
    const ArmResult& r = arms.back();
    std::cout << "  [" << r.label << "] "
              << eval::TableWriter::fmt(r.run_seconds, 2) << " s, "
              << r.windows << " windows";
    if (clients > 0) {
      std::cout << ", " << r.queries << " queries, p99 "
                << eval::TableWriter::fmt(r.p99_us, 0) << " us";
    }
    std::cout << "\n";
  }

  // Phase 2: determinism grid (shards x threads) with serving attached and
  // a small client fleet querying throughout.
  std::vector<ArmResult> grid;
  for (const std::string& item :
       parse_list(flags.get_str("grid", "1x1,2x2,4x2"))) {
    int shards = 1, threads = 1;
    if (std::sscanf(item.c_str(), "%dx%d", &shards, &threads) != 2) {
      std::cerr << "grid: cannot parse \"" << item << "\" — ignored\n";
      continue;
    }
    const std::string label = "grid " + item;
    grid.push_back(
        run_arm(params, label, 2, shards, threads, think_us));
    std::cout << "  [" << label << "] "
              << eval::TableWriter::fmt(grid.back().run_seconds, 2)
              << " s\n";
  }

  // --- report ---
  const ArmResult* baseline = nullptr;
  for (const ArmResult& r : arms) {
    if (r.clients == 0) baseline = &r;
  }
  eval::TableWriter table({"arm", "clients", "windows/s", "vs baseline",
                           "queries", "qps", "p50 us", "p99 us", "errors"});
  for (const ArmResult& r : arms) {
    const double ratio = baseline != nullptr && windows_per_s(*baseline) > 0
                             ? windows_per_s(r) / windows_per_s(*baseline)
                             : 1.0;
    table.add_row(
        {r.label, std::to_string(r.clients),
         eval::TableWriter::fmt(windows_per_s(r), 1),
         eval::TableWriter::fmt_pct(ratio), std::to_string(r.queries),
         eval::TableWriter::fmt(r.qps, 0),
         eval::TableWriter::fmt(r.p50_us, 0),
         eval::TableWriter::fmt(r.p99_us, 0),
         std::to_string(r.query_errors)});
  }
  table.print(std::cout);

  // Throughput headline: worst serving arm vs baseline. Advisory (timing
  // is machine-dependent); the determinism check below is the hard gate.
  bool within_5pct = true;
  if (baseline != nullptr) {
    for (const ArmResult& r : arms) {
      if (r.clients == 0) continue;
      const double ratio = windows_per_s(*baseline) > 0
                               ? windows_per_s(r) / windows_per_s(*baseline)
                               : 1.0;
      if (ratio < 0.95) within_5pct = false;
    }
    std::cout << (within_5pct
                      ? "serving throughput within 5% of baseline\n"
                      : "WARNING: serving cost exceeds 5% of baseline "
                        "window throughput\n");
  }

  // Determinism: every arm and grid point must agree on the signal stream
  // and the semantic telemetry snapshot.
  bool identical = true;
  std::vector<const ArmResult*> all;
  for (const ArmResult& r : arms) all.push_back(&r);
  for (const ArmResult& r : grid) all.push_back(&r);
  for (const ArmResult* r : all) {
    if (r->digest.digest != all.front()->digest.digest ||
        r->digest.count != all.front()->digest.count ||
        r->semantic != all.front()->semantic) {
      std::cout << "DIVERGED: " << r->label << " (digest "
                << r->digest.digest << ", " << r->digest.count
                << " signals)\n";
      identical = false;
    }
  }
  std::cout << (identical
                    ? "semantic stream identical across all "
                    : "ERROR: semantic stream diverged across ")
            << all.size() << " arm(s) with serving "
            << (identical ? "on\n" : "on — determinism contract violated\n");

  // --- artifact ---
  const std::string path =
      flags.get_str("out", "BENCH_serving_latency.json");
  std::ofstream out(path);
  if (out) {
    out << "{\"schema\":\"rrr-serving-v1\",\"days\":" << params.days
        << ",\"pairs\":" << params.corpus_pair_target
        << ",\"baseline_windows_per_s\":"
        << (baseline != nullptr ? windows_per_s(*baseline) : 0.0)
        << ",\"within_5pct\":" << (within_5pct ? "true" : "false")
        << ",\"deterministic\":" << (identical ? "true" : "false")
        << ",\"arms\":[";
    bool first = true;
    for (const ArmResult* r : all) {
      if (!first) out << ",";
      first = false;
      out << "{\"label\":\"" << obs::json_escape(r->label)
          << "\",\"clients\":" << r->clients << ",\"shards\":" << r->shards
          << ",\"threads\":" << r->threads
          << ",\"windows\":" << r->windows
          << ",\"windows_per_s\":" << windows_per_s(*r)
          << ",\"queries\":" << r->queries << ",\"qps\":" << r->qps
          << ",\"p50_us\":" << r->p50_us << ",\"p99_us\":" << r->p99_us
          << ",\"errors\":" << r->query_errors
          << ",\"snapshots\":" << r->snapshots
          << ",\"signals\":" << r->digest.count
          << ",\"signal_digest\":\"" << r->digest.digest << "\"}";
    }
    out << "]}\n";
    std::cout << "wrote " << path << "\n";
  } else {
    std::cerr << "cannot open " << path << "\n";
  }
  return identical ? 0 : 1;
}
