// rrr_e2e: end-to-end, layer-attributed benchmark of eval::World.
//
//   rrr_e2e --workload archive|live|recalibrate --seed N --seconds S
//           --trace 0|1 [--references FILE]
//   rrr_e2e --selftest
//   rrr_e2e --record-references
//
// A run plays worlds from the pool (workloads.h) in the order --seed picks,
// one repetition per world, until another repetition would overrun
// --seconds. --trace 0 measures World::run_until with tracing off and
// prints the end-to-end metrics. --trace 1 pairs every untraced repetition
// with a shadow-driver repetition (shadow.h) of the same world that times
// every layer call, and prints the per-layer breakdown. Every repetition's
// signal digest must equal the world's reference digest: the committed one
// from FILE, or one computed here at the serial configuration when FILE
// has none. Output is one JSON object on stdout; see README.md.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "loadgen.h"
#include "obs/export.h"
#include "serve/service.h"
#include "shadow.h"
#include "store/framing.h"
#include "store/serial.h"
#include "workloads.h"

#ifndef RRR_E2E_BUILD_TYPE
#define RRR_E2E_BUILD_TYPE "unknown"
#endif
#ifndef RRR_E2E_COMPILER
#define RRR_E2E_COMPILER "unknown"
#endif

namespace rrr::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 1;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Close-span busy time of the measured windows, read back from the flight
// recorder's Chrome-trace export. Spans that run on pool threads (absorb,
// shard_close, the three trace-monitor closes) overlap one another, so
// these are busy times, not shares of the close's wall time.
constexpr std::pair<const char*, const char*> kCloseSpans[] = {
    {"dispatch", "dispatch"},       {"absorb", "absorb"},
    {"shard_close", "shard_close"}, {"close_subpath", "subpath"},
    {"close_border", "border"},     {"close_ixp", "ixp"},
    {"absorb_wait", "absorb_wait"}, {"merge", "merge"},
    {"register", "register"},       {"revocation", "revocation"},
};

// Scans obs::TraceRecorder::json()'s fixed event layout
// ("dur":D,"name":"N","cat":"close","args":{"window":W...).
std::map<std::string, double> close_span_us(const std::string& json,
                                            std::int64_t first_window) {
  std::map<std::string, double> totals;
  for (const auto& [span, metric] : kCloseSpans) totals[metric] = 0.0;
  const std::string dur_key = "\"dur\":";
  const std::string name_key = ",\"name\":\"";
  const std::string cat_key = "\",\"cat\":\"close\",\"args\":{\"window\":";
  for (std::size_t at = json.find(dur_key); at != std::string::npos;
       at = json.find(dur_key, at + 1)) {
    char* end = nullptr;
    const double dur = std::strtod(json.c_str() + at + dur_key.size(), &end);
    std::size_t pos = static_cast<std::size_t>(end - json.c_str());
    if (json.compare(pos, name_key.size(), name_key) != 0) continue;
    pos += name_key.size();
    const std::size_t name_end = json.find('"', pos);
    if (name_end == std::string::npos) break;
    if (json.compare(name_end, cat_key.size(), cat_key) != 0) continue;
    const long long window =
        std::strtoll(json.c_str() + name_end + cat_key.size(), nullptr, 10);
    if (window < first_window) continue;
    const std::string name = json.substr(pos, name_end - pos);
    for (const auto& [span, metric] : kCloseSpans) {
      if (name == span) totals[metric] += dur;
    }
  }
  return totals;
}

// One world built and played through the workload script.
struct Rep {
  ScriptResult script;
  double construct_s = 0.0;
  QueryStats queries;
  double handle_us = 0.0;
  // Shadow-driven repetitions only.
  LayerTotals setup_layers;
  LayerTotals layers;  // measured windows
  std::vector<double> close_ms;
  // The post-run materialization the quiet query phase reads.
  double post_materialize_us = 0.0;
  std::map<std::string, double> close_spans;
  std::int64_t trace_dropped = 0;
  // FNV-1a-64 over the end state: engine and patcher snapshots plus the
  // world RNG (self-test only; 0 otherwise).
  std::uint64_t state_digest = 0;

  double setup_s() const { return construct_s + script.setup_s; }
};

enum class DriverKind { kWorld, kShadow };

Rep run_rep(const Shape& shape, eval::WorldParams params, DriverKind kind,
            bool traced, bool queries, bool capture_state = false) {
  Rep rep;
  params.trace = traced;
  // Room for every span of the run: the recorder evicts oldest-first, and
  // the measured windows are the newest.
  params.trace_params.recorder_capacity = std::size_t{1} << 20;
  const auto begin = Clock::now();
  eval::World world(params);
  rep.construct_s = seconds_since(begin);

  WorldDriver world_driver(world);
  std::optional<ShadowDriver> shadow;
  if (kind == DriverKind::kShadow) shadow.emplace(world);
  Driver& driver = shadow ? static_cast<Driver&>(*shadow)
                          : static_cast<Driver&>(world_driver);

  // Destroyed in reverse: generator, then server, then service.
  serve::StalenessService service;
  std::unique_ptr<ServingStack> stack;
  std::unique_ptr<OpenLoopGenerator> generator;
  const std::int64_t t0_window =
      (world.corpus_t0() - world.start()) / world.window_seconds();
  auto targets = [&] {
    return query_targets(world.ground_truth().pairs(), params.seed, 240);
  };
  auto measure_begin = [&] {
    if (shadow) shadow->begin_measured();
    if (!queries || !shape.serve_during_run) return;
    // Publish the post-init state first so no query finds an empty service.
    service.on_window(world.engine(), t0_window - 1, world.corpus_t0(), {});
    world.attach_serving(&service);
    stack = std::make_unique<ServingStack>(service);
    generator = std::make_unique<OpenLoopGenerator>(stack->port(), targets(),
                                                    shape.query_rate_per_s);
  };
  const bool quiet = queries && !shape.serve_during_run;
  rep.script = run_script(driver, world, shape, measure_begin, quiet);
  if (generator) rep.queries = generator->stop();
  if (quiet) {
    const auto materialize_begin = Clock::now();
    service.on_window(world.engine(), t0_window + shape.measured_windows - 1,
                      world.corpus_t0() +
                          shape.measured_windows * world.window_seconds(),
                      rep.script.signals);
    rep.post_materialize_us = seconds_since(materialize_begin) * 1e6;
    stack = std::make_unique<ServingStack>(service);
    rep.queries = run_queries(stack->port(), targets(),
                              shape.query_rate_per_s, shape.quiet_queries);
  }
  if (stack) rep.handle_us = stack->handle_us();
  generator.reset();
  stack.reset();
  world.attach_serving(nullptr);
  if (shadow) {
    rep.setup_layers = shadow->setup();
    rep.layers = shadow->measured();
    rep.close_ms = shadow->close_ms();
  }
  if (capture_state) {
    store::Encoder enc;
    world.engine().save_state(enc);
    world.processing().patcher().save_state(enc);
    enc.str(world.rng().save_state());
    rep.state_digest = store::fnv1a64(enc.buffer());
  }
  if (traced && world.tracer() != nullptr) {
    rep.close_spans = close_span_us(world.tracer()->json(), t0_window);
    rep.trace_dropped = world.tracer()->dropped();
  }
  return rep;
}

// --- references ----------------------------------------------------------

// The serial-configuration stream of one world and its input counts (per
// repetition: the measured windows only, except signals, which cover the
// whole run).
struct Reference {
  std::int64_t signals = 0;
  std::string digest;
  std::int64_t bgp_records = 0;
  std::int64_t routing_events = 0;
  std::int64_t public_traces = 0;
  std::int64_t refreshes = 0;
};

Reference compute_reference(const Shape& shape) {
  Rep rep = run_rep(shape, reference_params(shape), DriverKind::kShadow,
                    false, false);
  Reference ref;
  ref.signals = rep.script.digest.count();
  ref.digest = rep.script.digest.hex();
  ref.bgp_records = rep.layers.bgp_records;
  ref.routing_events = rep.layers.calls_of(Layer::kRoutingApply);
  ref.public_traces = rep.layers.calls_of(Layer::kTraceIssue);
  ref.refreshes = rep.layers.calls_of(Layer::kRefresh);
  return ref;
}

constexpr const char* kReferenceHeader =
    "# workload\tworld_seed\tsignals\tdigest\tbgp_records\trouting_events"
    "\tpublic_traces\trefreshes";

// references.tsv: kReferenceHeader, then one line per (workload, world).
std::map<std::pair<std::string, std::uint64_t>, Reference> load_references(
    const std::string& path) {
  std::map<std::pair<std::string, std::uint64_t>, Reference> refs;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    std::uint64_t world = 0;
    Reference ref;
    if (fields >> workload >> world >> ref.signals >> ref.digest >>
        ref.bgp_records >> ref.routing_events >> ref.public_traces >>
        ref.refreshes) {
      refs[{workload, world}] = ref;
    }
  }
  return refs;
}

int record_references() {
  std::cout << kReferenceHeader << "\n";
  for (Workload workload :
       {Workload::kArchive, Workload::kLive, Workload::kRecalibrate}) {
    for (std::uint64_t world = 1; world <= kWorldPool; ++world) {
      const Reference ref =
          compute_reference(make_shape(workload, world, false));
      std::cout << workload_name(workload) << "\t" << world << "\t"
                << ref.signals << "\t" << ref.digest << "\t"
                << ref.bgp_records << "\t" << ref.routing_events << "\t"
                << ref.public_traces << "\t" << ref.refreshes << std::endl;
    }
  }
  return 0;
}

// --- JSON output ---------------------------------------------------------

std::string num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

class Report {
 public:
  void metric(const std::string& name, double value, const char* unit,
              const char* base = nullptr) {
    metrics_ += metrics_.empty() ? "" : ",";
    metrics_ += "\"" + name + "\":{\"value\":" + num(value) +
                ",\"unit\":\"" + unit + "\"";
    if (base != nullptr) metrics_ += ",\"base\":\"" + std::string(base) + "\"";
    metrics_ += "}";
  }
  void context(const std::string& key, const std::string& json_value) {
    context_ += context_.empty() ? "" : ",";
    context_ += "\"" + key + "\":" + json_value;
  }
  void context(const std::string& key, double value) {
    context(key, num(value));
  }
  void context_str(const std::string& key, const std::string& value) {
    context(key, "\"" + obs::json_escape(value) + "\"");
  }
  // Records a failed check; returns 1 for the caller's failure count.
  int error(const std::string& message) {
    std::cerr << "rrr_e2e: " << message << "\n";
    errors_ += errors_.empty() ? "" : ",";
    errors_ += "\"" + obs::json_escape(message) + "\"";
    return 1;
  }
  std::string json(std::int64_t attempted, std::int64_t failed) const {
    return std::string("{\"correct\":") + (failed == 0 ? "true" : "false") +
           ",\"attempted\":" + std::to_string(attempted) +
           ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{" +
           metrics_ + "},\"context\":{" + context_ + "},\"errors\":[" +
           errors_ + "]}";
  }

 private:
  std::string metrics_;
  std::string context_;
  std::string errors_;
};

// Returns 1 (a failed repetition) unless `got` is a non-empty stream equal
// to the reference.
int check_digest(Report& report, const std::string& what,
                 const SignalDigest& got, const Reference& want) {
  if (got.count() == 0) return report.error(what + " emitted no signals");
  if (got.count() != want.signals || got.hex() != want.digest) {
    return report.error(what + " digest " + got.hex() + " (" +
                        std::to_string(got.count()) +
                        " signals) != reference " + want.digest + " (" +
                        std::to_string(want.signals) + ")");
  }
  return 0;
}

// windows_per_s is every measured window of the run over the wall time
// they took. On a shared host the speed of a fixed loop wanders by 20-30%
// over seconds to minutes, so the run's whole measured span is averaged.
// A median of short blocks would report whichever speed the middle block
// caught; on recalibrate, where one window in eight carries the
// remeasurement, it also lands in one of two modes.
void report_end_to_end(Report& report, const std::vector<Rep>& reps) {
  std::vector<double> setup;
  std::vector<double> gaps;
  // Per-repetition figures, in play order, to tell host noise from
  // world-to-world differences.
  std::string rep_setup;
  std::string rep_rate;
  for (const Rep& rep : reps) {
    const std::vector<double>& g = rep.script.gaps_ms;
    setup.push_back(rep.setup_s());
    gaps.insert(gaps.end(), g.begin(), g.end());
    const double rate = 1000.0 * static_cast<double>(g.size()) /
                        std::accumulate(g.begin(), g.end(), 0.0);
    rep_setup += (rep_setup.empty() ? "" : ",") + num(rep.setup_s());
    rep_rate += (rep_rate.empty() ? "" : ",") + num(rate);
  }
  const double measured_ms = std::accumulate(gaps.begin(), gaps.end(), 0.0);
  report.context("rep_setup_s", "[" + rep_setup + "]");
  report.context("rep_windows_per_s", "[" + rep_rate + "]");
  report.context("window_samples", static_cast<double>(gaps.size()));
  report.metric("setup_s", median(setup), "s");
  report.metric("windows_per_s",
                1000.0 * static_cast<double>(gaps.size()) / measured_ms,
                "1/s");
  report.metric("window_p50_ms", percentile(gaps, 0.50), "ms");
  report.metric("window_p90_ms", percentile(gaps, 0.90), "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

// Per-layer metrics: totals over one repetition's measured windows (unless
// named otherwise), each the median over the traced repetitions.
void report_per_layer(Report& report, const Shape& shape,
                      const std::vector<Rep>& traced,
                      const std::vector<Rep>& untraced,
                      const QueryStats& queries) {
  auto med = [&traced](const std::function<double(const Rep&)>& of) {
    std::vector<double> values;
    for (const Rep& rep : traced) values.push_back(of(rep));
    return median(values);
  };
  auto us = [&](const char* name, Layer layer) {
    report.metric(name, med([layer](const Rep& r) {
                    return r.layers.us_of(layer);
                  }),
                  "us");
  };
  auto calls = [&](const char* name, Layer layer) {
    report.metric(name, med([layer](const Rep& r) {
                    return static_cast<double>(r.layers.calls_of(layer));
                  }),
                  "count");
  };
  auto wall_us = [](const Rep& r) { return r.script.measured_s * 1e6; };

  us("traceroute.issue_us", Layer::kTraceIssue);
  calls("traceroute.issued", Layer::kTraceIssue);
  us("traceroute.refresh_issue_us", Layer::kRefreshIssue);
  us("traceroute.churn_us", Layer::kChurn);
  us("signals.trace_ingest_us", Layer::kTraceIngest);
  us("signals.close_us", Layer::kClose);
  report.metric("signals.close_p90_ms", med([](const Rep& r) {
                  return percentile(r.close_ms, 0.90);
                }),
                "ms");
  for (const auto& [span, metric] : kCloseSpans) {
    const std::string key = metric;
    report.metric("signals.close." + key + "_us",
                  med([&key](const Rep& r) { return r.close_spans.at(key); }),
                  "us");
  }
  report.metric("signals.watch_us", med([](const Rep& r) {
                  return r.setup_layers.us_of(Layer::kWatch);
                }),
                "us");
  us("signals.refresh_us", Layer::kRefresh);
  calls("signals.refreshes", Layer::kRefresh);
  us("signals.plan_us", Layer::kPlan);
  us("signals.bgp_ingest_us", Layer::kBgpIngest);
  report.metric("bgp.records", med([](const Rep& r) {
                  return static_cast<double>(r.layers.bgp_records);
                }),
                "count");
  us("bgp.feed_us", Layer::kBgpFeed);
  us("routing.apply_us", Layer::kRoutingApply);
  calls("routing.events", Layer::kRoutingApply);
  us("eval.ground_truth_us", Layer::kGroundTruth);
  report.metric("serve.materialize_us", med([](const Rep& r) {
                  return r.layers.us_of(Layer::kMaterialize) +
                         r.post_materialize_us;
                }),
                "us");
  report.metric("serve.handle_us",
                med([](const Rep& r) { return r.handle_us; }), "us");
  report.metric("serve.queries", med([](const Rep& r) {
                  return static_cast<double>(r.queries.attempted);
                }),
                "count");
  report.metric("serve.query_p50_us", percentile(queries.latency_us, 0.50),
                "us");
  report.metric("serve.query_p99_us", percentile(queries.latency_us, 0.99),
                "us");
  report.metric("obs.http_us", med([](const Rep& r) {
                  double total = 0.0;
                  for (double v : r.queries.service_us) total += v;
                  return total - r.handle_us;
                }),
                "us");
  report.metric("loadgen.late_p99_us", percentile(queries.late_us, 0.99),
                "us");
  us("bench.hooks_us", Layer::kHooks);
  us("trace.drain_us", Layer::kTraceDrain);
  report.metric("signals.windows",
                static_cast<double>(shape.measured_windows), "count");
  report.metric("signals.per_window", med([&shape](const Rep& r) {
                  return static_cast<double>(r.script.digest.count()) /
                         static_cast<double>(shape.measured_windows);
                }),
                "ratio", "signals.windows");
  report.metric("signals.refresh_hit_ratio", med([](const Rep& r) {
                  const double n = static_cast<double>(
                      r.layers.calls_of(Layer::kRefresh));
                  return n > 0 ? static_cast<double>(r.layers.refresh_hits) / n
                               : 0.0;
                }),
                "ratio", "signals.refreshes");
  report.metric("setup.construct_us",
                med([](const Rep& r) { return r.construct_s * 1e6; }), "us");
  report.metric("setup.corpus_issue_us", med([](const Rep& r) {
                  return r.setup_layers.us_of(Layer::kCorpusIssue);
                }),
                "us");
  report.metric("setup.warmup_us", med([](const Rep& r) {
                  return r.script.setup_s * 1e6 -
                         r.setup_layers.us_of(Layer::kCorpusIssue) -
                         r.setup_layers.us_of(Layer::kWatch) -
                         r.setup_layers.us_of(Layer::kGroundTruth);
                }),
                "us");
  report.metric("wall_us", med(wall_us), "us");
  report.metric("unattributed_us", med([&](const Rep& r) {
                  return wall_us(r) - r.layers.sum_us();
                }),
                "us", "wall_us");
  // Each pair ran the same world back to back, so the ratio of their walls
  // cancels world-to-world differences.
  std::vector<double> overhead;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    overhead.push_back(wall_us(traced[i]) / wall_us(untraced[i]) - 1.0);
  }
  report.metric("trace_overhead", median(overhead), "ratio", "wall_us");
}

int run_benchmark(Workload workload, std::uint64_t seed, double seconds,
                  bool trace, const std::string& references_path) {
  const int nproc = available_cpus();
  Report report;
  report.context_str("workload", workload_name(workload));
  report.context("seed", static_cast<double>(seed));
  report.context("nproc", nproc);
  report.context_str("build_type", RRR_E2E_BUILD_TYPE);
  report.context_str("compiler", RRR_E2E_COMPILER);
  report.context("trace", trace ? 1 : 0);

  const auto references = load_references(references_path);
  const std::vector<std::uint64_t> worlds = world_seeds(seed);
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  QueryStats queries;
  std::string played;
  std::map<std::string, double> counts;
  // Every repetition plays the next world of the pool. Repeat until another
  // repetition would overrun --seconds; the end-to-end metrics are medians,
  // so they get at least three repetitions.
  const int min_iterations = trace ? 1 : 3;
  const auto begin = Clock::now();
  for (int iteration = 1;; ++iteration) {
    const std::uint64_t world =
        worlds[static_cast<std::size_t>(iteration - 1) % worlds.size()];
    const Shape shape = make_shape(workload, world, false);
    auto found = references.find({workload_name(workload), world});
    const Reference ref = found != references.end()
                              ? found->second
                              : compute_reference(shape);
    played += (played.empty() ? "" : ",") + std::to_string(world);
    const std::string name = "world " + std::to_string(world);

    // A pair alternates which side runs first: the first repetition in a
    // process also pays for first-touch page faults.
    auto play_traced = [&] {
      traced.push_back(
          run_rep(shape, shape.params, DriverKind::kShadow, true, true));
      ++attempted;
      failed += check_digest(report, name + " traced run",
                             traced.back().script.digest, ref);
      queries.append(traced.back().queries);
      if (traced.back().trace_dropped > 0) {
        failed += report.error(name + " flight recorder dropped events; "
                               "close spans are incomplete");
      }
    };
    const bool traced_first = trace && iteration % 2 == 0;
    if (traced_first) play_traced();
    untraced.push_back(
        run_rep(shape, shape.params, DriverKind::kWorld, false, true));
    ++attempted;
    failed += check_digest(report, name + " untraced run",
                           untraced.back().script.digest, ref);
    queries.append(untraced.back().queries);
    if (trace && !traced_first) play_traced();
    counts["pairs"] += static_cast<double>(untraced.back().script.pairs);
    counts["windows"] += static_cast<double>(shape.measured_windows);
    counts["public_traces"] += static_cast<double>(ref.public_traces);
    counts["bgp_records"] += static_cast<double>(ref.bgp_records);
    counts["routing_events"] += static_cast<double>(ref.routing_events);
    counts["refreshes"] += static_cast<double>(ref.refreshes);
    counts["signals"] += static_cast<double>(ref.signals);
    const double elapsed = seconds_since(begin);
    if (iteration >= min_iterations &&
        elapsed * (iteration + 1) / iteration > seconds) {
      break;
    }
  }
  attempted += queries.attempted;
  failed += queries.failed;
  report.context("repetitions", static_cast<double>(untraced.size()));
  report.context("worlds", "[" + played + "]");
  // Input counts summed over the untraced repetitions.
  for (const auto& [key, value] : counts) report.context(key, value);
  report.context("queries", static_cast<double>(queries.attempted));
  report.context("queries_failed", static_cast<double>(queries.failed));
  const Shape shape = make_shape(workload, worlds.front(), false);
  report.context("engine_threads", shape.params.engine_threads);
  report.context("query_rate_per_s", shape.query_rate_per_s);

  if (trace) {
    report_per_layer(report, shape, traced, untraced, queries);
  } else {
    report_end_to_end(report, untraced);
  }
  std::cout << report.json(attempted, failed) << "\n";
  return 0;
}

// Shadow-driver self-test: on a short config of every workload shape, the
// shadow driver (tracing on, as in the traced run) must leave the world in
// World::run_until's end state — same signal stream, engine and patcher
// snapshots, and world RNG position — and the serial oracle configuration
// must emit the same stream.
int run_selftest() {
  bool ok = true;
  for (Workload workload :
       {Workload::kArchive, Workload::kLive, Workload::kRecalibrate}) {
    const Shape shape = make_shape(workload, 7, true);
    Rep world =
        run_rep(shape, shape.params, DriverKind::kWorld, false, true, true);
    Rep shadow =
        run_rep(shape, shape.params, DriverKind::kShadow, true, true, true);
    Rep serial = run_rep(shape, reference_params(shape), DriverKind::kShadow,
                         false, false);
    const bool same = world.script.digest.count() > 0 &&
                      world.script.digest == shadow.script.digest &&
                      world.state_digest == shadow.state_digest &&
                      world.script.digest == serial.script.digest &&
                      world.script.refreshes == shadow.script.refreshes &&
                      world.queries.failed == 0 && shadow.queries.failed == 0;
    std::cout << (same ? "ok   " : "FAIL ") << workload_name(workload)
              << ": signals world/shadow/serial "
              << world.script.digest.hex() << "/"
              << shadow.script.digest.hex() << "/"
              << serial.script.digest.hex() << " ("
              << world.script.digest.count() << " signals), end state "
              << std::hex << world.state_digest << "/" << shadow.state_digest
              << std::dec << ", refreshes " << world.script.refreshes << "/"
              << shadow.script.refreshes << ", failed queries "
              << world.queries.failed << "/" << shadow.queries.failed
              << "\n";
    ok = ok && same;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace rrr::e2e

int main(int argc, char** argv) {
  using namespace rrr::e2e;
#ifndef __OPTIMIZE__
  std::cerr << "rrr_e2e: refusing to run a non-optimized build ("
            << RRR_E2E_BUILD_TYPE << "); configure with "
            << "-DCMAKE_BUILD_TYPE=Release\n";
  return 3;
#endif
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--selftest") return run_selftest();
    if (key == "--record-references") return record_references();
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::cerr << "rrr_e2e: bad argument " << key << "\n";
      return 2;
    }
    args[key.substr(2)] = argv[++i];
  }
  std::optional<Workload> workload = parse_workload(args["workload"]);
  if (!workload || args["seed"].empty()) {
    std::cerr << "rrr_e2e: --workload archive|live|recalibrate and --seed N "
                 "are required\n";
    return 2;
  }
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds =
      args.count("seconds") ? std::strtod(args["seconds"].c_str(), nullptr)
                            : 50.0;
  return run_benchmark(*workload, seed, seconds, args["trace"] == "1",
                       args["references"]);
}
