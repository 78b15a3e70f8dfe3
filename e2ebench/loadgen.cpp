#include "loadgen.h"

#include <chrono>

#include "netbase/rng.h"
#include "serve/http_client.h"

namespace rrr::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// Sends request `i` of the schedule that starts at `begin`; returns false
// when `keep_going` says stop while waiting for the due time.
template <typename KeepGoing>
bool send_one(int port, const std::vector<std::string>& targets,
              double rate_per_s, Clock::time_point begin, std::int64_t i,
              QueryStats& stats, KeepGoing&& keep_going) {
  const Clock::time_point due =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(static_cast<double>(i) /
                                                rate_per_s));
  while (Clock::now() < due) {
    if (!keep_going()) return false;
    std::this_thread::sleep_until(
        std::min(due, Clock::now() + std::chrono::milliseconds(5)));
  }
  const Clock::time_point sent = Clock::now();
  std::optional<serve::HttpResult> result = serve::http_get(
      port, targets[static_cast<std::size_t>(i) % targets.size()]);
  const Clock::time_point done = Clock::now();
  ++stats.attempted;
  if (!result || result->status != 200) {
    ++stats.failed;
    return true;
  }
  stats.latency_us.push_back(us_between(due, done));
  stats.service_us.push_back(us_between(sent, done));
  stats.late_us.push_back(us_between(due, sent));
  return true;
}

}  // namespace

void QueryStats::append(const QueryStats& other) {
  latency_us.insert(latency_us.end(), other.latency_us.begin(),
                    other.latency_us.end());
  service_us.insert(service_us.end(), other.service_us.begin(),
                    other.service_us.end());
  late_us.insert(late_us.end(), other.late_us.begin(), other.late_us.end());
  attempted += other.attempted;
  failed += other.failed;
}

std::vector<std::string> query_targets(const std::vector<tr::PairKey>& pairs,
                                       std::uint64_t seed,
                                       std::size_t count) {
  std::vector<std::string> targets;
  if (pairs.empty()) return targets;
  Rng rng = Rng(seed).fork(0x9E7);
  for (std::size_t i = 0; i < count; ++i) {
    const tr::PairKey& pair = pairs[rng.index(pairs.size())];
    const std::string query = "src=" + std::to_string(pair.probe) +
                              "&dst=" + pair.dst.to_string();
    switch (i % 3) {
      case 0:
        targets.push_back("/v1/verdict?" + query);
        break;
      case 1:
        targets.push_back("/v1/signals?" + query + "&limit=8");
        break;
      default:
        targets.push_back("/v1/refresh-queue?k=20");
        break;
    }
  }
  return targets;
}

ServingStack::ServingStack(serve::StalenessService& service) {
  obs::HttpHandlers handlers;
  handlers.api = [this, &service](const std::string& target) {
    const Clock::time_point begin = Clock::now();
    std::optional<obs::HttpResponse> response = service.handle(target);
    handle_ns_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             begin)
            .count(),
        std::memory_order_relaxed);
    return response;
  };
  server_ = std::make_unique<obs::HttpServer>(0, std::move(handlers));
}

OpenLoopGenerator::OpenLoopGenerator(int port,
                                     std::vector<std::string> targets,
                                     double rate_per_s)
    : port_(port),
      targets_(std::move(targets)),
      rate_per_s_(rate_per_s),
      thread_([this] { loop(); }) {}

OpenLoopGenerator::~OpenLoopGenerator() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

void OpenLoopGenerator::loop() {
  const Clock::time_point begin = Clock::now();
  auto keep_going = [this] { return !stop_.load(std::memory_order_relaxed); };
  for (std::int64_t i = 0; keep_going(); ++i) {
    if (!send_one(port_, targets_, rate_per_s_, begin, i, stats_,
                  keep_going)) {
      break;
    }
  }
}

QueryStats OpenLoopGenerator::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  return std::move(stats_);
}

QueryStats run_queries(int port, const std::vector<std::string>& targets,
                       double rate_per_s, int count) {
  QueryStats stats;
  const Clock::time_point begin = Clock::now();
  for (std::int64_t i = 0; i < count; ++i) {
    send_one(port, targets, rate_per_s, begin, i, stats, [] { return true; });
  }
  return stats;
}

}  // namespace rrr::e2e
