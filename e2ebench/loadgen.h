// Open-loop query generator and the loopback serving stack it targets.
//
// One generator thread sends GET requests on a fixed schedule (request i
// is due at begin + i / rate) whether or not earlier ones have completed,
// as independent operators polling the service would. Latency is timed
// from when a request was due, so a stall in the server also charges the
// requests queued behind it; how late the generator itself ran is
// recorded separately.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/http_export.h"
#include "serve/service.h"

namespace rrr::e2e {

struct QueryStats {
  std::vector<double> latency_us;  // response received - due
  std::vector<double> service_us;  // response received - sent
  std::vector<double> late_us;     // sent - due
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  // transport error or non-200

  void append(const QueryStats& other);
};

// The /v1 mix: verdict, signals and refresh-queue requests, rotating,
// over pairs drawn from `pairs` with a generator seeded by `seed`.
std::vector<std::string> query_targets(const std::vector<tr::PairKey>& pairs,
                                       std::uint64_t seed,
                                       std::size_t count);

// StalenessService mounted on the obs HTTP server (127.0.0.1, ephemeral
// port), with the api handler wrapped to accumulate handler time.
class ServingStack {
 public:
  explicit ServingStack(serve::StalenessService& service);
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  int port() const { return server_->port(); }
  // Total time spent inside StalenessService::handle, microseconds.
  double handle_us() const {
    return static_cast<double>(handle_ns_.load(std::memory_order_relaxed)) /
           1000.0;
  }

 private:
  std::atomic<std::int64_t> handle_ns_{0};
  std::unique_ptr<obs::HttpServer> server_;
};

// Sends `targets` round-robin at `rate_per_s` from a background thread
// until stop(); the destructor stops and joins.
class OpenLoopGenerator {
 public:
  OpenLoopGenerator(int port, std::vector<std::string> targets,
                    double rate_per_s);
  ~OpenLoopGenerator();
  OpenLoopGenerator(const OpenLoopGenerator&) = delete;
  OpenLoopGenerator& operator=(const OpenLoopGenerator&) = delete;

  // Stops after the request in flight and returns what was measured.
  QueryStats stop();

 private:
  void loop();

  const int port_;
  const std::vector<std::string> targets_;
  const double rate_per_s_;
  std::atomic<bool> stop_{false};
  QueryStats stats_;
  std::thread thread_;  // last: starts after every member it reads
};

// Sends exactly `count` requests on the open-loop schedule from the
// calling thread.
QueryStats run_queries(int port, const std::vector<std::string>& targets,
                       double rate_per_s, int count);

}  // namespace rrr::e2e
