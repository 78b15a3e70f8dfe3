// Deterministic random number generation.
//
// Every stochastic decision in the simulator flows from an explicit seed so
// that experiments are exactly reproducible. `Rng` wraps a mersenne twister
// with the handful of draws the codebase needs; `fork` derives independent
// sub-streams so modules do not perturb each other's sequences when the
// call order changes. `OnDemandMt64` is the same twister for short-lived
// per-measurement streams: it yields std::mt19937_64's exact sequence but
// only computes the state words its draws reach.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace rrr {

// The real-valued draws, defined once for every engine so a stream drawn
// through Rng and one drawn through OnDemandMt64 agree bit for bit.
template <typename Engine>
double uniform01(Engine& engine) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine);
}

template <typename Engine>
bool bernoulli(Engine& engine, double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return std::bernoulli_distribution(p)(engine);
}

// std::mt19937_64(seed)'s output sequence, computed lazily. Seeding the
// standard engine fills all 312 state words and its first draw twists all
// of them again; a stream that stops after a few dozen draws pays for
// neither. Output j < 156 is the tempered twist of seed words j, j + 1 and
// j + 156, so the constructor computes words 0..156 and each draw extends
// the seed recurrence by one word. From draw 156 on the twist reads words
// it has already rewritten, so the engine falls back to a full
// std::mt19937_64 advanced past the draws already made.
class OnDemandMt64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit OnDemandMt64(std::uint64_t seed) {
    low_[0] = seed;
    for (std::size_t i = 1; i <= kShift; ++i) {
      low_[i] = next_seed_word(low_[i - 1], i);
    }
    high_ = low_[kShift];
  }

  result_type operator()() {
    if (drawn_ < kShift) {
      const std::size_t j = drawn_++;
      if (j > 0) high_ = next_seed_word(high_, j + kShift);
      const std::uint64_t y =
          (low_[j] & kUpperMask) | (low_[j + 1] & ~kUpperMask);
      return temper(high_ ^ (y >> 1) ^ ((y & 1) ? kMatrixA : 0));
    }
    if (!full_) {
      full_.emplace(low_[0]);
      full_->discard(kShift);
    }
    return (*full_)();
  }

 private:
  // std::mt19937_64's parameters: n = 312, m = 156, r = 31.
  static constexpr std::size_t kShift = 156;  // n - m
  static constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
  static constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;

  static std::uint64_t next_seed_word(std::uint64_t prev, std::size_t i) {
    return 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
  static std::uint64_t temper(std::uint64_t z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

  std::array<std::uint64_t, kShift + 1> low_;  // seed words 0..156
  std::uint64_t high_ = 0;  // the highest seed word computed so far
  std::size_t drawn_ = 0;
  std::optional<std::mt19937_64> full_;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  std::uint64_t seed() const { return seed_; }

  // Derives an independent generator; `salt` distinguishes sibling forks.
  Rng fork(std::uint64_t salt) const {
    // splitmix-style mixing of (seed, salt) into a fresh seed.
    std::uint64_t z = seed_ + 0x9E3779B97F4A7C15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return Rng(z ^ (z >> 31));
  }

  // Derives the i-th shard stream for parallel work. Like fork() this is
  // const and does not touch the parent's engine state, so shards can be
  // pre-split before a parallel section and no Rng is ever shared across
  // threads. A distinct mixing domain keeps split(i) disjoint from fork(i):
  // modules that already fork by small salts cannot collide with shard ids.
  Rng split(std::uint64_t shard) const {
    std::uint64_t z = (seed_ ^ 0xA5A5A5A55A5A5A5AULL) +
                      0xD1B54A32D192ED03ULL * (shard + 1);
    z = (z ^ (z >> 32)) * 0xDABA0B6EB09322E3ULL;
    z = (z ^ (z >> 29)) * 0xC6A4A7935BD1E995ULL;
    return Rng(z ^ (z >> 32));
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  // Uniform real in [0, 1).
  double uniform() { return uniform01(engine_); }

  bool bernoulli(double p) { return rrr::bernoulli(engine_, p); }

  double exponential(double rate) {
    assert(rate > 0.0);
    return std::exponential_distribution<double>(rate)(engine_);
  }

  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  // Pareto-ish heavy-tailed integer in [1, cap]: used for degree
  // distributions and burst sizes.
  std::int64_t heavy_tailed(double alpha, std::int64_t cap) {
    assert(alpha > 0.0 && cap >= 1);
    double u = uniform();
    double x = 1.0 / std::pow(1.0 - u, 1.0 / alpha);
    auto v = static_cast<std::int64_t>(x);
    return v < 1 ? 1 : (v > cap ? cap : v);
  }

  // Picks an index in [0, weights.size()) proportionally to weights.
  std::size_t weighted_index(const std::vector<double>& weights) {
    assert(!weights.empty());
    std::discrete_distribution<std::size_t> dist(weights.begin(),
                                                 weights.end());
    return dist(engine_);
  }

  // Uniformly chosen element index of a container size.
  std::size_t index(std::size_t size) {
    assert(size > 0);
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(size) - 1));
  }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    std::shuffle(items.begin(), items.end(), engine_);
  }

  std::mt19937_64& engine() { return engine_; }

  // Exact generator state as a portable text blob (mt19937_64's standard
  // stream representation), for the checkpoint store. load_state restores
  // the draw sequence bit-identically.
  std::string save_state() const;
  void load_state(const std::string& state);

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

inline std::string Rng::save_state() const {
  std::ostringstream out;
  out << seed_ << ' ' << engine_;
  return out.str();
}

inline void Rng::load_state(const std::string& state) {
  std::istringstream in(state);
  in >> seed_ >> engine_;
}

// Stateless mixing hash used for per-flow load-balancer decisions: the same
// 5-tuple must map to the same diamond branch every time, independent of any
// generator state.
inline std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 33)) * 0xFF51AFD7ED558CCDULL;
  x = (x ^ (x >> 33)) * 0xC4CEB9FE1A85EC53ULL;
  return x ^ (x >> 33);
}

inline std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2)));
}

}  // namespace rrr
