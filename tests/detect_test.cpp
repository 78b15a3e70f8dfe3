// Unit tests for the outlier detectors and series helpers (src/detect).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "detect/detector.h"
#include "detect/series.h"
#include "store/serial.h"

namespace rrr::detect {
namespace {

TEST(ModifiedZScore, FlagsLevelShiftImmediately) {
  ModifiedZScoreDetector detector;
  for (int i = 0; i < 30; ++i) {
    Judgement j = detector.update(0.8 + 0.01 * (i % 3));
    EXPECT_FALSE(j.outlier) << "window " << i;
  }
  Judgement j = detector.update(0.1);
  EXPECT_TRUE(j.outlier);
  EXPECT_LT(j.score, -3.5);
}

TEST(ModifiedZScore, SilentUntilMinHistory) {
  ZScoreParams params;
  params.min_history = 20;
  ModifiedZScoreDetector detector(params);
  for (int i = 0; i < 19; ++i) {
    EXPECT_FALSE(detector.update(1.0).outlier);
  }
  // Even a wild value cannot be judged before 20 observations exist.
  EXPECT_FALSE(detector.update(100.0).outlier);
}

TEST(ModifiedZScore, StationarityMaintenanceKeepsFlaggingPersistentChange) {
  ModifiedZScoreDetector detector;
  for (int i = 0; i < 30; ++i) detector.update(1.0);
  // A persistent shift: every post-change window keeps flagging because
  // flagged values are excluded from history (§4.1.2).
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(detector.update(0.2).outlier) << "post-change window " << i;
  }
}

TEST(ModifiedZScore, AblatedStationarityAbsorbsTheShift) {
  ZScoreParams params;
  params.drop_outliers_from_history = false;
  params.max_history = 30;
  ModifiedZScoreDetector detector(params);
  for (int i = 0; i < 30; ++i) detector.update(1.0);
  int flagged = 0;
  for (int i = 0; i < 40; ++i) {
    if (detector.update(0.2).outlier) ++flagged;
  }
  // The level shift becomes the new normal: flagging stops long before 40.
  EXPECT_LT(flagged, 25);
}

TEST(ModifiedZScore, ConstantHistoryTreatsAnyDeviationAsOutlier) {
  ModifiedZScoreDetector detector;
  for (int i = 0; i < 25; ++i) detector.update(1.0);
  EXPECT_TRUE(detector.update(0.5).outlier);
  EXPECT_FALSE(detector.update(1.0).outlier);
}

TEST(Bitmap, FlagsBurstAfterQuietBaseline) {
  BitmapDetector detector;
  bool flagged = false;
  for (int i = 0; i < 40; ++i) detector.update(0.0);
  for (int i = 0; i < 6; ++i) {
    if (detector.update(5.0).outlier) flagged = true;
  }
  EXPECT_TRUE(flagged);
}

TEST(Bitmap, ToleratesStationaryNoise) {
  BitmapDetector detector;
  // Alternating small values: periodic, stationary.
  int flagged = 0;
  for (int i = 0; i < 200; ++i) {
    if (detector.update(i % 2 == 0 ? 0.48 : 0.52).outlier) ++flagged;
  }
  EXPECT_LE(flagged, 4);
}

TEST(Bitmap, BackfillKeepsThresholdCalibrated) {
  BitmapDetector detector;
  detector.backfill(1.0, 30);
  // After a long constant stretch, a level shift is detected within the
  // lead window.
  bool flagged = false;
  for (int i = 0; i < 8; ++i) {
    if (detector.update(0.0).outlier) flagged = true;
  }
  EXPECT_TRUE(flagged);
}

// The Bitmap scorer as it was before the window moments were hoisted out of
// discretize(): every value recomputes the window mean and sd, O(W) per
// value and O(W^2) per score. Kept here as the oracle the one-pass scorer
// must match bit for bit, including its state bytes.
class ReferenceBitmap {
 public:
  explicit ReferenceBitmap(const BitmapParams& params)
      : params_(params),
        values_(params.lag_window + params.lead_window),
        scores_(BitmapDetector::kScoreHistoryCap) {}

  Judgement update(double value) {
    Judgement judgement;
    values_.push_back(value);
    std::size_t cap = params_.lag_window + params_.lead_window;
    if (values_.size() > cap) values_.pop_front();
    if (values_.size() >= params_.min_history) {
      double score = bitmap_distance();
      judgement.score = score;
      if (scores_.size() >= 8) {
        double mean = 0.0;
        for (double s : scores_) mean += s;
        mean /= static_cast<double>(scores_.size());
        double var = 0.0;
        for (double s : scores_) var += (s - mean) * (s - mean);
        var /= static_cast<double>(scores_.size());
        double sd = std::sqrt(var);
        double threshold =
            mean + params_.threshold_sigmas * std::max(sd, 1e-6);
        judgement.outlier = score > threshold && score > 1e-9;
      }
      if (!judgement.outlier) {
        scores_.push_back(score);
        if (scores_.size() > BitmapDetector::kScoreHistoryCap) {
          scores_.pop_front();
        }
      }
    }
    if (judgement.outlier && params_.drop_outliers_from_history) {
      values_.pop_back();
    }
    return judgement;
  }

  void backfill(double value, std::size_t count) {
    std::size_t cap = params_.lag_window + params_.lead_window;
    count = std::min(count, cap);
    for (std::size_t i = 0; i < count; ++i) values_.push_back(value);
    while (values_.size() > cap) values_.pop_front();
    std::size_t score_fill = std::min<std::size_t>(count, 8);
    for (std::size_t i = 0; i < score_fill; ++i) {
      if (values_.size() >= params_.min_history) {
        scores_.push_back(bitmap_distance());
        if (scores_.size() > BitmapDetector::kScoreHistoryCap) {
          scores_.pop_front();
        }
      }
    }
  }

  void save_state(store::Encoder& enc) const {
    save_ring(enc, values_);
    save_ring(enc, scores_);
  }
  void load_state(store::Decoder& dec) {
    load_ring(dec, values_);
    load_ring(dec, scores_);
  }

 private:
  int discretize(double value) const {
    double mean = 0.0;
    for (double v : values_) mean += v;
    mean /= static_cast<double>(values_.size());
    double var = 0.0;
    for (double v : values_) var += (v - mean) * (v - mean);
    var /= static_cast<double>(values_.size());
    double sd = std::sqrt(var);
    double z = sd > 1e-12 ? (value - mean) / sd : 0.0;
    if (params_.alphabet == 4) {
      if (z < -0.6745) return 0;
      if (z < 0.0) return 1;
      if (z < 0.6745) return 2;
      return 3;
    }
    double cdf = 0.5 * (1.0 + std::erf(z / std::sqrt(2.0)));
    int symbol = static_cast<int>(cdf * static_cast<double>(params_.alphabet));
    return std::clamp(symbol, 0, static_cast<int>(params_.alphabet) - 1);
  }

  double bitmap_distance() const {
    const std::size_t alphabet = params_.alphabet;
    const std::size_t word = params_.word_length;
    std::size_t cells = 1;
    for (std::size_t i = 0; i < word; ++i) cells *= alphabet;
    std::vector<int> symbols;
    for (double v : values_) symbols.push_back(discretize(v));
    std::size_t lead = std::min(params_.lead_window, symbols.size());
    std::size_t lag_end = symbols.size() - lead;
    if (lag_end < word || lead < word) return 0.0;
    auto fill_bitmap = [&](std::size_t begin, std::size_t end) {
      std::vector<double> bitmap(cells, 0.0);
      double max_count = 0.0;
      for (std::size_t i = begin; i + word <= end; ++i) {
        std::size_t cell = 0;
        for (std::size_t j = 0; j < word; ++j) {
          cell = cell * alphabet + static_cast<std::size_t>(symbols[i + j]);
        }
        bitmap[cell] += 1.0;
        max_count = std::max(max_count, bitmap[cell]);
      }
      if (max_count > 0.0) {
        for (double& c : bitmap) c /= max_count;
      }
      return bitmap;
    };
    std::vector<double> lag_bitmap = fill_bitmap(0, lag_end);
    std::vector<double> lead_bitmap = fill_bitmap(lag_end, symbols.size());
    double distance = 0.0;
    for (std::size_t i = 0; i < cells; ++i) {
      double d = lag_bitmap[i] - lead_bitmap[i];
      distance += d * d;
    }
    return distance;
  }

  BitmapParams params_;
  Ring values_;
  Ring scores_;
};

enum class SeriesShape { kConstantRuns, kNearConstant, kLevelShifts };

// Drives the one-pass scorer and the reference over one seeded series,
// interleaving backfill() with update() and round-tripping both through
// save/load mid-stream. Returns the number of judgements compared.
template <class Fail>
int drive_pair(const BitmapParams& params, SeriesShape shape,
               std::uint64_t seed, Fail&& fail) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  auto detector = std::make_unique<BitmapDetector>(params);
  auto reference = std::make_unique<ReferenceBitmap>(params);
  auto state_of = [](const auto& d) {
    store::Encoder enc;
    d.save_state(enc);
    return enc.take();
  };
  double level = unit(rng);
  int compared = 0;
  for (int step = 0; step < 400; ++step) {
    double value = level;
    switch (shape) {
      case SeriesShape::kConstantRuns:
        if (unit(rng) < 0.05) level = std::round(unit(rng) * 4.0) / 4.0;
        value = level;
        break;
      case SeriesShape::kNearConstant: {
        // Perturbations that straddle the sd > 1e-12 breakpoint, down to
        // one ulp of the level.
        static constexpr double kJitter[] = {0.0,   1e-16, 1e-14, 5e-13,
                                             1e-12, 2e-12, 1e-11, 1e-9};
        double jitter = kJitter[rng() % std::size(kJitter)];
        value = unit(rng) < 0.5 ? level + jitter : level - jitter;
        if (unit(rng) < 0.05) value = std::nextafter(level, 2.0);
        break;
      }
      case SeriesShape::kLevelShifts:
        if (unit(rng) < 0.04) level += (unit(rng) - 0.5) * 4.0;
        value = level + (unit(rng) - 0.5) * 0.05;
        break;
    }
    if (unit(rng) < 0.1) {
      std::size_t count = 1 + rng() % 60;
      detector->backfill(value, count);
      reference->backfill(value, count);
    } else {
      Judgement got = detector->update(value);
      Judgement want = reference->update(value);
      ++compared;
      if (std::bit_cast<std::uint64_t>(got.score) !=
              std::bit_cast<std::uint64_t>(want.score) ||
          got.outlier != want.outlier) {
        fail(step, got, want);
        return compared;
      }
    }
    if (step == 137 || step == 311) {
      std::string bytes = state_of(*detector);
      EXPECT_EQ(bytes, state_of(*reference)) << "step " << step;
      detector = std::make_unique<BitmapDetector>(params);
      reference = std::make_unique<ReferenceBitmap>(params);
      store::Decoder dec(bytes);
      detector->load_state(dec);
      store::Decoder ref_dec(bytes);
      reference->load_state(ref_dec);
    }
  }
  EXPECT_EQ(state_of(*detector), state_of(*reference));
  return compared;
}

TEST(Bitmap, OnePassScorerMatchesPerValueMomentsBitForBit) {
  int compared = 0;
  std::uint64_t seed = 1;
  for (std::size_t alphabet : {3u, 4u, 5u}) {
    for (std::size_t word : {1u, 2u, 3u}) {
      for (SeriesShape shape :
           {SeriesShape::kConstantRuns, SeriesShape::kNearConstant,
            SeriesShape::kLevelShifts}) {
        for (bool drop : {true, false}) {
          BitmapParams params;
          params.alphabet = alphabet;
          params.word_length = word;
          params.drop_outliers_from_history = drop;
          for (int rep = 0; rep < 3; ++rep, ++seed) {
            compared += drive_pair(
                params, shape, seed,
                [&](int step, const Judgement& got, const Judgement& want) {
                  ADD_FAILURE()
                      << "alphabet " << alphabet << " word " << word
                      << " shape " << static_cast<int>(shape) << " seed "
                      << seed << " step " << step << ": score "
                      << got.score << " vs " << want.score << ", outlier "
                      << got.outlier << " vs " << want.outlier;
                });
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 50000);
}

TEST(LazySeries, CarryForwardFillsGaps) {
  LazySeries series(std::make_unique<ModifiedZScoreDetector>(),
                    GapPolicy::kCarryLast);
  series.feed(0, 1.0);
  // A judgement 50 windows later sees 49 carried 1.0s in history.
  Judgement j = series.feed(50, 0.0);
  EXPECT_TRUE(j.outlier);
}

TEST(LazySeries, MissingPolicySkipsGaps) {
  LazySeries series(std::make_unique<ModifiedZScoreDetector>(),
                    GapPolicy::kMissing);
  series.feed(0, 1.0);
  Judgement j = series.feed(50, 0.0);
  // Only 1 observation in history: cannot be an outlier yet.
  EXPECT_FALSE(j.outlier);
  EXPECT_EQ(series.history_size(), 2u);
}

TEST(LazySeries, ZeroPolicyFillsZeroes) {
  LazySeries series(std::make_unique<ModifiedZScoreDetector>(),
                    GapPolicy::kZero);
  series.feed(0, 0.0);
  Judgement j = series.feed(40, 7.0);
  EXPECT_TRUE(j.outlier);
}

TEST(LazySeries, SeedArmsTheDetector) {
  LazySeries series(std::make_unique<ModifiedZScoreDetector>(),
                    GapPolicy::kCarryLast);
  series.seed(100, 1.0, 24);
  Judgement j = series.feed(101, 0.0);
  EXPECT_TRUE(j.outlier);
}

TEST(LazySeries, IgnoresOutOfOrderWindows) {
  LazySeries series(std::make_unique<ModifiedZScoreDetector>(),
                    GapPolicy::kCarryLast);
  series.feed(10, 1.0);
  Judgement j = series.feed(10, 0.0);  // duplicate window
  EXPECT_FALSE(j.outlier);
  EXPECT_EQ(series.last_value(), 1.0);
}

class AdaptiveRatioTest : public ::testing::Test {
 protected:
  AdaptiveRatioSeries make(std::int64_t max_mult = 96) {
    ModifiedZScoreDetector prototype;
    return AdaptiveRatioSeries(prototype, max_mult);
  }
};

TEST_F(AdaptiveRatioTest, ArmsAfterTwentyConsecutiveWindows) {
  AdaptiveRatioSeries series = make();
  std::size_t emitted = 0;
  for (std::int64_t w = 0; w < 30; ++w) {
    series.add(w, 8, 10);
    emitted += series.close_through(w + 1).size();
  }
  EXPECT_TRUE(series.armed());
  EXPECT_EQ(series.multiplier(), 1);
  // Windows 0..19 arm the series; 20..29 emit judgements as they close.
  EXPECT_GE(emitted, 9u);
}

TEST_F(AdaptiveRatioTest, EscalatesWindowOnMissingData) {
  AdaptiveRatioSeries series = make();
  // Data only every other base window: multiplier must grow to >= 2.
  for (std::int64_t w = 0; w < 120; w += 2) {
    series.add(w, 1, 1);
    series.close_through(w + 1);
  }
  EXPECT_GE(series.multiplier(), 2);
}

TEST_F(AdaptiveRatioTest, DetectsRatioDropOnceArmed) {
  AdaptiveRatioSeries series = make();
  bool outlier_seen = false;
  for (std::int64_t w = 0; w < 40; ++w) {
    series.add(w, 9, 10);
    series.close_through(w + 1);
  }
  ASSERT_TRUE(series.armed());
  for (std::int64_t w = 40; w < 44; ++w) {
    series.add(w, 0, 10);
    for (const ClosedRatioWindow& closed : series.close_through(w + 1)) {
      if (closed.judgement.outlier && closed.judgement.score < 0) {
        outlier_seen = true;
      }
    }
  }
  EXPECT_TRUE(outlier_seen);
}

TEST_F(AdaptiveRatioTest, MissingWindowsAfterArmingAreSkipped) {
  AdaptiveRatioSeries series = make();
  for (std::int64_t w = 0; w < 25; ++w) {
    series.add(w, 1, 1);
    series.close_through(w + 1);
  }
  ASSERT_TRUE(series.armed());
  // A long silent stretch must not unarm or emit.
  auto closed = series.close_through(60);
  EXPECT_TRUE(closed.empty());
  EXPECT_TRUE(series.armed());
  series.add(60, 1, 1);
  auto after = series.close_through(62);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_FALSE(after[0].judgement.outlier);
}

TEST_F(AdaptiveRatioTest, DormantAtMaxMultiplierWithoutData) {
  AdaptiveRatioSeries series = make(4);
  series.add(0, 1, 1);
  // Escalation proceeds one step per close call; a data-free series caps
  // its multiplier and eventually goes dormant.
  for (std::int64_t t = 1; t < 500; ++t) series.close_through(t);
  EXPECT_TRUE(series.dormant());
  EXPECT_EQ(series.multiplier(), 4);
}

TEST_F(AdaptiveRatioTest, ReportsIntersectCounts) {
  AdaptiveRatioSeries series = make();
  for (std::int64_t w = 0; w < 25; ++w) {
    series.add(w, 3, 7);
    auto closed = series.close_through(w + 1);
    for (const auto& c : closed) {
      EXPECT_EQ(c.intersect, 7);
      EXPECT_NEAR(c.ratio, 3.0 / 7.0, 1e-12);
      EXPECT_EQ(c.multiplier, 1);
    }
  }
}

}  // namespace
}  // namespace rrr::detect
