#include "detect/detector.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace rrr::detect {
namespace {

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  std::nth_element(values.begin(), values.begin() + mid - 1,
                   values.begin() + mid);
  return (values[mid - 1] + upper) / 2.0;
}

}  // namespace

Judgement ModifiedZScoreDetector::update(double value) {
  Judgement judgement;
  if (history_.size() >= params_.min_history) {
    std::vector<double> h(history_.begin(), history_.end());
    double med = median_of(h);
    std::vector<double> abs_dev;
    abs_dev.reserve(h.size());
    for (double v : h) abs_dev.push_back(std::abs(v - med));
    double mad = median_of(abs_dev);
    double m = 0.0;
    if (mad > 1e-12) {
      m = 0.6745 * (value - med) / mad;
    } else {
      // Degenerate MAD: fall back to the mean absolute deviation.
      double mean_ad = 0.0;
      for (double d : abs_dev) mean_ad += d;
      mean_ad /= static_cast<double>(abs_dev.size());
      if (mean_ad > 1e-12) {
        m = (value - med) / (1.253314 * mean_ad);
      } else {
        // Perfectly constant history: any deviation is an outlier, signed
        // by its direction (one-sided consumers rely on the sign).
        m = value == med
                ? 0.0
                : (value < med ? -2.0 : 2.0) * params_.threshold;
      }
    }
    judgement.score = m;
    judgement.outlier = std::abs(m) > params_.threshold &&
                        std::abs(value - med) >= params_.min_abs_deviation;
  }
  if (!(judgement.outlier && params_.drop_outliers_from_history)) {
    history_.push_back(value);
    if (history_.size() > params_.max_history) history_.pop_front();
  }
  return judgement;
}

void ModifiedZScoreDetector::backfill(double value, std::size_t count) {
  count = std::min(count, params_.max_history);
  for (std::size_t i = 0; i < count; ++i) history_.push_back(value);
  while (history_.size() > params_.max_history) history_.pop_front();
}

BitmapDetector::BitmapDetector(const BitmapParams& params)
    : params_(params),
      values_(params.lag_window + params.lead_window),
      scores_(kScoreHistoryCap) {}

void BitmapDetector::backfill(double value, std::size_t count) {
  std::size_t cap = params_.lag_window + params_.lead_window;
  count = std::min(count, cap);
  for (std::size_t i = 0; i < count; ++i) values_.push_back(value);
  while (values_.size() > cap) values_.pop_front();
  // Constant stretches produce zero-distance scores; reflect a few of them
  // in the score history so the adaptive threshold stays calibrated.
  // values_ is fixed from here on, so one score stands for all of them.
  if (values_.size() < params_.min_history) return;
  const double score = bitmap_distance();
  std::size_t score_fill = std::min<std::size_t>(count, 8);
  for (std::size_t i = 0; i < score_fill; ++i) {
    scores_.push_back(score);
    if (scores_.size() > kScoreHistoryCap) scores_.pop_front();
  }
}

int BitmapDetector::discretize(double value, double mean, double sd) const {
  // z-normalize against the retained window's moments, then apply the
  // standard SAX breakpoints for a 4-symbol alphabet: -0.6745, 0, 0.6745.
  double z = sd > 1e-12 ? (value - mean) / sd : 0.0;
  if (params_.alphabet == 4) {
    if (z < -0.6745) return 0;
    if (z < 0.0) return 1;
    if (z < 0.6745) return 2;
    return 3;
  }
  // General equiprobable breakpoints via the probit approximation.
  double cdf = 0.5 * (1.0 + std::erf(z / std::sqrt(2.0)));
  int symbol = static_cast<int>(cdf * static_cast<double>(params_.alphabet));
  return std::clamp(symbol, 0, static_cast<int>(params_.alphabet) - 1);
}

double BitmapDetector::bitmap_distance() const {
  const std::size_t alphabet = params_.alphabet;
  const std::size_t word = params_.word_length;
  std::size_t cells = 1;
  for (std::size_t i = 0; i < word; ++i) cells *= alphabet;

  // Discretize the full retained window once, against its mean and sd
  // computed once here: a score costs O(W), not O(W) per value.
  double mean = 0.0;
  for (double v : values_) mean += v;
  mean /= static_cast<double>(values_.size());
  double var = 0.0;
  for (double v : values_) var += (v - mean) * (v - mean);
  var /= static_cast<double>(values_.size());
  const double sd = std::sqrt(var);
  std::vector<int> symbols;
  symbols.reserve(values_.size());
  for (double v : values_) symbols.push_back(discretize(v, mean, sd));

  std::size_t lead = std::min(params_.lead_window, symbols.size());
  std::size_t lag_begin = 0;
  std::size_t lag_end = symbols.size() - lead;  // [lag_begin, lag_end)
  if (lag_end - lag_begin < word || lead < word) return 0.0;

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

  std::vector<double> lag_bitmap = fill_bitmap(lag_begin, lag_end);
  std::vector<double> lead_bitmap = fill_bitmap(lag_end, symbols.size());
  double distance = 0.0;
  for (std::size_t i = 0; i < cells; ++i) {
    double d = lag_bitmap[i] - lead_bitmap[i];
    distance += d * d;
  }
  return distance;
}

Judgement BitmapDetector::update(double value) {
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
      double threshold = mean + params_.threshold_sigmas * std::max(sd, 1e-6);
      judgement.outlier = score > threshold && score > 1e-9;
    }
    if (!judgement.outlier) {
      scores_.push_back(score);
      if (scores_.size() > kScoreHistoryCap) scores_.pop_front();
    }
  }

  if (judgement.outlier && params_.drop_outliers_from_history) {
    values_.pop_back();
  }
  return judgement;
}

void save_ring(store::Encoder& enc, const Ring& values) {
  enc.u64(values.size());
  for (double v : values) enc.f64(v);
}

void load_ring(store::Decoder& dec, Ring& values) {
  values.clear();
  std::uint64_t n = dec.u64();
  for (std::uint64_t i = 0; i < n; ++i) values.push_back(dec.f64());
}

std::unique_ptr<Detector> make_detector(DetectorKind kind) {
  if (kind == DetectorKind::kBitmap) {
    return std::make_unique<BitmapDetector>();
  }
  return std::make_unique<ModifiedZScoreDetector>();
}

}  // namespace rrr::detect
