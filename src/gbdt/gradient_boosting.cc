#include "gbdt/gradient_boosting.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tpr::gbdt {
namespace {

std::vector<int> SampleRows(int n, double fraction, Rng& rng) {
  std::vector<int> all(n);
  std::iota(all.begin(), all.end(), 0);
  if (fraction >= 1.0) return all;
  rng.Shuffle(all);
  const int keep = std::max(1, static_cast<int>(n * fraction));
  all.resize(keep);
  return all;
}

// Trees fitted across all boosting models (the probe-phase work count).
void CountTrees(int n) {
  static obs::Counter& trees = obs::GetCounter("gbdt.trees");
  trees.Add(static_cast<uint64_t>(n));
}

float Sigmoid(float x) {
  return x >= 0 ? 1.0f / (1.0f + std::exp(-x))
                : std::exp(x) / (1.0f + std::exp(x));
}

}  // namespace

Status GradientBoostingRegressor::Fit(const Matrix& x,
                                      const std::vector<float>& y) {
  if (x.rows == 0 || x.cols == 0) {
    return Status::InvalidArgument("empty feature matrix");
  }
  if (static_cast<int>(y.size()) != x.rows) {
    return Status::InvalidArgument("target size mismatch");
  }
  obs::ScopedSpan span("gbdt.fit", "trees", config_.num_trees);
  Rng rng(config_.seed);
  trees_.clear();
  PresortedMatrix presorted(x);

  double sum = 0.0;
  for (float v : y) sum += v;
  base_prediction_ = static_cast<float>(sum / y.size());

  std::vector<float> current(y.size(), base_prediction_);
  std::vector<float> residuals(y.size());
  trees_.reserve(config_.num_trees);
  for (int t = 0; t < config_.num_trees; ++t) {
    for (size_t i = 0; i < y.size(); ++i) residuals[i] = y[i] - current[i];
    const auto rows = SampleRows(x.rows, config_.subsample, rng);
    RegressionTree tree;
    tree.Fit(presorted, residuals, rows, config_.tree, rng);
    for (int i = 0; i < x.rows; ++i) {
      current[i] += config_.learning_rate * tree.Predict(x.row(i));
    }
    trees_.push_back(std::move(tree));
  }
  CountTrees(config_.num_trees);
  return Status::OK();
}

float GradientBoostingRegressor::Predict(const float* features) const {
  float pred = base_prediction_;
  for (const auto& tree : trees_) {
    pred += config_.learning_rate * tree.Predict(features);
  }
  return pred;
}

std::vector<float> GradientBoostingRegressor::PredictBatch(
    const Matrix& x) const {
  std::vector<float> out(x.rows);
  for (int i = 0; i < x.rows; ++i) out[i] = Predict(x.row(i));
  return out;
}

Status GradientBoostingClassifier::Fit(const Matrix& x,
                                       const std::vector<int>& y) {
  if (x.rows == 0 || x.cols == 0) {
    return Status::InvalidArgument("empty feature matrix");
  }
  if (static_cast<int>(y.size()) != x.rows) {
    return Status::InvalidArgument("label size mismatch");
  }
  obs::ScopedSpan span("gbdt.fit", "trees", config_.num_trees);
  Rng rng(config_.seed);
  trees_.clear();
  PresortedMatrix presorted(x);

  double pos = 0.0;
  for (int v : y) pos += v;
  const double p = std::clamp(pos / y.size(), 1e-4, 1.0 - 1e-4);
  base_score_ = static_cast<float>(std::log(p / (1.0 - p)));

  std::vector<float> score(y.size(), base_score_);
  std::vector<float> gradients(y.size());
  trees_.reserve(config_.num_trees);
  for (int t = 0; t < config_.num_trees; ++t) {
    // Negative gradient of logistic loss: y - sigmoid(score).
    for (size_t i = 0; i < y.size(); ++i) {
      gradients[i] = static_cast<float>(y[i]) - Sigmoid(score[i]);
    }
    const auto rows = SampleRows(x.rows, config_.subsample, rng);
    RegressionTree tree;
    tree.Fit(presorted, gradients, rows, config_.tree, rng);
    for (int i = 0; i < x.rows; ++i) {
      score[i] += config_.learning_rate * tree.Predict(x.row(i));
    }
    trees_.push_back(std::move(tree));
  }
  CountTrees(config_.num_trees);
  return Status::OK();
}

float GradientBoostingClassifier::Score(const float* features) const {
  float s = base_score_;
  for (const auto& tree : trees_) {
    s += config_.learning_rate * tree.Predict(features);
  }
  return s;
}

float GradientBoostingClassifier::PredictProba(const float* features) const {
  return Sigmoid(Score(features));
}

}  // namespace tpr::gbdt
