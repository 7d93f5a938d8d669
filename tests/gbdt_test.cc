#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <tuple>

#include "gbdt/gradient_boosting.h"
#include "gbdt/tree.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "util/rng.h"

namespace tpr::gbdt {
namespace {

// y = 3*x0 + noise-free step on x1.
Matrix MakeRegressionData(int n, std::vector<float>* y, Rng& rng) {
  Matrix x(n, 3);
  y->resize(n);
  for (int i = 0; i < n; ++i) {
    x.at(i, 0) = static_cast<float>(rng.Uniform(-1, 1));
    x.at(i, 1) = static_cast<float>(rng.Uniform(-1, 1));
    x.at(i, 2) = static_cast<float>(rng.Uniform(-1, 1));  // irrelevant
    (*y)[i] = 3.0f * x.at(i, 0) + (x.at(i, 1) > 0 ? 2.0f : 0.0f);
  }
  return x;
}

TEST(RegressionTreeTest, FitsAStepFunction) {
  Rng rng(21);
  Matrix x(100, 1);
  std::vector<float> y(100);
  std::vector<int> idx(100);
  for (int i = 0; i < 100; ++i) {
    x.at(i, 0) = static_cast<float>(i) / 100.0f;
    y[i] = i < 50 ? -1.0f : 1.0f;
    idx[i] = i;
  }
  RegressionTree tree;
  TreeConfig cfg;
  cfg.max_depth = 1;
  cfg.min_samples_leaf = 5;
  tree.Fit(x, y, idx, cfg, rng);
  float lo = 0.2f, hi = 0.8f;
  EXPECT_NEAR(tree.Predict(&lo), -1.0f, 0.1f);
  EXPECT_NEAR(tree.Predict(&hi), 1.0f, 0.1f);
}

TEST(RegressionTreeTest, RespectsMinSamplesLeaf) {
  Rng rng(22);
  Matrix x(20, 1);
  std::vector<float> y(20);
  std::vector<int> idx(20);
  for (int i = 0; i < 20; ++i) {
    x.at(i, 0) = static_cast<float>(i);
    y[i] = static_cast<float>(i % 2);
    idx[i] = i;
  }
  RegressionTree tree;
  TreeConfig cfg;
  cfg.max_depth = 10;
  cfg.min_samples_leaf = 10;
  tree.Fit(x, y, idx, cfg, rng);
  // At most one split is possible with 20 samples and leaves of >= 10.
  EXPECT_LE(tree.num_nodes(), 3);
}

TEST(RegressionTreeTest, ConstantTargetGivesSingleLeaf) {
  Rng rng(23);
  Matrix x(30, 2);
  std::vector<float> y(30, 5.0f);
  std::vector<int> idx(30);
  for (int i = 0; i < 30; ++i) {
    x.at(i, 0) = static_cast<float>(i);
    idx[i] = i;
  }
  RegressionTree tree;
  tree.Fit(x, y, idx, TreeConfig{}, rng);
  EXPECT_EQ(tree.num_nodes(), 1);
  float v = 3.0f;
  EXPECT_FLOAT_EQ(tree.Predict(&v), 5.0f);
}

TEST(GbrTest, LearnsLinearPlusStep) {
  Rng rng(24);
  std::vector<float> y;
  Matrix x = MakeRegressionData(400, &y, rng);
  GradientBoostingRegressor gbr;
  ASSERT_TRUE(gbr.Fit(x, y).ok());
  double total_err = 0;
  for (int i = 0; i < x.rows; ++i) {
    total_err += std::fabs(gbr.Predict(x.row(i)) - y[i]);
  }
  EXPECT_LT(total_err / x.rows, 0.35);
}

TEST(GbrTest, RejectsBadInput) {
  GradientBoostingRegressor gbr;
  EXPECT_FALSE(gbr.Fit(Matrix(), {}).ok());
  Matrix x(3, 1);
  EXPECT_FALSE(gbr.Fit(x, {1.0f}).ok());
}

TEST(GbrTest, PredictBatchMatchesScalar) {
  Rng rng(25);
  std::vector<float> y;
  Matrix x = MakeRegressionData(50, &y, rng);
  GradientBoostingRegressor gbr;
  ASSERT_TRUE(gbr.Fit(x, y).ok());
  const auto batch = gbr.PredictBatch(x);
  for (int i = 0; i < x.rows; ++i) {
    EXPECT_FLOAT_EQ(batch[i], gbr.Predict(x.row(i)));
  }
}

TEST(GbrTest, CountsFittedTreesOnlyWhenMetricsAreOn) {
  Rng rng(30);
  std::vector<float> y;
  Matrix x = MakeRegressionData(60, &y, rng);
  BoostingConfig cfg;
  cfg.num_trees = 7;
  obs::Counter& trees = obs::GetCounter("gbdt.trees");
  const uint64_t before = trees.value();
  {
    obs::ScopedMetricsEnabled off(false);
    ASSERT_TRUE(GradientBoostingRegressor(cfg).Fit(x, y).ok());
  }
  EXPECT_EQ(trees.value(), before);
  {
    obs::ScopedMetricsEnabled on;
    ASSERT_TRUE(GradientBoostingRegressor(cfg).Fit(x, y).ok());
  }
  EXPECT_EQ(trees.value(), before + 7);
}

TEST(GbcTest, SeparatesTwoBlobs) {
  Rng rng(26);
  Matrix x(200, 2);
  std::vector<int> y(200);
  for (int i = 0; i < 200; ++i) {
    const bool positive = i % 2 == 0;
    x.at(i, 0) = static_cast<float>(rng.Gaussian(positive ? 2.0 : -2.0, 0.5));
    x.at(i, 1) = static_cast<float>(rng.Gaussian());
    y[i] = positive ? 1 : 0;
  }
  GradientBoostingClassifier gbc;
  ASSERT_TRUE(gbc.Fit(x, y).ok());
  int correct = 0;
  for (int i = 0; i < x.rows; ++i) {
    correct += gbc.Predict(x.row(i)) == y[i];
  }
  EXPECT_GT(correct, 190);
}

TEST(GbcTest, ProbabilitiesInRange) {
  Rng rng(27);
  Matrix x(60, 2);
  std::vector<int> y(60);
  for (int i = 0; i < 60; ++i) {
    x.at(i, 0) = static_cast<float>(rng.Gaussian());
    x.at(i, 1) = static_cast<float>(rng.Gaussian());
    y[i] = rng.Bernoulli(0.3) ? 1 : 0;
  }
  GradientBoostingClassifier gbc;
  ASSERT_TRUE(gbc.Fit(x, y).ok());
  for (int i = 0; i < x.rows; ++i) {
    const float p = gbc.PredictProba(x.row(i));
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

TEST(GbcTest, ImbalancedBaseScoreMatchesPrior) {
  // With no informative features, predicted probability ~= class prior.
  Rng rng(28);
  Matrix x(300, 1);
  std::vector<int> y(300);
  for (int i = 0; i < 300; ++i) {
    x.at(i, 0) = 0.0f;  // constant feature: no splits possible
    y[i] = i < 60 ? 1 : 0;
  }
  GradientBoostingClassifier gbc;
  ASSERT_TRUE(gbc.Fit(x, y).ok());
  float v = 0.0f;
  EXPECT_NEAR(gbc.PredictProba(&v), 0.2f, 0.05f);
}

// Property sweep: more trees never make training-set MAE worse by much
// (boosting monotonicity on the training set).
class BoostingDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(BoostingDepthTest, TrainErrorDecreasesWithTrees) {
  Rng rng(29);
  std::vector<float> y;
  Matrix x = MakeRegressionData(200, &y, rng);
  auto train_mae = [&](int trees) {
    BoostingConfig cfg;
    cfg.num_trees = trees;
    cfg.tree.max_depth = GetParam();
    cfg.subsample = 1.0;
    GradientBoostingRegressor gbr(cfg);
    EXPECT_TRUE(gbr.Fit(x, y).ok());
    double err = 0;
    for (int i = 0; i < x.rows; ++i) {
      err += std::fabs(gbr.Predict(x.row(i)) - y[i]);
    }
    return err / x.rows;
  };
  EXPECT_LT(train_mae(100), train_mae(10) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Depths, BoostingDepthTest, ::testing::Values(2, 3, 5));

// ---------------------------------------------------------------------------
// Presorted split search against the sort-per-node builder it replaced.
// ---------------------------------------------------------------------------

using Node = RegressionTree::Node;

// The original builder: sorts the node's rows by each feature's value at
// every node. Test-only reference for the presorted builder.
int ReferenceBuild(const Matrix& x, const std::vector<float>& targets,
                   std::vector<int>& indices, int begin, int end, int depth,
                   const TreeConfig& config, Rng& rng,
                   std::vector<Node>& nodes) {
  const int node_id = static_cast<int>(nodes.size());
  nodes.emplace_back();
  const int n = end - begin;
  double sum = 0.0;
  for (int i = begin; i < end; ++i) sum += targets[indices[i]];
  nodes[node_id].value = static_cast<float>(sum / n);
  if (depth >= config.max_depth || n < 2 * config.min_samples_leaf) {
    return node_id;
  }
  int best_feature = -1;
  float best_threshold = 0.0f;
  double best_gain = 1e-12;
  std::vector<int> sorted(indices.begin() + begin, indices.begin() + end);
  for (int f = 0; f < x.cols; ++f) {
    if (config.feature_fraction < 1.0 &&
        rng.Uniform() > config.feature_fraction) {
      continue;
    }
    std::sort(sorted.begin(), sorted.end(),
              [&](int a, int b) { return x.at(a, f) < x.at(b, f); });
    double left_sum = 0.0;
    for (int i = 0; i + 1 < n; ++i) {
      left_sum += targets[sorted[i]];
      const int left_n = i + 1;
      const int right_n = n - left_n;
      if (left_n < config.min_samples_leaf ||
          right_n < config.min_samples_leaf) {
        continue;
      }
      const float v = x.at(sorted[i], f);
      const float v_next = x.at(sorted[i + 1], f);
      if (v == v_next) continue;
      const double right_sum = sum - left_sum;
      const double gain = left_sum * left_sum / left_n +
                          right_sum * right_sum / right_n - sum * sum / n;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = f;
        best_threshold = 0.5f * (v + v_next);
      }
    }
  }
  if (best_feature < 0) return node_id;
  const auto mid_it = std::partition(
      indices.begin() + begin, indices.begin() + end,
      [&](int i) { return x.at(i, best_feature) <= best_threshold; });
  const int mid = static_cast<int>(mid_it - indices.begin());
  if (mid == begin || mid == end) return node_id;
  nodes[node_id].feature = best_feature;
  nodes[node_id].threshold = best_threshold;
  const int left = ReferenceBuild(x, targets, indices, begin, mid, depth + 1,
                                  config, rng, nodes);
  const int right = ReferenceBuild(x, targets, indices, mid, end, depth + 1,
                                   config, rng, nodes);
  nodes[node_id].left = left;
  nodes[node_id].right = right;
  return node_id;
}

std::vector<Node> ReferenceFit(const Matrix& x,
                               const std::vector<float>& targets,
                               std::vector<int> indices,
                               const TreeConfig& config, Rng& rng) {
  std::vector<Node> nodes;
  ReferenceBuild(x, targets, indices, 0, static_cast<int>(indices.size()), 0,
                 config, rng, nodes);
  return nodes;
}

uint32_t Bits(float v) {
  uint32_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void ExpectSameNodes(const std::vector<Node>& want,
                     const std::vector<Node>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].feature, got[i].feature) << "node " << i;
    EXPECT_EQ(Bits(want[i].threshold), Bits(got[i].threshold)) << "node " << i;
    EXPECT_EQ(Bits(want[i].value), Bits(got[i].value)) << "node " << i;
    EXPECT_EQ(want[i].left, got[i].left) << "node " << i;
    EXPECT_EQ(want[i].right, got[i].right) << "node " << i;
  }
}

// Every column holds distinct values (a shuffled grid with jitter inside
// each cell), so any builder's sort order is unique. Targets mix a few
// features non-linearly with noise.
Matrix DistinctMatrix(int n, int cols, std::vector<float>* y, Rng& rng) {
  Matrix x(n, cols);
  std::vector<int> perm(n);
  for (int f = 0; f < cols; ++f) {
    std::iota(perm.begin(), perm.end(), 0);
    rng.Shuffle(perm);
    for (int i = 0; i < n; ++i) {
      x.at(i, f) = static_cast<float>((perm[i] + rng.Uniform(0.1, 0.9)) / n -
                                      0.5);
    }
  }
  y->resize(n);
  for (int i = 0; i < n; ++i) {
    (*y)[i] = static_cast<float>(3.0 * x.at(i, 0) + std::sin(6.0 * x.at(i, 1)) +
                                 (x.at(i, 2) > 0.1f ? 1.5 : 0.0) +
                                 rng.Gaussian(0.0, 0.2));
  }
  return x;
}

// A boosting-style row sample: shuffled, 90% of the rows.
std::vector<int> SampleOf(int n, Rng& rng) {
  std::vector<int> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  rng.Shuffle(rows);
  rows.resize(n * 9 / 10);
  return rows;
}

// Restores the default pool's size when a test changes it.
class PoolSizeGuard {
 public:
  explicit PoolSizeGuard(int threads) { par::SetDefaultThreads(threads); }
  ~PoolSizeGuard() { par::SetDefaultThreads(par::ConfiguredThreads()); }
  PoolSizeGuard(const PoolSizeGuard&) = delete;
  PoolSizeGuard& operator=(const PoolSizeGuard&) = delete;
};

// (max_depth, pool threads)
class PresortedEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PresortedEquivalenceTest, MatchesSortPerNodeBuilderBitwise) {
  const auto [depth, threads] = GetParam();
  PoolSizeGuard pool(threads);
  Rng data_rng(40 + depth);
  std::vector<float> y;
  // 1200 x 24: the root and its children take the pool's parallel path,
  // deeper nodes run inline.
  const Matrix x = DistinctMatrix(1200, 24, &y, data_rng);
  PresortedMatrix presorted(x);
  struct Case {
    int min_samples_leaf;
    double feature_fraction;
  };
  // min_samples_leaf 1 (every gap), 2, a typical 8, and 540 (exactly half
  // of the 1080-row sample: one split at most), 541 (no split possible).
  for (const Case c : {Case{1, 1.0}, Case{2, 1.0}, Case{8, 1.0},
                       Case{8, 0.5}, Case{1, 0.3}, Case{540, 1.0},
                       Case{541, 1.0}}) {
    SCOPED_TRACE(::testing::Message() << "min_samples_leaf "
                                      << c.min_samples_leaf
                                      << " feature_fraction "
                                      << c.feature_fraction);
    TreeConfig cfg;
    cfg.max_depth = depth;
    cfg.min_samples_leaf = c.min_samples_leaf;
    cfg.feature_fraction = c.feature_fraction;
    Rng sample_rng(7 * depth + c.min_samples_leaf);
    const std::vector<int> rows = SampleOf(x.rows, sample_rng);
    Rng ref_rng(99), rng(99);
    const std::vector<Node> want = ReferenceFit(x, y, rows, cfg, ref_rng);
    RegressionTree tree;
    tree.Fit(presorted, y, rows, cfg, rng);
    ExpectSameNodes(want, tree.nodes());
    // Both consumed the same feature-subsampling draws.
    EXPECT_EQ(ref_rng.NextU64(), rng.NextU64());
    if (c.min_samples_leaf == 541) {
      EXPECT_EQ(tree.num_nodes(), 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DepthsAndPools, PresortedEquivalenceTest,
                         ::testing::Combine(::testing::Range(1, 7),
                                            ::testing::Values(1, 4)));

TEST(PresortedTreeTest, RepeatedSampleRowsMatchReference) {
  PoolSizeGuard pool(4);
  Rng rng(51);
  std::vector<float> y;
  const Matrix x = DistinctMatrix(900, 20, &y, rng);
  // A bootstrap sample: rows drawn with replacement.
  std::vector<int> rows(900);
  for (int& r : rows) r = static_cast<int>(rng.UniformInt(900));
  TreeConfig cfg;
  cfg.max_depth = 4;
  cfg.min_samples_leaf = 3;
  Rng ref_rng(5), fit_rng(5);
  RegressionTree tree;
  tree.Fit(x, y, rows, cfg, fit_rng);
  ExpectSameNodes(ReferenceFit(x, y, rows, cfg, ref_rng), tree.nodes());
}

TEST(PresortedTreeTest, PresortedFitEqualsStandaloneFit) {
  Rng rng(52);
  std::vector<float> y;
  const Matrix x = DistinctMatrix(400, 6, &y, rng);
  PresortedMatrix presorted(x);
  TreeConfig cfg;
  cfg.max_depth = 5;
  // The same presorted matrix serves many trees with different samples.
  for (int t = 0; t < 5; ++t) {
    Rng sample_rng(t);
    const std::vector<int> rows = SampleOf(x.rows, sample_rng);
    Rng a(t), b(t);
    RegressionTree shared, standalone;
    shared.Fit(presorted, y, rows, cfg, a);
    standalone.Fit(x, y, rows, cfg, b);
    ExpectSameNodes(standalone.nodes(), shared.nodes());
  }
}

// Quantised columns, duplicated rows and a constant column: ties
// everywhere. Tie order is (value, row) at every thread count, so the
// trees are identical at 1 and 4 threads and across repeated fits.
Matrix TieHeavyMatrix(std::vector<float>* y) {
  Rng rng(61);
  const int unique_rows = 600;
  const int cols = 30;
  Matrix x(2 * unique_rows, cols);
  y->resize(x.rows);
  for (int i = 0; i < unique_rows; ++i) {
    for (int f = 0; f < cols; ++f) {
      const int levels = 2 + f % 5;  // 2..6 distinct values per column
      x.at(i, f) = f == cols - 1
                       ? 1.0f  // constant column
                       : static_cast<float>(rng.UniformInt(levels)) * 0.25f;
    }
    (*y)[i] = x.at(i, 0) * 4.0f - x.at(i, 3) +
              static_cast<float>(rng.Gaussian(0.0, 0.5));
  }
  for (int i = unique_rows; i < x.rows; ++i) {  // duplicated rows
    const int src = static_cast<int>(rng.UniformInt(unique_rows));
    for (int f = 0; f < cols; ++f) x.at(i, f) = x.at(src, f);
    (*y)[i] = (*y)[src] + static_cast<float>(rng.Gaussian(0.0, 0.1));
  }
  return x;
}

TEST(PresortedTreeTest, TieHeavyTreesIndependentOfThreadsAndRepeats) {
  std::vector<float> y;
  const Matrix x = TieHeavyMatrix(&y);
  TreeConfig cfg;
  cfg.max_depth = 6;
  cfg.min_samples_leaf = 2;
  cfg.feature_fraction = 0.7;
  auto fit = [&](int threads) {
    PoolSizeGuard pool(threads);
    Rng sample_rng(3), rng(4);
    RegressionTree tree;
    tree.Fit(x, y, SampleOf(x.rows, sample_rng), cfg, rng);
    return tree.nodes();
  };
  const std::vector<Node> one = fit(1);
  EXPECT_GT(one.size(), 1u);
  ExpectSameNodes(one, fit(4));
  ExpectSameNodes(one, fit(4));
  ExpectSameNodes(one, fit(1));
}

TEST(PresortedTreeTest, TieHeavyBoostingIndependentOfThreadsAndRepeats) {
  std::vector<float> y;
  const Matrix x = TieHeavyMatrix(&y);
  std::vector<int> labels(y.size());
  for (size_t i = 0; i < y.size(); ++i) labels[i] = y[i] > 1.5f;
  BoostingConfig cfg;
  cfg.num_trees = 30;
  cfg.tree.feature_fraction = 0.8;
  auto fit = [&](int threads) {
    PoolSizeGuard pool(threads);
    GradientBoostingRegressor gbr(cfg);
    GradientBoostingClassifier gbc(cfg);
    EXPECT_TRUE(gbr.Fit(x, y).ok());
    EXPECT_TRUE(gbc.Fit(x, labels).ok());
    std::vector<uint32_t> out;
    for (int i = 0; i < x.rows; ++i) {
      out.push_back(Bits(gbr.Predict(x.row(i))));
      out.push_back(Bits(gbc.PredictProba(x.row(i))));
    }
    return out;
  };
  const std::vector<uint32_t> one = fit(1);
  EXPECT_EQ(one, fit(4));
  EXPECT_EQ(one, fit(4));
  EXPECT_EQ(one, fit(1));
}

}  // namespace
}  // namespace tpr::gbdt
