#ifndef TPR_GBDT_TREE_H_
#define TPR_GBDT_TREE_H_

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace tpr::gbdt {

/// Dense feature matrix: samples x features, row major.
struct Matrix {
  int rows = 0;
  int cols = 0;
  std::vector<float> data;

  Matrix() = default;
  Matrix(int r, int c) : rows(r), cols(c), data(static_cast<size_t>(r) * c) {}

  float at(int r, int c) const { return data[static_cast<size_t>(r) * cols + c]; }
  float& at(int r, int c) { return data[static_cast<size_t>(r) * cols + c]; }
  const float* row(int r) const { return data.data() + static_cast<size_t>(r) * cols; }
};

/// Hyper-parameters of a single CART regression tree.
struct TreeConfig {
  int max_depth = 3;
  int min_samples_leaf = 8;
  /// Fraction of features considered at each split (column subsampling).
  double feature_fraction = 1.0;
};

/// The presorted form of a feature matrix that the split search scans: a
/// column-major copy and, per feature, every row id sorted by
/// (value, row). Built once per boosting fit and shared by all of its
/// trees. It also owns the trees' work buffers, so one instance serves
/// one tree fit at a time.
class PresortedMatrix {
 public:
  explicit PresortedMatrix(const Matrix& x);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  float at(int r, int f) const {
    return columns_[static_cast<size_t>(f) * rows_ + r];
  }

 private:
  friend class RegressionTree;

  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> columns_;  // cols x rows
  std::vector<int> order_;      // cols x rows, each column by (value, row)

  // Per-tree work buffers (cols x sample size), reused across trees.
  std::vector<int> segments_;  // each feature's node rows, sorted
  std::vector<int> spill_;     // right-child staging for partitions
  std::vector<int> multiplicity_;  // rows: times the row is in the sample
  std::vector<char> goes_left_;    // rows: side of the current split
};

/// A CART regression tree fit with exact greedy variance-reduction splits.
/// Used as the weak learner inside gradient boosting.
///
/// Split search scans presorted feature segments, split across the
/// default thread pool by feature; the per-feature bests are reduced in
/// feature order, so the tree does not depend on the thread count.
class RegressionTree {
 public:
  struct Node {
    int feature = -1;      // -1 for leaves
    float threshold = 0.0f;
    float value = 0.0f;    // leaf prediction
    int left = -1;
    int right = -1;
  };

  /// Fits the tree on the subset `indices` of the rows of x against the
  /// per-row targets. rng drives feature subsampling.
  void Fit(const Matrix& x, const std::vector<float>& targets,
           const std::vector<int>& indices, const TreeConfig& config,
           Rng& rng);

  /// Same, on a matrix presorted once for many trees.
  void Fit(PresortedMatrix& x, const std::vector<float>& targets,
           const std::vector<int>& indices, const TreeConfig& config,
           Rng& rng);

  /// Predicts a single feature row.
  float Predict(const float* features) const;

  /// Nodes in pre-order; node 0 is the root.
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Number of nodes (diagnostics).
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

 private:
  struct Builder;

  std::vector<Node> nodes_;
};

}  // namespace tpr::gbdt

#endif  // TPR_GBDT_TREE_H_
