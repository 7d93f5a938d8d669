#include "gbdt/tree.h"

#include <algorithm>
#include <utility>

#include "par/thread_pool.h"
#include "util/logging.h"

namespace tpr::gbdt {
namespace {

// Rows x features below which a presort, scan or partition step runs
// inline on the calling thread: a pool round trip would cost more than
// the work it spreads.
constexpr size_t kMinParallelWork = 16384;

// Calls fn(f_begin, f_end) over disjoint feature ranges covering
// [0, cols), across the default pool when `work` is large enough. Every
// feature is handled by exactly one call, so per-feature outputs need no
// synchronisation and do not depend on the thread count.
template <typename Fn>
void ForFeatureRanges(int cols, size_t work, const Fn& fn) {
  par::ThreadPool& pool = par::DefaultPool();
  const int threads = pool.num_threads();
  if (threads == 1 || cols == 1 || work < kMinParallelWork) {
    fn(0, cols);
    return;
  }
  const int chunks = std::min(cols, 4 * threads);
  pool.ParallelFor(chunks, [&](int c) {
    fn(cols * c / chunks, cols * (c + 1) / chunks);
  });
}

// Best split of one feature at one node. A gain that never beats the
// 1e-12 floor means "no split".
struct Split {
  double gain = 1e-12;
  float threshold = 0.0f;
};

}  // namespace

PresortedMatrix::PresortedMatrix(const Matrix& x)
    : rows_(x.rows),
      cols_(x.cols),
      columns_(static_cast<size_t>(x.rows) * x.cols),
      order_(static_cast<size_t>(x.rows) * x.cols) {
  const size_t n = static_cast<size_t>(rows_);
  ForFeatureRanges(cols_, n * cols_, [&](int f0, int f1) {
    for (size_t r = 0; r < n; ++r) {
      const float* row = x.row(static_cast<int>(r));
      for (int f = f0; f < f1; ++f) columns_[f * n + r] = row[f];
    }
    std::vector<std::pair<float, int>> keyed(n);
    for (int f = f0; f < f1; ++f) {
      const float* col = &columns_[f * n];
      for (size_t r = 0; r < n; ++r) keyed[r] = {col[r], static_cast<int>(r)};
      std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
        return a.first < b.first || (a.first == b.first && a.second < b.second);
      });
      int* order = &order_[f * n];
      for (size_t r = 0; r < n; ++r) order[r] = keyed[r].second;
    }
  });
}

// One tree fit. Each node owns the range [begin, end) of `indices`,
// which std::partition splits in place and over which the node's target
// sum runs, in that order (leaf values depend on it). The same range of
// every feature's segment in x.segments_ holds the node's rows sorted by
// (value, row), so the split scan needs no sort.
struct RegressionTree::Builder {
  PresortedMatrix& x;
  const std::vector<float>& targets;
  const TreeConfig& config;
  Rng& rng;
  std::vector<Node>& nodes;
  std::vector<int> indices;
  size_t sample = 0;  // rows in the tree's sample, with repeats
  std::vector<char> considered;
  std::vector<Split> best;

  // Fills every feature's segment with the sample's rows in presorted
  // order: a filter, O(rows x features), no sort.
  void Prepare() {
    const size_t rows = static_cast<size_t>(x.rows_);
    x.multiplicity_.assign(rows, 0);
    for (int r : indices) {
      TPR_CHECK(r >= 0 && r < x.rows_) << "row index out of range";
      ++x.multiplicity_[r];
    }
    x.segments_.resize(sample * x.cols_);
    x.spill_.resize(sample * x.cols_);
    x.goes_left_.resize(rows);
    considered.assign(x.cols_, 1);
    best.resize(x.cols_);
    ForFeatureRanges(x.cols_, rows * x.cols_, [&](int f0, int f1) {
      for (int f = f0; f < f1; ++f) {
        const int* order = &x.order_[f * rows];
        int* seg = &x.segments_[f * sample];
        for (size_t i = 0; i < rows; ++i) {
          for (int c = x.multiplicity_[order[i]]; c > 0; --c) *seg++ = order[i];
        }
      }
    });
  }

  Split ScanFeature(int f, int begin, int end, double total_sum) const {
    const int* seg = &x.segments_[f * sample];
    const float* col = &x.columns_[static_cast<size_t>(f) * x.rows_];
    const int n = end - begin;
    Split split;
    double left_sum = 0.0;
    for (int i = begin; i + 1 < end; ++i) {
      left_sum += targets[seg[i]];
      const int left_n = i - begin + 1;
      const int right_n = n - left_n;
      if (left_n < config.min_samples_leaf ||
          right_n < config.min_samples_leaf) {
        continue;
      }
      const float v = col[seg[i]];
      const float v_next = col[seg[i + 1]];
      if (v == v_next) continue;  // cannot split between equal values
      const double right_sum = total_sum - left_sum;
      // Variance reduction is equivalent (up to constants) to maximising
      // sum_left^2/n_left + sum_right^2/n_right.
      const double gain = left_sum * left_sum / left_n +
                          right_sum * right_sum / right_n -
                          total_sum * total_sum / n;
      if (gain > split.gain) {
        split.gain = gain;
        split.threshold = 0.5f * (v + v_next);
      }
    }
    return split;
  }

  // Stable partition of feature f's segment [begin, end) by goes_left_.
  void PartitionFeature(int f, int begin, int end) {
    int* seg = &x.segments_[f * sample];
    int* spill = &x.spill_[f * sample];
    int write = begin;
    int spilled = begin;
    for (int i = begin; i < end; ++i) {
      const int r = seg[i];
      if (x.goes_left_[r]) {
        seg[write++] = r;
      } else {
        spill[spilled++] = r;
      }
    }
    std::copy(spill + begin, spill + spilled, seg + write);
  }

  int Build(int begin, int end, int depth) {
    const int node_id = static_cast<int>(nodes.size());
    nodes.emplace_back();

    const int n = end - begin;
    double sum = 0.0;
    for (int i = begin; i < end; ++i) sum += targets[indices[i]];
    const float mean = static_cast<float>(sum / n);
    nodes[node_id].value = mean;

    if (depth >= config.max_depth || n < 2 * config.min_samples_leaf) {
      return node_id;
    }

    // Exact greedy split. Feature subsampling draws in feature order
    // before the scan; the per-feature bests then reduce in feature
    // order with the same strict '>' a serial scan applies, so the first
    // feature reaching the best gain wins at any thread count.
    if (config.feature_fraction < 1.0) {
      for (int f = 0; f < x.cols_; ++f) {
        considered[f] = !(rng.Uniform() > config.feature_fraction);
      }
    }
    const size_t work = static_cast<size_t>(n) * x.cols_;
    ForFeatureRanges(x.cols_, work, [&](int f0, int f1) {
      for (int f = f0; f < f1; ++f) {
        best[f] = considered[f] ? ScanFeature(f, begin, end, sum) : Split{};
      }
    });
    int best_feature = -1;
    Split chosen;
    for (int f = 0; f < x.cols_; ++f) {
      if (best[f].gain > chosen.gain) {
        chosen = best[f];
        best_feature = f;
      }
    }
    if (best_feature < 0) return node_id;

    const auto mid_it = std::partition(
        indices.begin() + begin, indices.begin() + end, [&](int r) {
          return x.at(r, best_feature) <= chosen.threshold;
        });
    const int mid = static_cast<int>(mid_it - indices.begin());
    if (mid == begin || mid == end) return node_id;

    for (int i = begin; i < end; ++i) x.goes_left_[indices[i]] = i < mid;
    ForFeatureRanges(x.cols_, work, [&](int f0, int f1) {
      for (int f = f0; f < f1; ++f) PartitionFeature(f, begin, end);
    });

    nodes[node_id].feature = best_feature;
    nodes[node_id].threshold = chosen.threshold;
    const int left = Build(begin, mid, depth + 1);
    const int right = Build(mid, end, depth + 1);
    nodes[node_id].left = left;
    nodes[node_id].right = right;
    return node_id;
  }
};

void RegressionTree::Fit(const Matrix& x, const std::vector<float>& targets,
                         const std::vector<int>& indices,
                         const TreeConfig& config, Rng& rng) {
  PresortedMatrix presorted(x);
  Fit(presorted, targets, indices, config, rng);
}

void RegressionTree::Fit(PresortedMatrix& x, const std::vector<float>& targets,
                         const std::vector<int>& indices,
                         const TreeConfig& config, Rng& rng) {
  TPR_CHECK(!indices.empty());
  TPR_CHECK(static_cast<int>(targets.size()) == x.rows());
  nodes_.clear();
  Builder b{x, targets, config, rng, nodes_, indices, indices.size(), {}, {}};
  b.Prepare();
  b.Build(0, static_cast<int>(indices.size()), 0);
}

float RegressionTree::Predict(const float* features) const {
  int node = 0;
  while (nodes_[node].feature >= 0) {
    node = features[nodes_[node].feature] <= nodes_[node].threshold
               ? nodes_[node].left
               : nodes_[node].right;
  }
  return nodes_[node].value;
}

}  // namespace tpr::gbdt
