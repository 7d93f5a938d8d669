#include "core/lstm_engine.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

#include "core/encoder.h"
#include "graph/road_network.h"
#include "kern/kern.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace tpr::core {
namespace {

/// Per-thread buffers of EncodeLstm, grown to the largest call seen and
/// then reused, so steady-state serving allocates nothing.
struct EngineScratch {
  std::vector<int> order, len, off;
  std::vector<float> x, y, gates, step, h, c, act, hc;
};

EngineScratch& Scratch() {
  static thread_local EngineScratch s;
  return s;
}

template <typename T>
T* Grow(std::vector<T>& v, size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

/// Pools T rows of h floats exactly like nn::RowMean / RowMax / SliceRow.
void Aggregate(Aggregation aggregation, const float* rows, int T, int h,
               float* out) {
  switch (aggregation) {
    case Aggregation::kMean: {
      std::fill(out, out + h, 0.0f);
      for (int t = 0; t < T; ++t) {
        kern::AddAcc(rows + static_cast<size_t>(t) * h, out, h);
      }
      const float inv = 1.0f / static_cast<float>(T);
      for (int j = 0; j < h; ++j) out[j] *= inv;
      break;
    }
    case Aggregation::kMax:
      std::copy(rows, rows + h, out);
      for (int t = 1; t < T; ++t) {
        const float* row = rows + static_cast<size_t>(t) * h;
        for (int j = 0; j < h; ++j) {
          if (row[j] > out[j]) out[j] = row[j];
        }
      }
      break;
    case Aggregation::kLast:
      std::copy(rows + static_cast<size_t>(T - 1) * h,
                rows + static_cast<size_t>(T) * h, out);
      break;
  }
}

const float* TableRow(const TableView& table, int id) {
  TPR_CHECK(id >= 0 && id < table.rows)
      << "feature table lookup out of range: " << id << " vs " << table.rows;
  return table.data + static_cast<size_t>(id) * table.cols;
}

/// out += a * w, through w's prepacked panels when `panels` is non-null.
void Gemm(const float* a, const nn::Tensor& w, const float* panels, float* out,
          int m) {
  static obs::Counter& ops = obs::GetCounter("nn.matmul_ops");
  static obs::Counter& flops = obs::GetCounter("nn.matmul_flops");
  ops.Add();
  flops.Add(2ull * m * w.rows() * w.cols());
  if (panels == nullptr) {
    kern::GemmAcc(a, w.data(), out, m, w.rows(), w.cols());
  } else {
    kern::GemmAccPacked(a, w.data(), panels, out, m, w.rows(), w.cols());
  }
}

}  // namespace

Fp32LstmWeights::Fp32LstmWeights(const nn::Lstm& lstm, bool pack)
    : LstmWeights(static_cast<int>(lstm.layers().size()),
                  lstm.layers().front().input_size(), lstm.hidden_size()),
      lstm_(lstm) {
  if (!pack) return;
  for (const nn::LstmLayer& layer : lstm.layers()) {
    const nn::Tensor& w = layer.w_hh().value();
    w_hh_panels_.emplace_back(kern::PackedPanelsSize(w.rows(), w.cols()));
    kern::PackPanels(w.data(), w.rows(), w.cols(), w_hh_panels_.back().data());
  }
}

void Fp32LstmWeights::InputGates(int layer, const float* x, int rows,
                                 float* gates) const {
  const nn::LstmLayer& l = lstm_.layers()[layer];
  const nn::Tensor& bias = l.bias().value();
  const size_t n4 = bias.size();
  for (int r = 0; r < rows; ++r) {
    std::memcpy(gates + r * n4, bias.data(), n4 * sizeof(float));
  }
  Gemm(x, l.w_ih().value(), nullptr, gates, rows);
}

void Fp32LstmWeights::RecurrentGates(int layer, const float* h, int m,
                                     float* gates) const {
  Gemm(h, lstm_.layers()[layer].w_hh().value(),
       w_hh_panels_.empty() ? nullptr : w_hh_panels_[layer].data(), gates, m);
}

void FillFeatureRows(const FeatureSpace& features, const FeatureTables& tables,
                     const graph::Path& path, int64_t depart_time_s,
                     float* x, size_t row_stride) {
  TPR_CHECK(!path.empty());
  const auto& network = *features.data->network;
  const int d_road = features.config.road_embedding_dim;
  const int dim = tables.input_dim;
  const auto& t_vec =
      features.temporal_embeddings[features.TemporalNodeFor(depart_time_s)];
  for (size_t i = 0; i < path.size(); ++i) {
    const auto& e = network.edge(path[i]);
    float* row = x + i * row_stride;
    float* p = row;
    const auto put = [&p](const TableView& table, int id) {
      const float* src = TableRow(table, id);
      p = std::copy(src, src + table.cols, p);
    };
    put(tables.road_type, static_cast<int>(e.road_type));
    put(tables.lanes, e.num_lanes - 1);
    put(tables.oneway, e.one_way ? 1 : 0);
    put(tables.signal, e.has_signal ? 1 : 0);
    const auto& from_vec = features.road_embeddings[e.from];
    const auto& to_vec = features.road_embeddings[e.to];
    p = std::copy(from_vec.begin(), from_vec.begin() + d_road, p);
    p = std::copy(to_vec.begin(), to_vec.begin() + d_road, p);
    if (tables.use_temporal) p = std::copy(t_vec.begin(), t_vec.end(), p);
    TPR_CHECK(p == row + dim);
  }
}

bool EncodeLstm(const LstmWeights& weights, const FeatureSpace& features,
                const FeatureTables& tables, Aggregation aggregation,
                const PathTimeItem* items, int n,
                const std::function<bool()>* cancelled, float* out) {
  static obs::Counter& cells = obs::GetCounter("nn.fused_cell_ops");
  if (Cancelled(cancelled)) return false;
  if (n == 0) return true;
  TPR_CHECK(weights.input_dim == tables.input_dim);
  const int h = weights.hidden_dim;
  const size_t n4 = 4 * static_cast<size_t>(h);
  EngineScratch& s = Scratch();

  // Rank items by descending length (ties by index: deterministic), so
  // the items still active at step t are always the prefix [0, m_t).
  const auto len_of = [items](int i) {
    TPR_CHECK(items[i].path != nullptr && !items[i].path->empty());
    return static_cast<int>(items[i].path->size());
  };
  int* order = Grow(s.order, n);
  std::iota(order, order + n, 0);
  std::sort(order, order + n, [&](int a, int b) {
    return len_of(a) != len_of(b) ? len_of(a) > len_of(b) : a < b;
  });
  const int t_max = len_of(order[0]);
  // Rank r owns item-major rows [off[r], off[r] + len[r]).
  int* len = Grow(s.len, n);
  int* off = Grow(s.off, n);
  int total = 0;
  for (int r = 0; r < n; ++r) {
    len[r] = len_of(order[r]);
    off[r] = total;
    total += len[r];
  }

  {
    obs::ScopedSpan span("core.encode.features");
    float* x = Grow(s.x, static_cast<size_t>(total) * tables.input_dim);
    for (int r = 0; r < n; ++r) {
      const PathTimeItem& item = items[order[r]];
      FillFeatureRows(features, tables, *item.path, item.depart_time_s,
                      x + static_cast<size_t>(off[r]) * tables.input_dim,
                      tables.input_dim);
    }
  }

  for (int layer = 0; layer < weights.num_layers; ++layer) {
    if (Cancelled(cancelled)) return false;
    float* gates = Grow(s.gates, total * n4);
    {
      obs::ScopedSpan span("core.encode.input_gemm");
      weights.InputGates(layer, s.x.data(), total, gates);
    }
    obs::ScopedSpan span("core.encode.recurrence");
    float* y = Grow(s.y, static_cast<size_t>(total) * h);
    float* hs = Grow(s.h, static_cast<size_t>(n) * h);
    float* cs = Grow(s.c, static_cast<size_t>(n) * h);
    float* step = Grow(s.step, n * n4);
    float* act = Grow(s.act, 5 * static_cast<size_t>(h));
    float* hc = Grow(s.hc, 2 * static_cast<size_t>(h));
    std::fill(cs, cs + static_cast<size_t>(n) * h, 0.0f);
    int m = n;
    for (int t = 0; t < t_max; ++t) {
      while (len[m - 1] <= t) --m;
      for (int r = 0; r < m; ++r) {
        std::memcpy(step + r * n4, gates + (off[r] + t) * n4,
                    n4 * sizeof(float));
      }
      // At t = 0 the state is zero: the recurrent product adds an exact
      // +0 to every gate, so it is skipped.
      if (t > 0) weights.RecurrentGates(layer, hs, m, step);
      cells.Add();
      for (int r = 0; r < m; ++r) {
        float* h_r = hs + static_cast<size_t>(r) * h;
        float* c_r = cs + static_cast<size_t>(r) * h;
        kern::LstmCellRow(step + r * n4, c_r, act, hc, h);
        std::copy(hc, hc + h, h_r);
        std::copy(hc + h, hc + 2 * h, c_r);
        std::copy(hc, hc + h, y + (static_cast<size_t>(off[r]) + t) * h);
      }
    }
    std::swap(s.x, s.y);
  }

  if (Cancelled(cancelled)) return false;
  obs::ScopedSpan span("core.encode.aggregate");
  for (int r = 0; r < n; ++r) {
    Aggregate(aggregation, s.x.data() + static_cast<size_t>(off[r]) * h,
              len[r], h, out + static_cast<size_t>(order[r]) * h);
  }
  return true;
}

std::optional<std::vector<std::vector<float>>> EncodeLstmRows(
    const LstmWeights& weights, const FeatureSpace& features,
    const FeatureTables& tables, Aggregation aggregation,
    const PathTimeItem* items, int n, const std::function<bool()>* cancelled) {
  const size_t h = static_cast<size_t>(weights.hidden_dim);
  std::vector<float> flat(n * h);
  if (!EncodeLstm(weights, features, tables, aggregation, items, n, cancelled,
                  flat.data())) {
    return std::nullopt;
  }
  std::vector<std::vector<float>> out(n);
  for (int i = 0; i < n; ++i) {
    out[i].assign(flat.begin() + i * h, flat.begin() + (i + 1) * h);
  }
  return out;
}

}  // namespace tpr::core
