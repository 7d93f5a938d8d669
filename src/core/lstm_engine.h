#ifndef TPR_CORE_LSTM_ENGINE_H_
#define TPR_CORE_LSTM_ENGINE_H_

// Tape-free inference forward of the LSTM path encoder (Eq. 3-8), shared
// by the fp32 encoder and its int8 twin. One call encodes N items: item-
// major feature rows (items ranked by descending length), per layer ONE
// input GEMM over all rows seeded with the bias, then the recurrence in
// lockstep over only the items still active, then mean / max / last
// aggregation. Weights enter only through LstmWeights' two gate steps.
// Every row runs the float ops of the graph's AffineSum -> LstmCellRow ->
// RowMean/RowMax/SliceRow in the same order, so an fp32 result is bitwise
// equal to Encode(...).tpr under either kernel, whatever else rode in the
// batch (DESIGN.md §13). Scratch is thread-local: a warm call allocates
// nothing.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/features.h"
#include "nn/modules.h"

namespace tpr::core {

struct PathTimeItem;        // core/encoder.h
enum class Aggregation;     // core/encoder.h

/// A stacked LSTM in one weight representation: its shape and the two
/// per-layer gate steps the engine calls.
class LstmWeights {
 public:
  LstmWeights(int num_layers, int input_dim, int hidden_dim)
      : num_layers(num_layers), input_dim(input_dim), hidden_dim(hidden_dim) {}
  virtual ~LstmWeights() = default;

  /// gates (rows x 4h) = bias + x (rows x in_l) * W_ih of `layer`.
  virtual void InputGates(int layer, const float* x, int rows,
                          float* gates) const = 0;

  /// gates (m x 4h) += h (m x h) * W_hh of `layer`.
  virtual void RecurrentGates(int layer, const float* h, int m,
                              float* gates) const = 0;

  const int num_layers;
  const int input_dim;  // width of layer 0's input rows
  const int hidden_dim;
};

/// The fp32 weights of an nn::Lstm, read in place. With pack=true the
/// constructor also copies each W_hh once into the 16-column panels of
/// kern::PackPanels, which the avx2 GEMM otherwise re-packs on every
/// recurrent step with m >= 8 (W_ih feeds one GEMM per layer, so its
/// per-call pack is already amortised over every row). A packed snapshot
/// is valid only while the weights do not change (a served generation is
/// immutable).
class Fp32LstmWeights final : public LstmWeights {
 public:
  Fp32LstmWeights(const nn::Lstm& lstm, bool pack);

  void InputGates(int layer, const float* x, int rows,
                  float* gates) const override;
  void RecurrentGates(int layer, const float* h, int m,
                      float* gates) const override;

 private:
  const nn::Lstm& lstm_;
  std::vector<std::vector<float>> w_hh_panels_;  // [layer]; empty: unpacked
};

/// A read-only row-major lookup table.
struct TableView {
  const float* data = nullptr;
  int rows = 0;
  int cols = 0;
};

/// The categorical embedding tables of the encoder input (Eq. 3-4) and
/// the input row layout.
struct FeatureTables {
  TableView road_type;
  TableView lanes;
  TableView oneway;
  TableView signal;
  bool use_temporal = true;
  int input_dim = 0;
};

/// Writes the path.size() feature rows of one path, row t at
/// x + t * row_stride: [rt | lanes | oneway | signal | from | to | t_vec]
/// (Eq. 5-6), the same temporal vector on every row.
void FillFeatureRows(const FeatureSpace& features, const FeatureTables& tables,
                     const graph::Path& path, int64_t depart_time_s,
                     float* x, size_t row_stride);

/// The stage poll: true when `cancelled` is set and returns true.
inline bool Cancelled(const std::function<bool()>* cancelled) {
  return cancelled != nullptr && *cancelled && (*cancelled)();
}

/// Encodes `n` items and writes item i's TPR (hidden_dim floats) to
/// out + i * hidden_dim. `cancelled` (may be null or empty) is polled
/// before feature assembly, before each layer and before aggregation;
/// a true observation returns false with `out` partly written.
bool EncodeLstm(const LstmWeights& weights, const FeatureSpace& features,
                const FeatureTables& tables, Aggregation aggregation,
                const PathTimeItem* items, int n,
                const std::function<bool()>* cancelled, float* out);

/// EncodeLstm into one vector per item; nullopt when cancelled.
std::optional<std::vector<std::vector<float>>> EncodeLstmRows(
    const LstmWeights& weights, const FeatureSpace& features,
    const FeatureTables& tables, Aggregation aggregation,
    const PathTimeItem* items, int n, const std::function<bool()>* cancelled);

}  // namespace tpr::core

#endif  // TPR_CORE_LSTM_ENGINE_H_
