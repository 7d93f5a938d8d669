#ifndef TPR_NN_PADDED_BATCH_H_
#define TPR_NN_PADDED_BATCH_H_

// Variable-length sequence batches for the batched transformer forward.
// (The LSTM encoder's batched inference is the tape-free engine of
// core/lstm_engine.h, which never materialises padded rows.)
//
// A PaddedBatch packs B sequences of lengths len_0..len_{B-1} into one
// dense tensor in TIME-MAJOR layout: row t*batch + b holds timestep t of
// sequence b, for t in [0, max_len).
//
// Padding rows (t >= lengths[b]) carry zeros on entry. The masked
// attention and the masked aggregations (SequenceMeanBatch,
// SequenceMaxBatch, last-state gather) never read them.
//
// Bitwise contract: for every op in this pipeline, output row t*batch+b
// with t < lengths[b] is bitwise identical to row t of the same module's
// single-sequence Forward on sequence b alone, for any kernel whose GEMM
// is row-independent (the scalar kernel always; see DESIGN.md §13).

#include <vector>

#include "nn/autograd.h"

namespace tpr::nn {

struct PaddedBatch {
  Var data;                  // (max_len * batch) x dim, row t*batch + b
  std::vector<int> lengths;  // per-sequence true lengths, each in [1, max_len]
  int batch = 0;
  int max_len = 0;

  int rows() const { return batch * max_len; }
  int row(int t, int b) const { return t * batch + b; }
};

}  // namespace tpr::nn

#endif  // TPR_NN_PADDED_BATCH_H_
