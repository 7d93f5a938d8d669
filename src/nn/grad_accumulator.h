#ifndef TPR_NN_GRAD_ACCUMULATOR_H_
#define TPR_NN_GRAD_ACCUMULATOR_H_

#include <vector>

#include "nn/autograd.h"

namespace tpr::nn {

/// Deterministic gradient reduction for data-parallel training.
///
/// Each minibatch is split into a fixed number of shards — a pure
/// function of the batch, never of the thread count. Every worker runs
/// forward + Backward() on a parameter *replica* (leaf Vars with the same
/// layout as the master list), then hands its gradients to the slot of
/// the shard it processed. Reduce() sums the slots into the master
/// parameters' gradients in increasing shard order, so the reduced
/// gradient is bitwise identical no matter how many threads ran the
/// shards — including a single thread.
///
/// Slot storage is allocated by BeginBatch on the calling thread and kept
/// across batches: a capture copies the replica's gradient into its slot
/// and frees the replica's tensor on the capturing worker. No gradient
/// block therefore migrates between thread arenas, and warm batches
/// allocate nothing.
class GradAccumulator {
 public:
  explicit GradAccumulator(std::vector<Var> master_params);

  const std::vector<Var>& params() const { return master_; }

  /// Marks `num_shards` gradient slots empty for the next reduction,
  /// allocating any slot not used before. Call on the thread that owns
  /// the accumulator.
  void BeginBatch(int num_shards);

  /// Copies the gradients accumulated on `replica_params` (same layout as
  /// the master list) into slot `shard` and clears the replica's
  /// gradients for its next shard. A parameter the shard's graph did not
  /// reach (empty gradient) is recorded as absent. Safe to call
  /// concurrently for distinct shard indices.
  void CaptureShard(int shard, const std::vector<Var>& replica_params);

  /// Number of slots filled since BeginBatch. Call only after all
  /// CaptureShard calls of the batch have completed.
  int captured() const;

  /// master.grad += scale * sum over filled slots, iterating slots in
  /// increasing index order. Does not zero the master gradients first;
  /// pair with Optimizer::ZeroGrad().
  void Reduce(float scale);

 private:
  struct Slot {
    std::vector<Tensor> grads;   // per parameter, master shape
    std::vector<char> present;   // per parameter: captured this batch
  };

  std::vector<Var> master_;
  std::vector<Slot> slots_;  // grows to the largest shard count seen
  std::vector<char> filled_;  // per shard of the current batch
};

/// Copies parameter values between two same-layout parameter lists (used
/// to refresh per-worker replicas after each optimizer step).
void CopyParamValues(const std::vector<Var>& from, std::vector<Var>& to);

}  // namespace tpr::nn

#endif  // TPR_NN_GRAD_ACCUMULATOR_H_
