#include "nn/grad_accumulator.h"

#include <algorithm>

namespace tpr::nn {

GradAccumulator::GradAccumulator(std::vector<Var> master_params)
    : master_(std::move(master_params)) {}

void GradAccumulator::BeginBatch(int num_shards) {
  TPR_CHECK(num_shards >= 1);
  // New slots are sized here, on the calling thread, so their storage
  // lives and dies in its arena; workers only copy into them.
  while (slots_.size() < static_cast<size_t>(num_shards)) {
    Slot& slot = slots_.emplace_back();
    for (const Var& p : master_) {
      slot.grads.emplace_back(p.value().rows(), p.value().cols());
    }
    slot.present.assign(master_.size(), 0);
  }
  filled_.assign(num_shards, 0);
}

void GradAccumulator::CaptureShard(int shard,
                                   const std::vector<Var>& replica_params) {
  TPR_CHECK(shard >= 0 && shard < static_cast<int>(filled_.size()));
  TPR_CHECK(replica_params.size() == master_.size());
  Slot& slot = slots_[shard];
  for (size_t p = 0; p < replica_params.size(); ++p) {
    internal::VarImpl* impl = replica_params[p].impl();
    slot.present[p] = !impl->grad.empty();
    if (!slot.present[p]) continue;  // parameter unused by this shard
    TPR_CHECK(slot.grads[p].SameShape(impl->grad));
    std::copy(impl->grad.data(), impl->grad.data() + impl->grad.size(),
              slot.grads[p].data());
    // Freed here, into this worker's arena; an empty grad reads as
    // zeroed on the replica's next use.
    impl->grad = Tensor();
  }
  filled_[shard] = 1;
}

int GradAccumulator::captured() const {
  int n = 0;
  for (char f : filled_) n += f;
  return n;
}

void GradAccumulator::Reduce(float scale) {
  for (size_t s = 0; s < filled_.size(); ++s) {
    if (!filled_[s]) continue;
    const Slot& slot = slots_[s];
    for (size_t p = 0; p < master_.size(); ++p) {
      if (!slot.present[p]) continue;
      const Tensor& g = slot.grads[p];
      internal::VarImpl* impl = master_[p].impl();
      impl->EnsureGrad();
      TPR_CHECK(impl->grad.SameShape(g));
      float* dst = impl->grad.data();
      const float* src = g.data();
      for (size_t i = 0; i < g.size(); ++i) dst[i] += scale * src[i];
    }
  }
}

void CopyParamValues(const std::vector<Var>& from, std::vector<Var>& to) {
  TPR_CHECK(from.size() == to.size());
  for (size_t p = 0; p < from.size(); ++p) {
    const Tensor& src = from[p].value();
    Tensor& dst = to[p].mutable_value();
    TPR_CHECK(dst.SameShape(src));
    std::copy(src.data(), src.data() + src.size(), dst.data());
  }
}

}  // namespace tpr::nn
