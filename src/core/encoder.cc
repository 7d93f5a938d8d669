#include "core/encoder.h"

#include <algorithm>

#include "graph/road_network.h"
#include "util/logging.h"

namespace tpr::core {

TemporalPathEncoder::TemporalPathEncoder(
    std::shared_ptr<const FeatureSpace> features, const EncoderConfig& config)
    : features_(std::move(features)), config_(config) {
  TPR_CHECK(features_ != nullptr);
  Rng rng(config.seed);
  road_type_emb_ =
      std::make_unique<nn::Embedding>(graph::kNumRoadTypes, config.d_rt, rng);
  lanes_emb_ =
      std::make_unique<nn::Embedding>(graph::kMaxLanes, config.d_lanes, rng);
  oneway_emb_ = std::make_unique<nn::Embedding>(2, config.d_oneway, rng);
  signal_emb_ = std::make_unique<nn::Embedding>(2, config.d_signal, rng);
  if (config.sequence_model == SequenceModel::kLstm) {
    lstm_ = std::make_unique<nn::Lstm>(input_dim(), config.d_hidden,
                                       config.lstm_layers, rng);
  } else {
    transformer_ = std::make_unique<nn::TransformerEncoder>(
        input_dim(), config.d_hidden, config.lstm_layers, rng);
  }
  if (config.use_projection_head) {
    proj1_ = std::make_unique<nn::Linear>(config.d_hidden,
                                          config.d_hidden, rng);
    proj2_ = std::make_unique<nn::Linear>(config.d_hidden,
                                          config.projection_dim, rng);
  }
}

int TemporalPathEncoder::input_dim() const {
  const int d_topo = 2 * features_->config.road_embedding_dim;
  int dim = config_.d_rt + config_.d_lanes + config_.d_oneway +
            config_.d_signal + d_topo;
  if (config_.use_temporal) dim += features_->config.temporal_embedding_dim;
  return dim;
}

EncodedPath TemporalPathEncoder::Encode(const graph::Path& path,
                                        int64_t depart_time_s) const {
  TPR_CHECK(!path.empty());
  const auto& network = *features_->data->network;
  const int T = static_cast<int>(path.size());

  std::vector<int> rt_ids(T), lane_ids(T), ow_ids(T), ts_ids(T);
  for (int i = 0; i < T; ++i) {
    const auto& e = network.edge(path[i]);
    rt_ids[i] = static_cast<int>(e.road_type);
    lane_ids[i] = e.num_lanes - 1;
    ow_ids[i] = e.one_way ? 1 : 0;
    ts_ids[i] = e.has_signal ? 1 : 0;
  }

  // s_type = [M_RT s_RT, M_NoL s_NoL, M_OW s_OW, M_TS s_TS]      (Eq. 3-4)
  // s_all  = [s_rn, s_type], x = [t_all, s_all]                  (Eq. 5-6)
  // The frozen node2vec [+ temporal] columns come from the engine's
  // feature rows; the categorical ones from the trainable tables.
  const int dim = input_dim();
  const int d_cat =
      config_.d_rt + config_.d_lanes + config_.d_oneway + config_.d_signal;
  nn::Tensor rows(T, dim);
  FillFeatureRows(*features_, feature_tables(), path, depart_time_s,
                  rows.data(), dim);
  nn::Var x = nn::ConcatCols(
      {road_type_emb_->Forward(rt_ids), lanes_emb_->Forward(lane_ids),
       oneway_emb_->Forward(ow_ids), signal_emb_->Forward(ts_ids),
       nn::SliceCols(nn::Var::Leaf(std::move(rows)), d_cat, dim - d_cat)});

  EncodedPath out;
  out.edge_reps = lstm_ != nullptr ? lstm_->Forward(x)
                                   : transformer_->Forward(x);  // Eq. 7
  switch (config_.aggregation) {            // Eq. 8 (mean by default)
    case Aggregation::kMean:
      out.tpr = nn::RowMean(out.edge_reps);
      break;
    case Aggregation::kMax:
      out.tpr = nn::RowMax(out.edge_reps);
      break;
    case Aggregation::kLast:
      out.tpr = nn::SliceRow(out.edge_reps, out.edge_reps.rows() - 1);
      break;
  }
  if (proj1_ != nullptr) {
    auto project = [this](const nn::Var& v) {
      return proj2_->Forward(nn::Relu(proj1_->Forward(v)));
    };
    out.tpr_proj = project(out.tpr);
    out.edge_reps_proj = project(out.edge_reps);
  } else {
    out.tpr_proj = out.tpr;
    out.edge_reps_proj = out.edge_reps;
  }
  return out;
}

FeatureTables TemporalPathEncoder::feature_tables() const {
  const auto view = [](const nn::Embedding& emb) {
    const nn::Tensor& t = emb.table().value();
    return TableView{t.data(), t.rows(), t.cols()};
  };
  return FeatureTables{view(*road_type_emb_), view(*lanes_emb_),
                       view(*oneway_emb_),    view(*signal_emb_),
                       config_.use_temporal,  input_dim()};
}

std::optional<nn::Var> TemporalPathEncoder::EncodeBatchImpl(
    const PathTimeItem* items, size_t n,
    const std::function<bool()>* cancelled) const {
  TPR_CHECK(n > 0);
  const int B = static_cast<int>(n);

  if (Cancelled(cancelled)) return std::nullopt;
  nn::PaddedBatch pb;
  pb.batch = B;
  for (size_t b = 0; b < n; ++b) {
    TPR_CHECK(items[b].path != nullptr && !items[b].path->empty());
    pb.lengths.push_back(static_cast<int>(items[b].path->size()));
    pb.max_len = std::max(pb.max_len, pb.lengths.back());
  }
  // Time-major rows t*B + b; padding rows stay zero and are never read.
  const int dim = input_dim();
  const FeatureTables tables = feature_tables();
  nn::Tensor x(pb.rows(), dim);
  for (size_t b = 0; b < n; ++b) {
    FillFeatureRows(*features_, tables, *items[b].path, items[b].depart_time_s,
                    x.data() + b * dim, static_cast<size_t>(B) * dim);
  }
  pb.data = nn::Var::Leaf(std::move(x));

  if (Cancelled(cancelled)) return std::nullopt;
  const nn::PaddedBatch edge_reps = transformer_->ForwardBatch(pb);
  if (Cancelled(cancelled)) return std::nullopt;
  switch (config_.aggregation) {
    case Aggregation::kMean:
      return nn::SequenceMeanBatch(edge_reps.data, edge_reps.lengths);
    case Aggregation::kMax:
      return nn::SequenceMaxBatch(edge_reps.data, edge_reps.lengths);
    case Aggregation::kLast: {
      std::vector<int> last(edge_reps.batch);
      for (int b = 0; b < edge_reps.batch; ++b) {
        last[b] = (edge_reps.lengths[b] - 1) * B + b;
      }
      return nn::Gather(edge_reps.data, last);
    }
  }
  return std::nullopt;  // unreachable
}

std::optional<std::vector<std::vector<float>>>
TemporalPathEncoder::EncodeValues(const PathTimeItem* items, size_t n,
                                  const std::function<bool()>* cancelled,
                                  const LstmWeights* packed) const {
  if (lstm_ != nullptr) {
    const Fp32LstmWeights live(*lstm_, /*pack=*/false);
    return EncodeLstmRows(packed != nullptr ? *packed : live, *features_,
                          feature_tables(), config_.aggregation, items,
                          static_cast<int>(n), cancelled);
  }
  nn::NoGradGuard no_grad;
  auto tprs = EncodeBatchImpl(items, n, cancelled);
  if (!tprs.has_value()) return std::nullopt;
  const float* v = tprs->value().data();
  const size_t h = static_cast<size_t>(config_.d_hidden);
  std::vector<std::vector<float>> out(n);
  for (size_t i = 0; i < n; ++i) out[i].assign(v + i * h, v + (i + 1) * h);
  return out;
}

std::vector<std::vector<float>> TemporalPathEncoder::EncodeValueBatch(
    const std::vector<PathTimeItem>& items) const {
  return *EncodeValues(items.data(), items.size(), nullptr, nullptr);
}

std::optional<std::vector<std::vector<float>>>
TemporalPathEncoder::EncodeValueBatchCancellable(
    const std::vector<PathTimeItem>& items,
    const std::function<bool()>& cancelled, const LstmWeights* packed) const {
  return EncodeValues(items.data(), items.size(), &cancelled, packed);
}

std::vector<float> TemporalPathEncoder::EncodeValue(
    const graph::Path& path, int64_t depart_time_s) const {
  if (lstm_ != nullptr) {
    const PathTimeItem item{&path, depart_time_s};
    return std::move(EncodeValues(&item, 1, nullptr, nullptr)->front());
  }
  nn::NoGradGuard no_grad;
  const EncodedPath encoded = Encode(path, depart_time_s);
  const nn::Tensor& v = encoded.tpr.value();
  return std::vector<float>(v.data(), v.data() + v.size());
}

std::shared_ptr<const LstmWeights> TemporalPathEncoder::PackWeights() const {
  if (lstm_ == nullptr) return nullptr;
  return std::make_shared<const Fp32LstmWeights>(*lstm_, /*pack=*/true);
}

std::vector<nn::Var> TemporalPathEncoder::Parameters() const {
  std::vector<nn::Var> params;
  for (const auto* m : std::initializer_list<const nn::Module*>{
           road_type_emb_.get(), lanes_emb_.get(), oneway_emb_.get(),
           signal_emb_.get(), lstm_.get(), transformer_.get()}) {
    if (m == nullptr) continue;
    auto p = m->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  for (const nn::Linear* proj : {proj1_.get(), proj2_.get()}) {
    if (proj != nullptr) {
      auto p = proj->Parameters();
      params.insert(params.end(), p.begin(), p.end());
    }
  }
  return params;
}

}  // namespace tpr::core
