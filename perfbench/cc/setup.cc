#include "obs/metrics.h"
#include "obs/trace.h"
#include "synth/presets.h"
#include "util/logging.h"
#include "workload.h"

namespace perfbench {
namespace {

double Counter(const std::string& name) {
  return static_cast<double>(tpr::obs::GetCounter(name).value());
}

double HistSum(const std::string& name) {
  return tpr::obs::GetHistogram(name).sum();
}

}  // namespace

City PrepareCity(uint64_t seed, double scale) {
  tpr::synth::CityPreset preset = tpr::synth::AalborgPreset();
  tpr::synth::ScaleDataset(preset, scale);
  preset.data.seed += seed;
  City city;
  const Clock::time_point t0 = Clock::now();
  auto dataset = tpr::synth::BuildPresetDataset(preset);
  TPR_CHECK(dataset.ok()) << dataset.status().ToString();
  city.data =
      std::make_shared<tpr::synth::CityDataset>(std::move(*dataset));
  city.dataset_s = SecondsSince(t0);

  tpr::core::FeatureConfig fc;
  fc.temporal_graph.slots_per_day = 96;  // 15-minute slots
  fc.node2vec.seed = 42 + seed;
  const Clock::time_point t1 = Clock::now();
  auto features = tpr::core::BuildFeatureSpace(city.data, fc);
  TPR_CHECK(features.ok()) << features.status().ToString();
  city.features =
      std::make_shared<const tpr::core::FeatureSpace>(std::move(*features));
  city.features_s = SecondsSince(t1);
  return city;
}

void BeginObsWindow(const std::string& trace_path) {
  tpr::obs::ResetAllMetrics();
  tpr::obs::SetMetricsEnabled(true);
  tpr::obs::StartTrace(trace_path);
}

void EndObsWindow(const std::string& metrics_path) {
  tpr::obs::SetMetricsEnabled(false);
  TPR_CHECK(tpr::obs::StopTrace());
  TPR_CHECK(tpr::obs::WriteMetricsJson(metrics_path));
}

void AddObsLayers(double seconds, double sent, Metrics* out) {
  const double hits = Counter("nn.arena_hits");
  const double misses = Counter("nn.arena_misses");
  (*out)["nn.matmul_gflops"] = {Counter("nn.matmul_flops") / seconds / 1e9,
                                "GFLOP/s"};
  (*out)["nn.alloc_mb"] = {Counter("nn.alloc_bytes") / 1e6, "MB"};
  (*out)["nn.arena_miss_share"] = {
      hits + misses > 0 ? misses / (hits + misses) : 0, "share"};
  (*out)["nn.adam_step_s"] = {HistSum("nn.adam_step_seconds"), "s"};

  // Pool workers 1..n-1 (the caller's thread is participant 0).
  double busy_us = 0;
  for (int w = 1; w < kParThreads; ++w) {
    busy_us += Counter("par.worker" + std::to_string(w) + ".busy_us");
  }
  (*out)["par.busy_share"] = {
      busy_us / ((kParThreads - 1) * seconds * 1e6), "share"};
  (*out)["par.for_iters_per_worker.p99"] = {
      tpr::obs::GetHistogram("par.for_iters_per_worker", {0.0})
          .Percentile(99),
      "count"};

  const tpr::obs::Histogram& service =
      tpr::obs::GetHistogram("serve.rung_full_seconds");
  const double batches = Counter("serve.batches");
  const double batched = Counter("serve.batched_requests");
  (*out)["serve.service_ms.p50"] = {service.Percentile(50) * 1e3, "ms"};
  (*out)["serve.service_ms.p99"] = {service.Percentile(99) * 1e3, "ms"};
  (*out)["serve.shed_share"] = {sent > 0 ? Counter("serve.shed") / sent : 0,
                                "share"};
  (*out)["batch.mean_size"] = {batches > 0 ? batched / batches : 0,
                               "requests"};
  (*out)["batch.coalesce_share"] = {
      batched > 0 ? Counter("serve.batch_coalesced") / batched : 0, "share"};
  (*out)["serve.canary_requests"] = {Counter("serve.canary_requests"),
                                     "count"};

  (*out)["ckpt.save_s"] = {HistSum("ckpt.save_seconds"), "s"};
  (*out)["ckpt.saved_mb"] = {Counter("ckpt.saved_bytes") / 1e6, "MB"};
  (*out)["ckpt.load_s"] = {HistSum("ckpt.load_seconds"), "s"};
}

}  // namespace perfbench
