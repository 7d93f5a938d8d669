// Workload `train`: Aalborg preset -> BuildFeatureSpace ->
// WsccalPipeline::Train -> eval::EvaluateTasks, at a fixed 4-thread pool.
// The serving stack is never constructed.

#include <cmath>
#include <cstring>

#include "eval/downstream.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "util/logging.h"
#include "workload.h"

namespace perfbench {
namespace {

// Dataset scale of the training workload (fraction of the preset's
// pool sizes); chosen so a run holds several train + evaluate repeats.
constexpr double kTrainScale = 2.0;

/// The training configuration of the repository's experiment harness
/// (bench/harness.h DefaultWsccalConfig), seeds offset by the workload
/// seed.
tpr::core::WsccalConfig TrainConfig(uint64_t seed) {
  tpr::core::WsccalConfig cfg;
  cfg.wsc.seed = 7 + seed;
  cfg.wsc.encoder.seed = 31 + seed;
  cfg.curriculum.num_meta_sets = 4;
  cfg.curriculum.expert_epochs = 1;
  cfg.stage_epochs = 1;
  cfg.final_epochs = 2;
  return cfg;
}

/// MAE of the predictor that always answers the training split's mean
/// travel time, on the probes' own test split: the floor a learned
/// representation has to beat.
double MeanPredictorMae(const tpr::synth::CityDataset& data) {
  std::vector<int> train, test;
  tpr::eval::SplitGroups(data.labeled, 0.8, 99, &train, &test);
  double mean = 0;
  for (int i : train) mean += data.labeled[i].travel_time_s;
  mean /= static_cast<double>(train.size());
  double mae = 0;
  for (int i : test) mae += std::fabs(data.labeled[i].travel_time_s - mean);
  return mae / static_cast<double>(test.size());
}

struct TrainRun {
  std::unique_ptr<tpr::core::WsccalPipeline> model;
  double seconds = 0;
};

TrainRun TrainOnce(const City& city, const tpr::core::WsccalConfig& cfg,
                   Spans& spans, const char* span) {
  Spans::Scope scope(spans, span);
  const Clock::time_point t0 = Clock::now();
  auto trained = tpr::core::WsccalPipeline::Train(city.features, cfg);
  TPR_CHECK(trained.ok()) << trained.status().ToString();
  return {std::move(*trained), SecondsSince(t0)};
}

struct EvalRun {
  tpr::eval::TaskScores scores;
  double seconds = 0;
  double encode_s = 0;
  bool finite = true;
};

EvalRun EvaluateOnce(const City& city, const tpr::core::WsccalPipeline& model,
                     Spans& spans) {
  Spans::Scope scope(spans, "eval");
  EvalRun run;
  const Clock::time_point t0 = Clock::now();
  auto scores = tpr::eval::EvaluateTasks(
      *city.data, [&](const tpr::synth::TemporalPathSample& s) {
        const Clock::time_point e0 = Clock::now();
        std::vector<float> v = model.Encode(s);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - e0)
                .count();
        run.encode_s += ms * 1e-3;
        for (float x : v) run.finite = run.finite && std::isfinite(x);
        return v;
      });
  TPR_CHECK(scores.ok()) << scores.status().ToString();
  run.seconds = SecondsSince(t0);
  run.scores = *scores;
  return run;
}

}  // namespace

Result RunTrain(const Options& opt, Spans& spans) {
  Result res;
  tpr::par::SetDefaultThreads(kParThreads);

  std::vector<double> setup_s, dataset_s, features_s;
  City city;
  for (int r = 0; r < kSetupRepeats; ++r) {
    Spans::Scope scope(spans, "setup");
    const Clock::time_point t0 = Clock::now();
    city = PrepareCity(opt.seed, kTrainScale);
    setup_s.push_back(SecondsSince(t0));
    dataset_s.push_back(city.dataset_s);
    features_s.push_back(city.features_s);
  }
  const double floor_mae = MeanPredictorMae(*city.data);
  const tpr::core::WsccalConfig cfg = TrainConfig(opt.seed);

  std::vector<double> train_s, eval_s;
  tpr::eval::TaskScores first{};
  int repeats = 0;
  const Clock::time_point start = Clock::now();
  // Untraced repeats fill the run; a traced run makes one (the
  // reference for the tracing overhead) and spends the rest below.
  do {
    TrainRun t = TrainOnce(city, cfg, spans, "train");
    EvalRun e = EvaluateOnce(city, *t.model, spans);
    train_s.push_back(t.seconds);
    eval_s.push_back(e.seconds);
    res.Check(e.finite, "train: non-finite embedding");
    if (repeats == 0) {
      first = e.scores;
    } else {
      res.Check(std::memcmp(&first, &e.scores, sizeof first) == 0,
                "train: repeated training changed the downstream scores");
    }
    ++repeats;
    res.attempted += 1;
  } while (!opt.trace && SecondsSince(start) < opt.seconds);

  res.Check(first.tte_mae < floor_mae,
            "train: tte_mae " + std::to_string(first.tte_mae) +
                " not below the label-mean predictor's " +
                std::to_string(floor_mae));
  res.Check(std::isfinite(first.pr_tau), "train: pr_tau not finite");
  if (!res.correct) res.failed = res.attempted;

  std::vector<double> job_s;
  for (size_t i = 0; i < train_s.size(); ++i) {
    job_s.push_back(train_s[i] + eval_s[i]);
  }
  res.e2e["setup_s"] = {Median(setup_s), "s"};
  res.e2e["op_s"] = {Median(job_s), "s"};
  res.e2e["ok_share"] = {
      static_cast<double>(res.attempted - res.failed) /
          static_cast<double>(res.attempted),
      "share"};
  std::fprintf(stderr,
               "perfbench: train %d repeats, train %.3f s, eval %.3f s, "
               "tte_mae %.3f (label-mean floor %.3f), pr_tau %.4f\n",
               repeats, Median(train_s), Median(eval_s), first.tte_mae,
               floor_mae, first.pr_tau);
  if (!opt.trace) return res;

  // ---- Traced pass: obs counters + program spans on, one repeat. ----
  res.layer["synth.dataset_s"] = {Median(dataset_s), "s"};
  res.layer["core.features_s"] = {Median(features_s), "s"};
  const std::string obs_trace = opt.out_dir + "/obs-trace-train.json";
  BeginObsWindow(obs_trace);
  TrainRun traced = TrainOnce(city, cfg, spans, "train.traced");
  AddObsLayers(traced.seconds, 0, &res.layer);
  double stage_s = 0;
  for (int s = 0; s < cfg.curriculum.num_meta_sets; ++s) {
    stage_s +=
        tpr::obs::GetGauge("wsccl.stage" + std::to_string(s) + ".seconds")
            .value();
  }
  const double final_s =
      tpr::obs::GetGauge("wsccl.final_stage.seconds").value();
  EvalRun traced_eval = EvaluateOnce(city, *traced.model, spans);
  EndObsWindow(opt.out_dir + "/obs-metrics-train.json");

  // Determinism contract: 1 thread trains the same bits as 4.
  tpr::par::SetDefaultThreads(1);
  TrainRun single = TrainOnce(city, cfg, spans, "train.1thread");
  tpr::par::SetDefaultThreads(kParThreads);
  {
    Spans::Scope scope(spans, "verify");
    auto p4 = traced.model->Serialize();
    auto p1 = single.model->Serialize();
    TPR_CHECK(p4.ok() && p1.ok());
    res.Check(*p4 == *p1,
              "train: TPR_THREADS=1 model differs from the 4-thread model");
  }

  res.layer["core.train_s"] = {traced.seconds, "s"};
  res.layer["core.curriculum_s"] = {
      ObsTraceSpanSeconds(obs_trace, "wsccl.build_curriculum"), "s"};
  res.layer["core.stage_epochs_s"] = {stage_s, "s"};
  res.layer["core.final_stage_s"] = {final_s, "s"};
  res.layer["par.scaling_4v1"] = {single.seconds / Median(train_s), "ratio"};
  res.layer["eval.eval_s"] = {traced_eval.seconds, "s"};
  res.layer["eval.encode_s"] = {traced_eval.encode_s, "s"};
  res.layer["gbdt.fit_s"] = {traced_eval.seconds - traced_eval.encode_s, "s"};
  res.layer["eval.tte_mae"] = {first.tte_mae, "s"};
  res.layer["eval.pr_tau"] = {first.pr_tau, "tau"};
  res.layer["trace.overhead_share"] = {
      traced.seconds / Median(train_s) - 1, "share"};
  return res;
}

}  // namespace perfbench
