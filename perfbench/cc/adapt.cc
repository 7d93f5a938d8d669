// Workload `adapt`: serve_unique traffic at the light rate while the
// benchmark's control thread drives fixed cycles of
// fine-tune -> publish -> rollout gates (incl. the int8 twin) -> canary
// -> promote through drift::AdaptationController and
// rollout::RolloutController. Training and serving share the cores.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <thread>

#include "core/probe.h"
#include "drift/adaptation.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "quant/quant.h"
#include "rollout/controller.h"
#include "serve_common.h"
#include "synth/regime.h"
#include "util/logging.h"

namespace perfbench {
namespace {

constexpr int kMinCycles = 2;
constexpr int kMaxCycles = 12;
constexpr int kProbeQueries = 64;

/// Everything one adaptation loop needs; built once per set-up.
struct AdaptRig {
  AdaptRig(uint64_t seed, const std::string& model_dir);
  ~AdaptRig() {
    adapt.reset();
    rollout.reset();
    serve.reset();
    std::error_code ec;
    std::filesystem::remove_all(model_dir, ec);
  }

  std::string model_dir;
  std::unique_ptr<ServeRig> serve;
  std::shared_ptr<const tpr::synth::CityDataset> fresh;
  tpr::core::ProbeSet probe;
  std::unique_ptr<tpr::rollout::RolloutController> rollout;
  std::unique_ptr<tpr::drift::AdaptationController> adapt;
  double dataset_s = 0;
};

AdaptRig::AdaptRig(uint64_t seed, const std::string& dir) : model_dir(dir) {
  std::filesystem::remove_all(model_dir);
  serve = std::make_unique<ServeRig>(seed);
  const City& city = serve->city;

  // A post-shift world: incident + seasonal demand, a fresh window of
  // trajectories to fine-tune on.
  const Clock::time_point t0 = Clock::now();
  tpr::synth::RegimeShiftConfig incident;
  incident.kind = tpr::synth::RegimeKind::kIncident;
  incident.seed = 11 + seed;
  incident.edge_fraction = 0.08;
  incident.speed_scale = 0.35;
  tpr::synth::RegimeShiftConfig seasonal;
  seasonal.kind = tpr::synth::RegimeKind::kSeasonalDemand;
  seasonal.demand_scale = 1.5;
  const auto shift = tpr::synth::Compose(
      tpr::synth::MakeRegimeShift(*city.data->network, incident),
      tpr::synth::MakeRegimeShift(*city.data->network, seasonal));
  tpr::synth::DatasetConfig fresh_config;
  fresh_config.seed = 9001 + seed;
  fresh_config.num_unlabeled_trajectories = 240;
  fresh_config.departures_per_trajectory = 2;
  fresh_config.num_labeled_groups = 96;
  fresh_config.alternatives_per_group = 2;
  auto shifted =
      tpr::synth::GenerateShiftedDataset(*city.data, shift, fresh_config);
  TPR_CHECK(shifted.ok()) << shifted.status().ToString();
  fresh =
      std::make_shared<const tpr::synth::CityDataset>(std::move(*shifted));
  dataset_s = city.dataset_s + SecondsSince(t0);

  tpr::rollout::RolloutConfig rc;
  rc.model_dir = model_dir;
  // The loop under test is the adaptation plumbing; a generous budget
  // keeps an honestly fine-tuned candidate inside the quality gate.
  rc.quality_budget = 0.50;
  rc.quantize_twins = true;
  probe = tpr::core::BuildProbeSet(*city.data, kProbeQueries, 7);
  rollout = std::make_unique<tpr::rollout::RolloutController>(
      serve->service.get(), city.features, serve->encoder_config, probe, rc);
  TPR_CHECK(rollout->Init().ok());

  tpr::drift::DriftDetectorConfig dc;
  tpr::drift::AdaptationConfig ac;
  ac.model_dir = model_dir;
  ac.finetune_dir = model_dir + "/finetune";
  ac.wsc.encoder = serve->encoder_config;
  ac.wsc.seed = 7 + seed;
  ac.total_epochs = 2;
  ac.epochs_per_tick = 1;
  ac.probe_queries = kProbeQueries;
  adapt = std::make_unique<tpr::drift::AdaptationController>(
      city.features, serve->service.get(), rollout.get(), dc, ac);

  // Generation 1 (seeded, untrained) bootstraps straight to live.
  tpr::core::TemporalPathEncoder gen1(city.features, serve->encoder_config);
  TPR_CHECK(tpr::serve::InferenceService::SaveModel(gen1, model_dir, 1).ok());
  auto report = rollout->Tick();
  TPR_CHECK(report.ok()) << report.status().ToString();
  TPR_CHECK(serve->service->model_generation() == 1);
  TPR_CHECK(serve->service->Start().ok());
}

bool Terminal(const tpr::rollout::ModelRecord* rec) {
  using tpr::rollout::ModelState;
  return rec != nullptr && (rec->state == ModelState::kLive ||
                            rec->state == ModelState::kRetired ||
                            rec->state == ModelState::kQuarantined);
}

struct CycleTimes {
  double cycle_s = 0;
  double finetune_s = 0;  // AdaptationController::Tick
  double rollout_s = 0;   // RolloutController::Tick
  bool promoted = false;
};

/// One fine-tune -> publish -> gates -> canary -> promote cycle.
CycleTimes RunCycle(AdaptRig& rig, Traffic& traffic) {
  CycleTimes t;
  const Clock::time_point t0 = Clock::now();
  TPR_CHECK(rig.adapt->ForceStartFineTune(rig.fresh).ok());
  bool published = false;
  for (int tick = 0; tick < 64 && !published; ++tick) {
    const Clock::time_point k0 = Clock::now();
    auto report = rig.adapt->Tick(rig.fresh);
    t.finetune_s += SecondsSince(k0);
    TPR_CHECK(report.ok()) << report.status().ToString();
    published = report->published;
  }
  TPR_CHECK(published) << "fine-tune never published a candidate";
  const uint64_t candidate = rig.adapt->candidate_generation();
  const tpr::rollout::ModelRecord* rec = nullptr;
  for (int tick = 0; tick < 4000; ++tick) {
    const Clock::time_point k0 = Clock::now();
    auto report = rig.rollout->Tick();
    t.rollout_s += SecondsSince(k0);
    TPR_CHECK(report.ok()) << report.status().ToString();
    rec = rig.rollout->manifest().Find(candidate);
    if (Terminal(rec)) break;
    // The canary resolves on served traffic; poll, do not spin.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  t.promoted = rec != nullptr && rec->state == tpr::rollout::ModelState::kLive;
  t.cycle_s = SecondsSince(t0);
  if (t.promoted) {
    traffic.AddModel(candidate, rig.serve->service->live_model());
  }
  // Cooldown resolves against the terminal record and re-arms.
  for (int tick = 0; tick < 8 && rig.adapt->state() !=
                                     tpr::drift::AdaptState::kIdle;
       ++tick) {
    TPR_CHECK(rig.adapt->Tick(rig.fresh).ok());
  }
  return t;
}

}  // namespace

Result RunAdapt(const Options& opt, Spans& spans) {
  Result res;
  tpr::par::SetDefaultThreads(kParThreads);

  std::vector<double> setup_s, dataset_s, features_s;
  std::unique_ptr<AdaptRig> rig;
  for (int r = 0; r < kSetupRepeats; ++r) {
    Spans::Scope scope(spans, "setup");
    rig.reset();
    const Clock::time_point t0 = Clock::now();
    rig = std::make_unique<AdaptRig>(opt.seed, opt.out_dir + "/adapt-model");
    setup_s.push_back(SecondsSince(t0));
    dataset_s.push_back(rig->dataset_s);
    features_s.push_back(rig->serve->city.features_s);
  }
  res.e2e["setup_s"] = {Median(setup_s), "s"};

  auto keys = std::make_shared<UniqueKeys>(
      static_cast<uint32_t>(rig->serve->pool.size()), opt.seed * 1000003 + 17);
  Traffic traffic(*rig->serve, [keys] {
    TPR_CHECK(keys->issued() < keys->capacity());
    return keys->Next();
  }, opt.seed, spans);

  {
    Spans::Scope scope(spans, "warmup");
    traffic.Run("warmup", kLightRps, kWarmupS, false);
  }

  // The light-rate stream runs on its own sender/collector pair for the
  // whole loop; the schedule is long enough for any run, the stop flag
  // ends it.
  std::atomic<bool> stop{false};
  PhaseStats light;
  std::thread generator([&] {
    light = traffic.RunUntil("light", kLightRps, 4 * opt.seconds + 60, stop);
  });

  std::vector<CycleTimes> cycles, traced;
  double traced_s = 0;
  {
    Spans::Scope scope(spans, "cycles");
    const Clock::time_point start = Clock::now();
    // A traced run makes kMinCycles untraced cycles (the overhead
    // reference) and then traces kMinCycles more.
    const int untraced_max = opt.trace ? kMinCycles : kMaxCycles;
    while (static_cast<int>(cycles.size()) < untraced_max &&
           (static_cast<int>(cycles.size()) < kMinCycles ||
            SecondsSince(start) < opt.seconds)) {
      Spans::Scope cycle(spans, "cycle");
      cycles.push_back(RunCycle(*rig, traffic));
    }
  }
  if (opt.trace) {
    BeginObsWindow(opt.out_dir + "/obs-trace-adapt.json");
    Spans::Scope scope(spans, "cycles.traced");
    const Clock::time_point t0 = Clock::now();
    for (int c = 0; c < kMinCycles; ++c) {
      Spans::Scope cycle(spans, "cycle");
      traced.push_back(RunCycle(*rig, traffic));
    }
    traced_s = SecondsSince(t0);
  }
  {
    Spans::Scope scope(spans, "drain");
    stop.store(true, std::memory_order_release);
    generator.join();
  }
  Metrics layers;
  if (opt.trace) {
    // Requests offered during the traced cycles, at the fixed rate.
    AddObsLayers(traced_s, kLightRps * traced_s, &layers);
    EndObsWindow(opt.out_dir + "/obs-metrics-adapt.json");
    AddGeneratorLayers({&light}, &layers);
  }

  // The promoted candidate's int8 twin, built and probed directly.
  double twin_s = 0;
  if (opt.trace) {
    Spans::Scope scope(spans, "quant.twin");
    const auto live = rig->serve->service->live_model();
    std::vector<tpr::core::PathTimeItem> calibration;
    for (const auto& q : rig->probe.queries) {
      calibration.push_back({&q.path, q.depart_time_s});
    }
    const Clock::time_point t0 = Clock::now();
    auto twin = tpr::quant::QuantizeEncoder(*live, calibration);
    TPR_CHECK(twin.ok()) << twin.status().ToString();
    tpr::quant::QuantizedEncoder encoder(rig->serve->city.features,
                                         std::move(*twin));
    auto mae = tpr::core::ProbeTravelTimeMaeWith(
        [&](const tpr::graph::Path& p, int64_t t) {
          return encoder.EncodeValue(p, t);
        },
        live->representation_dim(), rig->probe);
    TPR_CHECK(mae.ok()) << mae.status().ToString();
    twin_s = SecondsSince(t0);
  }
  {
    Spans::Scope scope(spans, "verify");
    traffic.Verify(&res);
  }

  std::vector<double> adapt_s;
  int promoted = 0;
  for (const auto* set : {&cycles, &traced}) {
    for (const CycleTimes& c : *set) {
      promoted += c.promoted;
      if (set == &cycles) adapt_s.push_back(c.cycle_s);
    }
  }
  const int total_cycles = static_cast<int>(cycles.size() + traced.size());
  res.Check(promoted == total_cycles,
            "adapt: " + std::to_string(total_cycles - promoted) +
                " fine-tuned candidates were not promoted");
  res.attempted = light.attempted;
  res.failed = light.attempted - light.good;
  res.e2e["ok_share"] = {static_cast<double>(light.good) /
                             static_cast<double>(light.attempted),
                         "share"};
  res.e2e["op_s"] = {Median(adapt_s), "s"};
  std::fprintf(stderr,
               "perfbench: adapt %zu cycles, %zu requests, late p99 %.3f ms\n",
               cycles.size() + traced.size(), light.attempted,
               light.late_p99_ms);
  if (!opt.trace) return res;

  res.layer = layers;
  AddLatency(light, "serve.", ".light", &res.layer);
  double finetune = 0, rollout_s = 0;
  std::vector<double> traced_cycle;
  for (const CycleTimes& c : traced) {
    finetune += c.finetune_s;
    rollout_s += c.rollout_s;
    traced_cycle.push_back(c.cycle_s);
  }
  res.layer["synth.dataset_s"] = {Median(dataset_s), "s"};
  res.layer["core.features_s"] = {Median(features_s), "s"};
  res.layer["drift.finetune_s"] = {finetune, "s"};
  res.layer["rollout.tick_s"] = {rollout_s, "s"};
  res.layer["quant.twin_s"] = {twin_s, "s"};
  res.layer["drift.adapt_s"] = {Median(adapt_s), "s"};
  res.layer["loadgen.late_ms.p99"] = {light.late_p99_ms, "ms"};
  res.layer["trace.overhead_share"] = {
      Median(traced_cycle) / Median(adapt_s) - 1, "share"};
  return res;
}

}  // namespace perfbench
