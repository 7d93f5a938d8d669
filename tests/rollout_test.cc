#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/features.h"
#include "core/probe.h"
#include "fault/fault.h"
#include "nn/autograd.h"
#include "obs/metrics.h"
#include "quant/quant.h"
#include "rollout/controller.h"
#include "rollout/manifest.h"
#include "serve/service.h"
#include "synth/presets.h"
#include "util/rng.h"

namespace tpr::rollout {
namespace {

using core::FeatureSpace;
using core::TemporalPathEncoder;
using serve::InferenceService;
using serve::PathQuery;
using serve::ServeResult;
using serve::ServiceConfig;

std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "tpr_rollout_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Deterministic additive noise on every parameter: a "new training
/// generation" that is different but of comparable quality.
void PerturbParameters(TemporalPathEncoder& encoder, float scale,
                       uint64_t seed) {
  Rng rng(seed);
  for (nn::Var p : encoder.Parameters()) {
    if (!p.defined()) continue;
    nn::Tensor& t = p.mutable_value();
    float* d = t.data();
    for (size_t i = 0; i < t.size(); ++i) {
      d[i] += scale * (2.0f * static_cast<float>(rng.Uniform()) - 1.0f);
    }
  }
}

/// Zeroes every parameter: the embeddings collapse and the probe
/// read-out degenerates to a constant predictor — a *quality*
/// regression with perfectly finite parameters.
void ZeroParameters(TemporalPathEncoder& encoder) {
  for (nn::Var p : encoder.Parameters()) {
    if (!p.defined()) continue;
    nn::Tensor& t = p.mutable_value();
    float* d = t.data();
    for (size_t i = 0; i < t.size(); ++i) d[i] = 0.0f;
  }
}

// ---------------------------------------------------------------------------
// Fixture on the tiny city (shared across the suite, built once).
// ---------------------------------------------------------------------------

class RolloutTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto preset = synth::AalborgPreset();
    synth::ScaleDataset(preset, 0.1);
    auto ds = synth::BuildPresetDataset(preset);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    data_ = new std::shared_ptr<synth::CityDataset>(
        std::make_shared<synth::CityDataset>(std::move(*ds)));
    core::FeatureConfig fc;
    fc.temporal_graph.slots_per_day = 48;
    fc.node2vec.walks_per_node = 2;
    fc.node2vec.epochs = 1;
    auto fs = core::BuildFeatureSpace(*data_, fc);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    features_ = new std::shared_ptr<const FeatureSpace>(
        std::make_shared<const FeatureSpace>(std::move(*fs)));
  }

  static void TearDownTestSuite() {
    delete features_;
    features_ = nullptr;
    delete data_;
    data_ = nullptr;
  }

  void SetUp() override {
    fault::ClearPlan();
    obs::SetMetricsEnabled(true);
    obs::ResetAllMetrics();
  }
  void TearDown() override {
    fault::ClearPlan();
    obs::SetMetricsEnabled(false);
  }

  static core::EncoderConfig TinyEncoder() {
    core::EncoderConfig cfg;
    cfg.d_hidden = 16;
    cfg.projection_dim = 8;
    return cfg;
  }

  static ServiceConfig TinyService() {
    ServiceConfig cfg;
    cfg.num_workers = 2;
    cfg.queue_capacity = 128;
    cfg.block_when_full = true;
    cfg.max_retries = 2;
    cfg.backoff_base_ms = 0.01;
    cfg.backoff_max_ms = 0.05;
    cfg.breaker_trip_threshold = 5;
    cfg.breaker_open_requests = 4;
    cfg.cache_capacity = 256;
    cfg.time_bucket_s = 600;
    cfg.canary_permille = 300;
    cfg.canary_promote_after = 8;
    return cfg;
  }

  static void Install(const std::string& spec) {
    auto plan = fault::FaultPlan::Parse(spec);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    fault::InstallPlan(*std::move(plan));
  }

  PathQuery Query(int sample, uint64_t id, int64_t time_shift = 0) {
    const auto& s =
        (*data_)->unlabeled[static_cast<size_t>(sample) %
                            (*data_)->unlabeled.size()];
    PathQuery q;
    q.path = s.path;
    q.depart_time_s = s.depart_time_s + time_shift;
    q.id = id;
    return q;
  }

  static core::ProbeSet Probe() { return core::BuildProbeSet(**data_, 48, 5); }

  std::shared_ptr<const FeatureSpace> features() { return *features_; }

  std::shared_ptr<TemporalPathEncoder> MakeEncoder() {
    return std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  }

  static std::shared_ptr<synth::CityDataset>* data_;
  static std::shared_ptr<const FeatureSpace>* features_;
};

std::shared_ptr<synth::CityDataset>* RolloutTest::data_ = nullptr;
std::shared_ptr<const FeatureSpace>* RolloutTest::features_ = nullptr;

// ---------------------------------------------------------------------------
// Manifest unit tests.
// ---------------------------------------------------------------------------

TEST_F(RolloutTest, ManifestEncodeDecodeRoundTrip) {
  Manifest m;
  ModelRecord a;
  a.generation = 3;
  a.state = ModelState::kLive;
  a.probe_mae = 12.5;
  a.incumbent_mae = 13.0;
  a.reason = "bootstrap";
  m.Upsert(a);
  ModelRecord b;
  b.generation = 7;
  b.state = ModelState::kQuarantined;
  b.reason = "quality regression: probe mae 99 vs incumbent 12";
  m.Upsert(b);
  m.set_live_generation(3);
  m.set_canary_generation(0);

  auto decoded = Manifest::Decode(m.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->live_generation(), 3u);
  EXPECT_EQ(decoded->canary_generation(), 0u);
  ASSERT_EQ(decoded->records().size(), 2u);
  const ModelRecord* ra = decoded->Find(3);
  ASSERT_NE(ra, nullptr);
  EXPECT_EQ(ra->state, ModelState::kLive);
  EXPECT_DOUBLE_EQ(ra->probe_mae, 12.5);
  EXPECT_DOUBLE_EQ(ra->incumbent_mae, 13.0);
  EXPECT_EQ(ra->reason, "bootstrap");
  const ModelRecord* rb = decoded->Find(7);
  ASSERT_NE(rb, nullptr);
  EXPECT_EQ(rb->state, ModelState::kQuarantined);
  EXPECT_DOUBLE_EQ(rb->probe_mae, -1.0);

  EXPECT_FALSE(Manifest::Decode("not a manifest").ok());
}

TEST_F(RolloutTest, ManifestPublishIsAtomicAndTornPublishFallsBackToMirror) {
  const std::string dir = ScratchDir("manifest_torn");
  Manifest m;
  ModelRecord rec;
  rec.generation = 1;
  rec.state = ModelState::kLive;
  rec.reason = "bootstrap";
  m.Upsert(rec);
  m.set_live_generation(1);
  ASSERT_TRUE(m.Publish(dir).ok());

  auto loaded = Manifest::Load(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->live_generation(), 1u);
  EXPECT_EQ(loaded->publish_count(), 1u);

  // A torn publish writes a truncated primary; the mirror still holds the
  // previous good state and Load falls back to it.
  m.set_live_generation(2);
  Install("rollout-publish:nth=1");
  EXPECT_EQ(m.Publish(dir).code(), StatusCode::kInternal);
  fault::ClearPlan();
  EXPECT_GE(obs::GetCounter("rollout.publish_torn").value(), 1u);

  auto recovered = Manifest::Load(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->live_generation(), 1u)
      << "mirror must serve the pre-tear state";
  EXPECT_GE(obs::GetCounter("rollout.manifest_torn").value(), 1u);

  // Republishing heals the primary.
  ASSERT_TRUE(m.Publish(dir).ok());
  auto healed = Manifest::Load(dir);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->live_generation(), 2u);

  EXPECT_EQ(Manifest::Load(ScratchDir("manifest_empty")).status().code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Controller gate tests.
// ---------------------------------------------------------------------------

TEST_F(RolloutTest, ControllerBootstrapsFirstValidGeneration) {
  const std::string dir = ScratchDir("bootstrap");
  auto enc = MakeEncoder();
  ASSERT_TRUE(InferenceService::SaveModel(*enc, dir, 1).ok());

  InferenceService svc(features(), TinyEncoder(), TinyService());
  RolloutConfig rcfg;
  rcfg.model_dir = dir;
  RolloutController ctl(&svc, features(), TinyEncoder(), Probe(), rcfg);
  ASSERT_TRUE(ctl.Init().ok());

  auto report = ctl.Tick();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->published);
  EXPECT_EQ(svc.model_generation(), 1u);
  EXPECT_NE(svc.live_model(), nullptr);
  EXPECT_EQ(ctl.manifest().live_generation(), 1u);
  EXPECT_GT(ctl.incumbent_mae(), 0.0);
  EXPECT_EQ(obs::GetCounter("rollout.bootstraps").value(), 1u);

  // The published manifest round-trips from disk.
  auto loaded = Manifest::Load(dir);
  ASSERT_TRUE(loaded.ok());
  const ModelRecord* rec = loaded->Find(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, ModelState::kLive);
  EXPECT_EQ(rec->reason, "bootstrap");

  // An idle tick makes no decisions and publishes nothing.
  auto idle = ctl.Tick();
  ASSERT_TRUE(idle.ok());
  EXPECT_FALSE(idle->published);
  EXPECT_TRUE(idle->events.empty());
}

TEST_F(RolloutTest, ControllerQuarantinesCorruptAndNonFiniteCandidates) {
  const std::string dir = ScratchDir("gates");
  auto enc = MakeEncoder();
  ASSERT_TRUE(InferenceService::SaveModel(*enc, dir, 1).ok());

  InferenceService svc(features(), TinyEncoder(), TinyService());
  RolloutConfig rcfg;
  rcfg.model_dir = dir;
  RolloutController ctl(&svc, features(), TinyEncoder(), Probe(), rcfg);
  ASSERT_TRUE(ctl.Init().ok());
  ASSERT_TRUE(ctl.Tick().ok());  // bootstrap gen 1

  // Gen 2: garbage bytes — fails the envelope gate.
  ckpt::CheckpointDir cdir(dir);
  {
    std::ofstream out(cdir.PathFor(2), std::ios::binary);
    out << "corrupt candidate";
  }
  // Gen 3: finite-shaped but NaN parameters — fails the finiteness gate.
  auto poisoned = MakeEncoder();
  {
    nn::Var p = poisoned->Parameters().front();
    p.mutable_value().data()[0] = std::numeric_limits<float>::quiet_NaN();
  }
  ASSERT_TRUE(InferenceService::SaveModel(*poisoned, dir, 3).ok());

  auto report = ctl.Tick();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(obs::GetCounter("rollout.quarantined").value(), 2u);
  EXPECT_EQ(svc.model_generation(), 1u) << "live traffic undisturbed";
  const ModelRecord* r2 = ctl.manifest().Find(2);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(r2->state, ModelState::kQuarantined);
  EXPECT_NE(r2->reason.find("envelope"), std::string::npos) << r2->reason;
  const ModelRecord* r3 = ctl.manifest().Find(3);
  ASSERT_NE(r3, nullptr);
  EXPECT_EQ(r3->state, ModelState::kQuarantined);
  EXPECT_EQ(r3->reason, "non-finite parameters");

  // Both files moved into quarantine/ and are never re-offered.
  namespace fs = std::filesystem;
  for (uint64_t gen : {2ull, 3ull}) {
    const fs::path moved =
        fs::path(dir) / "quarantine" / fs::path(cdir.PathFor(gen)).filename();
    EXPECT_TRUE(fs::exists(moved)) << moved;
    EXPECT_FALSE(fs::exists(cdir.PathFor(gen)));
  }
  auto idle = ctl.Tick();
  ASSERT_TRUE(idle.ok());
  EXPECT_TRUE(idle->events.empty()) << "quarantined generations re-offered";
}

TEST_F(RolloutTest, ControllerQuarantinesQualityRegressionsAndRemembersAcrossRestart) {
  const std::string dir = ScratchDir("quality");
  auto enc = MakeEncoder();
  ASSERT_TRUE(InferenceService::SaveModel(*enc, dir, 1).ok());

  InferenceService svc(features(), TinyEncoder(), TinyService());
  RolloutConfig rcfg;
  rcfg.model_dir = dir;
  rcfg.quality_budget = 0.10;
  RolloutController ctl(&svc, features(), TinyEncoder(), Probe(), rcfg);
  ASSERT_TRUE(ctl.Init().ok());
  ASSERT_TRUE(ctl.Tick().ok());  // bootstrap gen 1

  // Gen 2 collapses to a constant predictor: ~29% worse probe MAE, far
  // outside the 10% budget.
  auto bad = MakeEncoder();
  ZeroParameters(*bad);
  ASSERT_TRUE(InferenceService::SaveModel(*bad, dir, 2).ok());
  auto report = ctl.Tick();
  ASSERT_TRUE(report.ok());
  const ModelRecord* r2 = ctl.manifest().Find(2);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(r2->state, ModelState::kQuarantined);
  EXPECT_NE(r2->reason.find("quality regression"), std::string::npos)
      << r2->reason;
  EXPECT_GT(r2->probe_mae, r2->incumbent_mae);
  EXPECT_EQ(svc.canary_status().installed, false);

  // Gen 3 is comparable quality: it passes the gate and starts canarying.
  auto good = MakeEncoder();
  PerturbParameters(*good, 0.02f, 3);
  ASSERT_TRUE(InferenceService::SaveModel(*good, dir, 3).ok());
  ASSERT_TRUE(ctl.Tick().ok());
  EXPECT_TRUE(svc.canary_status().installed);
  EXPECT_EQ(svc.canary_status().generation, 3u);
  const ModelRecord* r3 = ctl.manifest().Find(3);
  ASSERT_NE(r3, nullptr);
  EXPECT_EQ(r3->state, ModelState::kCanary);

  // A restarted controller reloads the same state from the manifest: the
  // quarantined generation stays quarantined, the incumbent baseline is
  // restored, and nothing is re-decided.
  RolloutController again(&svc, features(), TinyEncoder(), Probe(), rcfg);
  ASSERT_TRUE(again.Init().ok());
  EXPECT_EQ(again.manifest().live_generation(), 1u);
  EXPECT_DOUBLE_EQ(again.incumbent_mae(), ctl.incumbent_mae());
  const ModelRecord* reloaded = again.manifest().Find(2);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->state, ModelState::kQuarantined);
}

// ---------------------------------------------------------------------------
// Gate 5: the quantized twin.
// ---------------------------------------------------------------------------

TEST_F(RolloutTest, ControllerPublishesQuantizedTwinsThroughTheMaeGate) {
  const std::string dir = ScratchDir("twin");
  auto enc = MakeEncoder();
  ASSERT_TRUE(InferenceService::SaveModel(*enc, dir, 1).ok());

  InferenceService svc(features(), TinyEncoder(), TinyService());
  RolloutConfig rcfg;
  rcfg.model_dir = dir;
  RolloutController ctl(&svc, features(), TinyEncoder(), Probe(), rcfg);
  ASSERT_TRUE(ctl.Init().ok());
  auto report = ctl.Tick();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->published);

  // The bootstrap published its int8 twin beside the checkpoint.
  auto artifact = quant::LoadQuantizedModel(dir, 1);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(artifact->generation, 1u);
  EXPECT_EQ(obs::GetCounter("rollout.quant_twins").value(), 1u);
  auto has_event = [&](const TickReport& r, const std::string& needle) {
    for (const std::string& e : r.events) {
      if (e.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_event(*report, "quantized twin passed"));

  // Under a total fp32 encoder outage the installed twin answers traffic
  // from the quantized rung, at the live generation.
  ASSERT_TRUE(svc.Start().ok());
  Install("encoder-forward:p=1");
  auto submitted = svc.Submit(Query(0, 900));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  ServeResult r = submitted->get();
  fault::ClearPlan();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.rung, serve::Rung::kQuantized);
  EXPECT_EQ(r.generation, 1u);
  svc.Shutdown();

  // A canary candidate carries its own twin: gen 2 publishes quant-2.q8
  // before the canary begins.
  auto good = MakeEncoder();
  PerturbParameters(*good, 0.02f, 2);
  ASSERT_TRUE(InferenceService::SaveModel(*good, dir, 2).ok());
  auto canary_report = ctl.Tick();
  ASSERT_TRUE(canary_report.ok()) << canary_report.status().ToString();
  EXPECT_TRUE(svc.canary_status().installed);
  EXPECT_TRUE(has_event(*canary_report, "quantized twin passed"));
  EXPECT_TRUE(quant::LoadQuantizedModel(dir, 2).ok());
  EXPECT_EQ(obs::GetCounter("rollout.quant_twins").value(), 2u);
}

TEST_F(RolloutTest, NegativeTwinDeltaDrillQuarantinesTheCandidateAndItsArtifact) {
  const std::string dir = ScratchDir("twin_drill");
  auto enc = MakeEncoder();
  ASSERT_TRUE(InferenceService::SaveModel(*enc, dir, 1).ok());

  InferenceService svc(features(), TinyEncoder(), TinyService());
  RolloutConfig rcfg;
  rcfg.model_dir = dir;
  // A negative delta budget fails every twin deterministically: the
  // quarantine drill. The fp32 candidate is perfectly healthy, yet it
  // must not go live without its twin.
  rcfg.quant_mae_delta = -1.0;
  RolloutController ctl(&svc, features(), TinyEncoder(), Probe(), rcfg);
  ASSERT_TRUE(ctl.Init().ok());
  auto report = ctl.Tick();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->published && svc.live_model() != nullptr)
      << "drill candidate went live";

  EXPECT_EQ(svc.live_model(), nullptr);
  EXPECT_EQ(obs::GetCounter("rollout.quarantined").value(), 1u);
  EXPECT_EQ(obs::GetCounter("rollout.quant_twins").value(), 0u);
  const ModelRecord* rec = ctl.manifest().Find(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, ModelState::kQuarantined);
  EXPECT_NE(rec->reason.find("quantized twin"), std::string::npos)
      << rec->reason;
  // No orphaned artifact survives the quarantine.
  EXPECT_EQ(quant::LoadQuantizedModel(dir, 1).status().code(),
            StatusCode::kNotFound);
}

TEST_F(RolloutTest, DisablingTwinsSkipsGateFiveAndPublishesNoArtifact) {
  const std::string dir = ScratchDir("twin_off");
  auto enc = MakeEncoder();
  ASSERT_TRUE(InferenceService::SaveModel(*enc, dir, 1).ok());

  InferenceService svc(features(), TinyEncoder(), TinyService());
  RolloutConfig rcfg;
  rcfg.model_dir = dir;
  rcfg.quantize_twins = false;
  RolloutController ctl(&svc, features(), TinyEncoder(), Probe(), rcfg);
  ASSERT_TRUE(ctl.Init().ok());
  auto report = ctl.Tick();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->published);
  EXPECT_EQ(svc.model_generation(), 1u);

  bool skipped = false;
  for (const std::string& e : report->events) {
    skipped = skipped || e.find("quantized twin skipped") != std::string::npos;
  }
  EXPECT_TRUE(skipped);
  EXPECT_EQ(obs::GetCounter("rollout.quant_twins").value(), 0u);
  EXPECT_EQ(quant::LoadQuantizedModel(dir, 1).status().code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Acceptance soak: determinism under fault.
//
// A fixed fault spec + seed drives five generation publishes through the
// full lifecycle — bootstrap, clean promotion, quality-regression
// quarantine, injected canary-regression rollback, and a second promotion
// — with torn manifest publishes injected along the way (rollout-publish
// tears calls 3, 6, 9, ...). The complete rollout trace (tick events) and
// every request's (status, rung, attempts, generation, canary, embedding
// bytes) must be bitwise identical across repeated runs and across worker
// counts, and incumbent traffic must observe zero non-injected failures.
// ---------------------------------------------------------------------------

constexpr char kSoakSpec[] =
    "encoder-forward:p=0.08;alloc:p=0.02;"
    "canary-regression:p=0.5,seed=3;rollout-publish:nth=3";

struct Outcome {
  StatusCode code = StatusCode::kOk;
  serve::Rung rung = serve::Rung::kFull;
  int attempts = 0;
  uint64_t generation = 0;
  bool canary = false;
  std::vector<float> embedding;
  bool operator==(const Outcome&) const = default;
};

struct SoakTrace {
  std::vector<std::string> events;    // "tick N: <event>" lines, in order
  std::vector<Outcome> outcomes;      // every request, submission order
  uint64_t final_live = 0;
  size_t dim = 0;
  uint64_t promoted = 0, rolled_back = 0, quarantined = 0;
  uint64_t publishes = 0, torn = 0;
};

class RolloutSoakTest : public RolloutTest {
 protected:
  void RunSoak(int num_workers, SoakTrace* trace_out) {
    fault::ClearPlan();
    obs::ResetAllMetrics();
    // Same directory for every run: tick events quote paths, and the
    // trace comparison is byte-for-byte.
    const std::string dir = ScratchDir("soak");

    // Five pre-built generations: 1 and 2 and 5 are good, 3 collapses to a
    // constant predictor (quality regression), 4 is good but carries the
    // injected canary-regression verdict under the soak seed.
    std::vector<std::shared_ptr<TemporalPathEncoder>> gens(6);
    gens[1] = MakeEncoder();
    for (uint64_t g : {2ull, 4ull, 5ull}) {
      gens[g] = MakeEncoder();
      PerturbParameters(*gens[g], 0.02f, g);
    }
    gens[3] = MakeEncoder();
    ZeroParameters(*gens[3]);

    ServiceConfig cfg = TinyService();
    cfg.num_workers = num_workers;
    InferenceService svc(features(), TinyEncoder(), cfg);
    RolloutConfig rcfg;
    rcfg.model_dir = dir;
    rcfg.quality_budget = 0.10;
    RolloutController ctl(&svc, features(), TinyEncoder(), Probe(), rcfg);

    Install(kSoakSpec);
    ASSERT_TRUE(ctl.Init().ok());

    SoakTrace& trace = *trace_out;
    int tick_no = 0;
    auto tick = [&] {
      auto report = ctl.Tick();
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ++tick_no;
      for (const std::string& e : report->events) {
        trace.events.push_back("tick " + std::to_string(tick_no) + ": " + e);
      }
    };

    uint64_t next_id = 1;
    auto phase = [&] {
      std::vector<std::future<ServeResult>> futures;
      for (int i = 0; i < 64; ++i) {
        const uint64_t id = next_id++;
        auto submitted = svc.Submit(Query(i, id, (i % 5) * 700));
        ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
        futures.push_back(std::move(*submitted));
      }
      for (auto& f : futures) {
        ServeResult r = f.get();
        Outcome o;
        o.code = r.status.code();
        o.rung = r.rung;
        o.attempts = r.attempts;
        o.generation = r.generation;
        o.canary = r.canary;
        o.embedding = std::move(r.embedding);
        trace.outcomes.push_back(std::move(o));
      }
    };

    for (uint64_t g = 1; g <= 5; ++g) {
      ASSERT_TRUE(InferenceService::SaveModel(*gens[g], dir, g).ok());
      tick();  // scan: bootstrap (g=1), canary, or quarantine; publish
      if (g == 1) {
        ASSERT_TRUE(svc.Start().ok());
      }
      phase();
      tick();  // fold the canary resolution; publish (may tear)
      tick();  // republish after a torn publish
    }
    tick();  // settle any trailing dirty state
    tick();
    svc.Shutdown();
    fault::ClearPlan();

    trace.final_live = svc.model_generation();
    trace.dim = svc.representation_dim();
    trace.promoted = obs::GetCounter("rollout.promoted").value();
    trace.rolled_back = obs::GetCounter("rollout.rolled_back").value();
    trace.quarantined = obs::GetCounter("rollout.quarantined").value();
    trace.publishes = obs::GetCounter("rollout.publishes").value();
    trace.torn = obs::GetCounter("rollout.publish_torn").value();

    // The on-disk manifest reflects the full lifecycle after the run.
    auto manifest = Manifest::Load(dir);
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    EXPECT_EQ(manifest->live_generation(), trace.final_live);
    EXPECT_EQ(manifest->canary_generation(), 0u);
    auto expect_state = [&](uint64_t gen, ModelState want) {
      const ModelRecord* rec = manifest->Find(gen);
      ASSERT_NE(rec, nullptr) << "gen " << gen << " missing from manifest";
      EXPECT_EQ(rec->state, want)
          << "gen " << gen << ": " << ModelStateName(rec->state) << " ("
          << rec->reason << ")";
    };
    expect_state(1, ModelState::kRetired);
    expect_state(2, ModelState::kRetired);
    expect_state(3, ModelState::kQuarantined);
    expect_state(4, ModelState::kQuarantined);
    expect_state(5, ModelState::kLive);

    // Quarantined checkpoints were moved out of the candidate directory.
    namespace fs = std::filesystem;
    ckpt::CheckpointDir cdir(dir);
    for (uint64_t gen : {3ull, 4ull}) {
      const fs::path moved = fs::path(dir) / "quarantine" /
                             fs::path(cdir.PathFor(gen)).filename();
      EXPECT_TRUE(fs::exists(moved)) << moved;
    }
  }
};

TEST_F(RolloutSoakTest, FullLifecycleIsBitwiseDeterministicAcrossRunsAndWorkerCounts) {
  SoakTrace base;
  RunSoak(/*num_workers=*/4, &base);
  if (HasFatalFailure()) return;

  // The scenario exercised every lifecycle edge.
  EXPECT_EQ(base.final_live, 5u);
  EXPECT_EQ(base.promoted, 2u) << "gens 2 and 5";
  EXPECT_EQ(base.rolled_back, 1u) << "gen 4";
  EXPECT_EQ(base.quarantined, 2u) << "gens 3 and 4";
  EXPECT_GE(base.publishes, 5u);
  EXPECT_GE(base.torn, 1u) << "rollout-publish:nth=3 must tear a publish";
  auto has_event = [&](const std::string& needle) {
    for (const std::string& e : base.events) {
      if (e.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_event("gen 1 bootstrapped live"));
  EXPECT_TRUE(has_event("canary gen 2 promoted: clean-requests"));
  EXPECT_TRUE(has_event("gen 3 quarantined: quality regression"));
  EXPECT_TRUE(has_event("canary rolled back: injected canary-regression"));
  EXPECT_TRUE(has_event("canary gen 5 promoted: clean-requests"));
  EXPECT_TRUE(has_event("publish failed"));

  // Incumbent traffic observed zero non-injected failures: every request
  // in the run (320 across five phases) came back OK, and every
  // non-canary request was served by the incumbent generation of its
  // phase (1, 1, 2, 2, 2 after the gen-2 promotion mid-phase 2).
  ASSERT_EQ(base.outcomes.size(), 320u);
  for (size_t i = 0; i < base.outcomes.size(); ++i) {
    EXPECT_EQ(base.outcomes[i].code, StatusCode::kOk) << "request " << i;
    EXPECT_EQ(base.outcomes[i].embedding.size(), base.dim) << "request " << i;
  }
  // Canary traffic is a strict, non-trivial subset of the run.
  size_t canaried = 0;
  for (const Outcome& o : base.outcomes) canaried += o.canary ? 1 : 0;
  EXPECT_GT(canaried, 0u);
  EXPECT_LT(canaried, base.outcomes.size() / 2);

  // Bitwise determinism: a second 4-worker run and a 1-worker run must
  // reproduce the identical trace — same events in the same tick order,
  // and every request's outcome (embedding bytes included) identical.
  SoakTrace repeat;
  RunSoak(/*num_workers=*/4, &repeat);
  if (HasFatalFailure()) return;
  EXPECT_EQ(base.events, repeat.events);
  EXPECT_EQ(base.outcomes == repeat.outcomes, true)
      << "4-worker rerun diverged";

  SoakTrace solo;
  RunSoak(/*num_workers=*/1, &solo);
  if (HasFatalFailure()) return;
  EXPECT_EQ(base.events, solo.events);
  EXPECT_EQ(base.outcomes == solo.outcomes, true)
      << "1-worker run diverged from 4-worker run";
  EXPECT_EQ(solo.final_live, base.final_live);
  EXPECT_EQ(solo.publishes, base.publishes);
  EXPECT_EQ(solo.torn, base.torn);
}

}  // namespace
}  // namespace tpr::rollout
