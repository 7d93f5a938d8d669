// Workloads `serve_unique` and `serve_hot`: open-loop Poisson traffic
// into one batched InferenceService holding a seeded, untrained,
// paper-size encoder. No training, evaluation or rollout code runs.

#include <algorithm>
#include <cmath>
#include <memory>

#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "serve_common.h"
#include "util/logging.h"

namespace perfbench {
namespace {

// Max-rate ladder: fixed rates rising geometrically from 0.4x capacity,
// each point sized to hold enough requests for a supported p99. The
// first miss ends it; a point where the generator fell behind is not a
// measurement and is run again, up to kLadderRetries times.
constexpr double kLadderFirst = 0.4;
constexpr double kLadderGrowth = 1.15;
constexpr int kLadderRungs = 24;
constexpr double kLadderRequests = 1500;
constexpr int kLadderRetries = 2;

// The bulk client: a fixed job of requests of the mix, a bounded window
// in flight (below the queue capacity, so nothing sheds).
constexpr int kBulkRequests = 8192;
constexpr size_t kBulkWindow = 512;

// One light-rate chunk (two latency blocks) runs before each bulk job.
constexpr double kChunkS = 1.0;
constexpr int kMinChunks = 3;

/// Indices of the pool's paths in the middle fifth of the length
/// distribution. The hot set is drawn from these, so every seed's hot
/// keys cost about the same to encode and the seed moves which keys are
/// hot, not how long the forward takes.
std::vector<uint32_t> MidLengthPaths(
    const std::vector<tpr::graph::Path>& pool) {
  std::vector<uint32_t> order(pool.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return pool[a].size() < pool[b].size();
  });
  return std::vector<uint32_t>(order.begin() + order.size() * 2 / 5,
                               order.begin() + order.size() * 3 / 5);
}

}  // namespace

Result RunServe(const Options& opt, Spans& spans, bool hot) {
  Result res;
  tpr::par::SetDefaultThreads(kParThreads);

  std::vector<double> setup_s, dataset_s, features_s;
  std::unique_ptr<ServeRig> rig;
  for (int r = 0; r < kSetupRepeats; ++r) {
    Spans::Scope scope(spans, "setup");
    rig.reset();  // one live service at a time
    const Clock::time_point t0 = Clock::now();
    rig = std::make_unique<ServeRig>(opt.seed);
    rig->InstallUntrained();
    setup_s.push_back(SecondsSince(t0));
    dataset_s.push_back(rig->city.dataset_s);
    features_s.push_back(rig->city.features_s);
  }
  res.e2e["setup_s"] = {Median(setup_s), "s"};

  const uint32_t paths = static_cast<uint32_t>(rig->pool.size());
  const uint64_t key_seed = opt.seed * 1000003 + 17;
  std::function<Key()> next_key;
  if (hot) {
    next_key = [h = std::make_shared<HotKeys>(MidLengthPaths(rig->pool),
                                              kHotSet, kHotZipf, key_seed)] {
      return h->Next();
    };
  } else {
    next_key = [u = std::make_shared<UniqueKeys>(paths, key_seed)] {
      // The trace must never repeat a (path, bucket) key.
      TPR_CHECK(u->issued() < u->capacity()) << "unique key space exhausted";
      return u->Next();
    };
  }
  Traffic traffic(*rig, next_key, opt.seed, spans);

  {
    Spans::Scope scope(spans, "warmup");
    traffic.Run("warmup", kLightRps, kWarmupS, false);
  }
  // Light-rate chunks and bulk jobs alternate over the run, so a
  // transient slowdown of the host lands in a few blocks of each figure
  // rather than in all of one of them.
  PhaseStats light;
  std::vector<double> bulk_s;
  size_t bulk_attempted = 0, bulk_good = 0;
  {
    const Clock::time_point t0 = Clock::now();
    for (int chunk = 0;
         chunk < kMinChunks || SecondsSince(t0) < 0.8 * opt.seconds;
         ++chunk) {
      {
        Spans::Scope scope(spans, "light");
        Append(traffic.Run("light", kLightRps, kChunkS, false),
               chunk * kChunkS, &light);
      }
      Spans::Scope scope(spans, "bulk");
      bulk_s.push_back(traffic.Bulk(kBulkRequests, kBulkWindow,
                                    &bulk_attempted, &bulk_good));
    }
  }

  // Traced run: light and heavy windows with obs recording on and one
  // span per request, then the max-rate ladder.
  Metrics layers;
  if (opt.trace) {
    PhaseStats light_t, heavy_t;
    size_t sent = 0, unused = 0;
    BeginObsWindow(opt.out_dir + "/obs-trace-" + opt.workload + ".json");
    const Clock::time_point t0 = Clock::now();
    {
      Spans::Scope scope(spans, "light.traced");
      light_t = traffic.Run("light", kLightRps, 0.25 * opt.seconds, true);
    }
    {
      Spans::Scope scope(spans, "heavy.traced");
      heavy_t = traffic.Run("heavy", kHeavyRps, 0.25 * opt.seconds, true);
    }
    {
      Spans::Scope scope(spans, "bulk.traced");
      for (int r = 0; r < 3; ++r) {
        traffic.Bulk(kBulkRequests, kBulkWindow, &sent, &unused);
      }
    }
    const double traced_s = SecondsSince(t0);
    sent += light_t.attempted + heavy_t.attempted;
    AddObsLayers(traced_s, static_cast<double>(sent), &layers);
    EndObsWindow(opt.out_dir + "/obs-metrics-" + opt.workload + ".json");
    AddGeneratorLayers({&light_t, &heavy_t}, &layers);
    AddLatency(heavy_t, "serve.", ".heavy", &layers);
    double p50_light = 0, p50_traced = 0, tail = 0;
    BlockLatency(light, kLatencyBlockS, &p50_light, &tail);
    BlockLatency(light_t, kLatencyBlockS, &p50_traced, &tail);
    layers["trace.overhead_share"] = {p50_traced / p50_light - 1, "share"};

    std::vector<LadderPoint> ladder;
    const SloRule slo;
    {
      Spans::Scope scope(spans, "ladder");
      double rate = kLadderFirst * kCapacityRps;
      for (int k = 0; k < kLadderRungs; ++k, rate *= kLadderGrowth) {
        LadderPoint p;
        for (int attempt = 0; attempt <= kLadderRetries; ++attempt) {
          p = ToLadderPoint(
              traffic.Run("ladder", rate, kLadderRequests / rate, false));
          if (p.on_schedule) break;
        }
        ladder.push_back(p);
        if (!MeetsSlo(p, slo)) break;
      }
    }
    double late = std::max({light.late_p99_ms, light_t.late_p99_ms,
                            heavy_t.late_p99_ms});
    for (const LadderPoint& p : ladder) {
      late = std::max(late, p.late_p99_ms);
      std::fprintf(stderr,
                   "perfbench: ladder %.0f/s p99 %.3f ms (%s) ok %.5f late "
                   "p99 %.3f ms%s\n",
                   p.rate, p.p99_ms, p.has_p99 ? "supported" : "unsupported",
                   p.ok_share, p.late_p99_ms,
                   p.on_schedule ? "" : " (invalid: generator behind)");
    }
    layers["serve.max_rps_at_slo"] = {MaxRateAtSlo(ladder, slo), "1/s"};
    layers["loadgen.late_ms.p99"] = {late, "ms"};
    {
      Spans::Scope scope(spans, "encode_batch");
      layers["core.encode_batch_ms"] = {traffic.EncodeFullBatchMs(), "ms"};
    }
  }
  {
    Spans::Scope scope(spans, "verify");
    traffic.Verify(&res);
  }

  res.attempted = light.attempted + bulk_attempted;
  res.failed = res.attempted - (light.good + bulk_good);
  res.e2e["ok_share"] = {static_cast<double>(light.good + bulk_good) /
                             static_cast<double>(res.attempted),
                         "share"};
  res.e2e["op_s"] = {Median(bulk_s), "s"};
  std::fprintf(stderr,
               "perfbench: light %.0f/s late p99 %.3f ms; bulk %zu x %d "
               "requests, median %.4f s\n",
               kLightRps, light.late_p99_ms, bulk_s.size(), kBulkRequests,
               Median(bulk_s));
  if (!opt.trace) return res;

  res.layer = layers;
  AddLatency(light, "serve.", ".light", &res.layer);
  res.layer["synth.dataset_s"] = {Median(dataset_s), "s"};
  res.layer["core.features_s"] = {Median(features_s), "s"};
  return res;
}

}  // namespace perfbench
