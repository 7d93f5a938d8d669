#ifndef PERFBENCH_SERVE_COMMON_H_
#define PERFBENCH_SERVE_COMMON_H_

// What the serving workloads (serve_unique, serve_hot, adapt) share: the
// service rig, the traffic driver with its reference check, and the
// metric assembly.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/encoder.h"
#include "loadgen.h"
#include "serve/service.h"
#include "workload.h"

namespace perfbench {

/// Offered rates, calibrated once on a 4-core x86 host (avx2 kernel) and
/// then fixed: 2 batched workers on distinct keys saturate near
/// kCapacityRps. Light sits where the ~1 ms idle-flush wait dominates,
/// heavy where queueing shows but stays clear of the knee.
constexpr double kCapacityRps = 14000;
constexpr double kLightRps = 0.15 * kCapacityRps;
constexpr double kHeavyRps = 0.55 * kCapacityRps;

/// Light traffic before anything is measured: the first second or two
/// after set-up runs slow (caches, arena, clock ramp).
constexpr double kWarmupS = 2.0;

/// A city plus one batched InferenceService over a paper-size encoder.
struct ServeRig {
  explicit ServeRig(uint64_t seed);

  /// Installs a seeded, untrained encoder as generation 1 and starts the
  /// workers.
  void InstallUntrained();

  City city;
  std::vector<tpr::graph::Path> pool;
  tpr::core::EncoderConfig encoder_config;
  std::unique_ptr<tpr::serve::InferenceService> service;
};

/// The service configuration every serving workload uses.
tpr::serve::ServiceConfig BenchServiceConfig();

/// Drives open-loop phases against a rig and keeps a sample of the
/// responses for the reference check.
class Traffic {
 public:
  Traffic(ServeRig& rig, std::function<Key()> next_key, uint64_t seed,
          Spans& spans);

  /// One phase at `rate` for `duration_s`. Requests good when answered
  /// OK on rung kFull. With `record_spans` and a traced run, one span per
  /// request goes to the recorder.
  PhaseStats Run(const char* name, double rate, double duration_s,
                 bool record_spans);

  /// Like Run, but sends until `stop` is set (the schedule covers
  /// `max_s` seconds).
  PhaseStats RunUntil(const char* name, double rate, double max_s,
                      const std::atomic<bool>& stop);

  /// A bulk client: `n` requests of the mix with at most `window` in
  /// flight, all at once. Returns the wall seconds until the last answer;
  /// adds to `attempted` / `good` like a phase.
  double Bulk(size_t n, size_t window, size_t* attempted, size_t* good);

  /// Registers the encoder of a generation, for the reference check.
  void AddModel(uint64_t generation,
                std::shared_ptr<const tpr::core::TemporalPathEncoder> model);

  /// Re-encodes every sampled response with a single EncodeValue of the
  /// generation that served it, at the same (path, encode time), and
  /// fails the result on a mismatch beyond the tolerance.
  void Verify(Result* res);

  /// Median time of one EncodeValueBatch over a full batch of distinct
  /// keys from this workload's mix.
  double EncodeFullBatchMs();

 private:
  struct Sample {
    Key key;
    uint64_t generation = 0;
    std::vector<float> embedding;
  };

  /// The next `n` requests of the mix, ids assigned; returns the first id.
  uint64_t MakeQueries(size_t n, std::vector<Key>* keys,
                       std::vector<tpr::serve::PathQuery>* queries);
  void Keep(uint64_t id, const Key& key, tpr::serve::ServeResult&& r,
            std::vector<std::optional<Sample>>* sampled, size_t i);

  PhaseStats RunArrivals(const char* name, double rate,
                         const std::vector<double>& arrivals,
                         bool record_spans, const std::atomic<bool>* stop);

  ServeRig& rig_;
  std::function<Key()> next_key_;
  uint64_t seed_;
  Spans& spans_;
  uint64_t next_id_ = 1;
  uint64_t phase_ = 0;
  std::vector<Sample> samples_;
  std::mutex models_mu_;
  std::map<uint64_t, std::shared_ptr<const tpr::core::TemporalPathEncoder>>
      models_;
};

/// Sampling rate of the reference check: every Nth request id.
constexpr uint64_t kSampleEvery = 32;

/// Largest absolute difference allowed between a served embedding value
/// and the single-encode reference (relative part scales with |value|):
/// batched rows use the same kernels but may group sums differently.
constexpr double kAbsTol = 1e-4;
constexpr double kRelTol = 1e-4;

LadderPoint ToLadderPoint(const PhaseStats& p);

/// Block-median sojourn p50/p95/p99 of a phase (see BlockLatency) as
/// "<prefix>p50_ms<suffix>", "<prefix>p95_ms<suffix>", ...
void AddLatency(const PhaseStats& p, const std::string& prefix,
                const std::string& suffix, Metrics* out);

/// Serving per-layer metrics the generator measures itself over the
/// traced phases: time inside Submit, and queueing (sojourn p50 minus
/// the obs service-time p50 already in `out`).
void AddGeneratorLayers(const std::vector<const PhaseStats*>& phases,
                        Metrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_COMMON_H_
