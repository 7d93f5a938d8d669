#include "serve_common.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <set>

#include "synth/dataset.h"

#include "util/logging.h"

namespace perfbench {

using tpr::serve::Rung;
using tpr::serve::ServeResult;

namespace {

/// Distinct paths of the city's unlabeled and labeled pools, in a fixed
/// order: the serving workloads' path pool.
std::vector<tpr::graph::Path> PathPool(const tpr::synth::CityDataset& data) {
  std::vector<tpr::graph::Path> pool;
  std::set<tpr::graph::Path> seen;
  for (const auto* samples : {&data.unlabeled, &data.labeled}) {
    for (const auto& s : *samples) {
      if (seen.insert(s.path).second) pool.push_back(s.path);
    }
  }
  return pool;
}

}  // namespace

tpr::serve::ServiceConfig BenchServiceConfig() {
  tpr::serve::ServiceConfig c;
  c.num_workers = kServeWorkers;
  c.batch_max = 32;
  c.queue_capacity = 1024;
  c.block_when_full = false;  // open loop: a full queue sheds
  c.time_bucket_s = kBucketSeconds;
  c.canary_permille = 250;
  c.canary_promote_after = 64;
  return c;
}

ServeRig::ServeRig(uint64_t seed) : city(PrepareCity(seed, 1.0)) {
  pool = PathPool(*city.data);
  encoder_config.seed = 31 + seed;  // paper size: d_h 128, 2 LSTM layers
  service = std::make_unique<tpr::serve::InferenceService>(
      city.features, encoder_config, BenchServiceConfig());
}

void ServeRig::InstallUntrained() {
  auto encoder = std::make_shared<const tpr::core::TemporalPathEncoder>(
      city.features, encoder_config);
  service->InstallModel(encoder, 1);
  TPR_CHECK(service->Start().ok());
}

Traffic::Traffic(ServeRig& rig, std::function<Key()> next_key, uint64_t seed,
                 Spans& spans)
    : rig_(rig), next_key_(std::move(next_key)), seed_(seed), spans_(spans) {
  if (rig_.service->model_generation() != 0) {
    AddModel(rig_.service->model_generation(), rig_.service->live_model());
  }
}

void Traffic::AddModel(
    uint64_t generation,
    std::shared_ptr<const tpr::core::TemporalPathEncoder> model) {
  std::lock_guard<std::mutex> lock(models_mu_);
  models_.emplace(generation, std::move(model));
}

PhaseStats Traffic::Run(const char* name, double rate, double duration_s,
                        bool record_spans) {
  const uint64_t phase_seed = seed_ * 7919 + (++phase_);
  return RunArrivals(name, rate, PoissonArrivals(rate, duration_s, phase_seed),
                     record_spans, nullptr);
}

PhaseStats Traffic::RunUntil(const char* name, double rate, double max_s,
                             const std::atomic<bool>& stop) {
  const uint64_t phase_seed = seed_ * 7919 + (++phase_);
  return RunArrivals(name, rate, PoissonArrivals(rate, max_s, phase_seed),
                     false, &stop);
}

uint64_t Traffic::MakeQueries(size_t n, std::vector<Key>* keys,
                              std::vector<tpr::serve::PathQuery>* queries) {
  keys->resize(n);
  queries->resize(n);
  const uint64_t first_id = next_id_;
  for (size_t i = 0; i < n; ++i) {
    (*keys)[i] = next_key_();
    (*queries)[i].path = rig_.pool[(*keys)[i].path];
    (*queries)[i].depart_time_s = (*keys)[i].depart_s;
    (*queries)[i].id = next_id_++;
  }
  return first_id;
}

void Traffic::Keep(uint64_t id, const Key& key, ServeResult&& r,
                   std::vector<std::optional<Sample>>* sampled, size_t i) {
  if (r.status.ok() && id % kSampleEvery == 0) {
    (*sampled)[i] = Sample{key, r.generation, std::move(r.embedding)};
  }
}

double Traffic::Bulk(size_t n, size_t window, size_t* attempted,
                     size_t* good) {
  std::vector<Key> keys;
  std::vector<tpr::serve::PathQuery> queries;
  const uint64_t first_id = MakeQueries(n, &keys, &queries);
  std::vector<std::optional<Sample>> sampled(n);
  std::deque<std::pair<size_t, std::future<ServeResult>>> inflight;
  auto drain_one = [&] {
    auto [i, fut] = std::move(inflight.front());
    inflight.pop_front();
    ServeResult r = fut.get();
    *good += r.status.ok() && r.rung == Rung::kFull;
    Keep(first_id + i, keys[i], std::move(r), &sampled, i);
  };
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    while (inflight.size() >= window) drain_one();
    auto f = rig_.service->Submit(std::move(queries[i]));
    if (f.ok()) inflight.emplace_back(i, std::move(*f));
  }
  while (!inflight.empty()) drain_one();
  const double seconds = SecondsSince(t0);
  *attempted += n;
  for (auto& s : sampled) {
    if (s.has_value()) samples_.push_back(std::move(*s));
  }
  return seconds;
}

PhaseStats Traffic::RunArrivals(const char* name, double rate,
                                const std::vector<double>& arrivals,
                                bool record_spans,
                                const std::atomic<bool>* stop) {
  const size_t n = arrivals.size();
  // Queries are built before the clock starts, so the sender only
  // submits.
  std::vector<Key> keys;
  std::vector<tpr::serve::PathQuery> queries;
  const uint64_t first_id = MakeQueries(n, &keys, &queries);
  std::vector<char> good(n, 0);
  std::vector<std::optional<Sample>> sampled(n);
  tpr::serve::InferenceService& service = *rig_.service;

  const double phase_start = spans_.Now();
  const std::function<std::optional<std::future<ServeResult>>(size_t)>
      submit = [&](size_t i) -> std::optional<std::future<ServeResult>> {
    auto f = service.Submit(std::move(queries[i]));
    if (!f.ok()) return std::nullopt;
    return std::move(*f);
  };
  const std::function<void(size_t, ServeResult&&)> done =
      [&](size_t i, ServeResult&& r) {
        good[i] = r.status.ok() && r.rung == Rung::kFull;
        Keep(first_id + i, keys[i], std::move(r), &sampled, i);
      };
  const std::vector<SendRecord> records =
      RunOpenLoop<ServeResult>(arrivals, submit, done, stop);

  PhaseStats stats = Summarize(rate, records, good);
  for (size_t i = 0; i < records.size(); ++i) {
    if (sampled[i].has_value()) samples_.push_back(std::move(*sampled[i]));
  }
  if (record_spans && spans_.enabled()) {
    // The generator's clock starts 2 ms after the phase start.
    const double base = phase_start + 0.002;
    const int parent = spans_.current();
    for (size_t i = 0; i < records.size(); ++i) {
      const SendRecord& r = records[i];
      const int64_t id = static_cast<int64_t>(first_id + i);
      spans_.Add(std::string(name) + ".request", base + r.sched_s,
                 base + r.done_s, parent, id);
      spans_.Add("serve.submit", base + r.sent_s,
                 base + r.sent_s + r.submit_us * 1e-6, parent, id);
    }
  }
  return stats;
}

void Traffic::Verify(Result* res) {
  size_t mismatched = 0, unknown = 0;
  for (const Sample& s : samples_) {
    std::shared_ptr<const tpr::core::TemporalPathEncoder> model;
    {
      std::lock_guard<std::mutex> lock(models_mu_);
      auto it = models_.find(s.generation);
      if (it != models_.end()) model = it->second;
    }
    if (model == nullptr) {
      ++unknown;
      continue;
    }
    // Batched serving encodes a group at its bucket-representative time.
    const std::vector<float> ref = model->EncodeValue(
        rig_.pool[s.key.path], s.key.bucket() * kBucketSeconds);
    bool match = ref.size() == s.embedding.size();
    for (size_t d = 0; match && d < ref.size(); ++d) {
      match = std::fabs(static_cast<double>(ref[d]) - s.embedding[d]) <=
              kAbsTol + kRelTol * std::fabs(static_cast<double>(ref[d]));
    }
    if (!match) ++mismatched;
  }
  res->Check(!samples_.empty(), "serve: no sampled responses to check");
  res->Check(mismatched == 0, "serve: " + std::to_string(mismatched) +
                                  " sampled responses differ from a single "
                                  "EncodeValue of their generation");
  res->Check(unknown == 0, "serve: " + std::to_string(unknown) +
                               " sampled responses came from a generation "
                               "the benchmark never saw installed");
}

double Traffic::EncodeFullBatchMs() {
  // Distinct keys of this workload's mix, as one batch would hold them.
  std::vector<Key> batch;
  for (int tries = 0; tries < 4096 && batch.size() < 32; ++tries) {
    const Key k = next_key_();
    if (std::find(batch.begin(), batch.end(), k) == batch.end()) {
      batch.push_back(k);
    }
  }
  std::vector<tpr::core::PathTimeItem> items;
  for (const Key& k : batch) {
    items.push_back({&rig_.pool[k.path], k.bucket() * kBucketSeconds});
  }
  const auto model = rig_.service->live_model();
  std::vector<double> ms;
  for (int r = 0; r < 40; ++r) {
    const Clock::time_point t0 = Clock::now();
    const auto out = model->EncodeValueBatch(items);
    ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    TPR_CHECK(out.size() == items.size());
  }
  return Median(ms);
}

LadderPoint ToLadderPoint(const PhaseStats& p) {
  LadderPoint lp;
  lp.rate = p.rate;
  lp.has_p99 = SupportedTail(p.sojourn_ms, 0.99, &lp.p99_ms);
  lp.ok_share = p.attempted == 0 ? 0
                                 : static_cast<double>(p.good) /
                                       static_cast<double>(p.attempted);
  lp.on_schedule = p.on_schedule;
  lp.late_p99_ms = p.late_p99_ms;
  return lp;
}

void AddLatency(const PhaseStats& p, const std::string& prefix,
                const std::string& suffix, Metrics* out) {
  double p50 = 0, p99 = 0, p95 = 0;
  if (!BlockLatency(p, kLatencyBlockS, &p50, &p99, &p95)) {
    // Too few requests per block for a supported tail: the phase's own
    // largest sample stands in (the sizing keeps this path unused).
    p99 = Quantile(p.sojourn_ms, 1.0);
  }
  (*out)[prefix + "p50_ms" + suffix] = {p50, "ms"};
  (*out)[prefix + "p95_ms" + suffix] = {p95, "ms"};
  (*out)[prefix + "p99_ms" + suffix] = {p99, "ms"};
}

void AddGeneratorLayers(const std::vector<const PhaseStats*>& phases,
                        Metrics* out) {
  std::vector<double> submit_us, sojourn_ms;
  for (const PhaseStats* p : phases) {
    submit_us.insert(submit_us.end(), p->submit_us.begin(),
                     p->submit_us.end());
    sojourn_ms.insert(sojourn_ms.end(), p->sojourn_ms.begin(),
                      p->sojourn_ms.end());
  }
  (*out)["serve.submit_us.p50"] = {Quantile(submit_us, 0.5), "us"};
  (*out)["serve.submit_us.p99"] = {Quantile(submit_us, 0.99), "us"};
  (*out)["serve.queue_ms.p50"] = {
      std::max(0.0, Quantile(sojourn_ms, 0.5) -
                        (*out)["serve.service_ms.p50"].value),
      "ms"};
}

}  // namespace perfbench
