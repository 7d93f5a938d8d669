#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

UniqueKeys::UniqueKeys(uint32_t num_paths, uint64_t seed) : rng_(seed) {
  perm_.resize(num_paths);
  std::iota(perm_.begin(), perm_.end(), 0u);
  rng_.Shuffle(perm_);
  bucket0_ = static_cast<int64_t>(rng_.UniformInt(kBucketsPerWeek));
}

Key UniqueKeys::Next() {
  const uint64_t i = issued_++;
  const uint64_t n = perm_.size();
  Key k;
  k.path = perm_[i % n];
  const int64_t pass = static_cast<int64_t>(i / n);
  const int64_t bucket = (bucket0_ + pass) % kBucketsPerWeek;
  k.depart_s = bucket * kBucketSeconds +
               static_cast<int64_t>(rng_.UniformInt(kBucketSeconds));
  return k;
}

HotKeys::HotKeys(std::vector<uint32_t> paths, int hot_set, double zipf_s,
                 uint64_t seed)
    : rng_(seed) {
  // Distinct paths for the hot set, each at its own fixed bucket.
  rng_.Shuffle(paths);
  double total = 0;
  for (int r = 0; r < hot_set; ++r) {
    Key k;
    k.path = paths[static_cast<size_t>(r) % paths.size()];
    k.depart_s = static_cast<int64_t>(rng_.UniformInt(kBucketsPerWeek)) *
                 kBucketSeconds;
    hot_.push_back(k);
    total += 1.0 / std::pow(r + 1.0, zipf_s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

Key HotKeys::Next() {
  const double u = rng_.Uniform();
  const size_t r = std::min<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
      hot_.size() - 1);
  Key k = hot_[r];
  k.depart_s += static_cast<int64_t>(rng_.UniformInt(kBucketSeconds));
  return k;
}

std::vector<double> PoissonArrivals(double rate, double duration_s,
                                    uint64_t seed) {
  tpr::Rng rng(seed);
  std::vector<double> out;
  out.reserve(static_cast<size_t>(rate * duration_s * 1.1) + 16);
  double t = 0;
  for (;;) {
    // Inverse-CDF exponential gap; 1 - U is in (0, 1].
    t += -std::log(1.0 - rng.Uniform()) / rate;
    if (t >= duration_s) break;
    out.push_back(t);
  }
  return out;
}

double WindowDuplicateShare(const std::vector<Key>& keys, int window) {
  if (keys.empty()) return 0;
  size_t dup = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const size_t lo = i >= static_cast<size_t>(window) ? i - window : 0;
    for (size_t j = lo; j < i; ++j) {
      if (keys[j] == keys[i]) {
        ++dup;
        break;
      }
    }
  }
  return static_cast<double>(dup) / static_cast<double>(keys.size());
}

PhaseStats Summarize(double rate, const std::vector<SendRecord>& records,
                     const std::vector<char>& good) {
  PhaseStats s;
  s.rate = rate;
  s.attempted = records.size();
  for (size_t i = 0; i < records.size(); ++i) {
    const SendRecord& r = records[i];
    s.late_ms.push_back((r.sent_s - r.sched_s) * 1e3);
    s.submit_us.push_back(r.submit_us);
    if (r.admitted) {
      s.sojourn_ms.push_back((r.done_s - r.sched_s) * 1e3);
      s.sojourn_at_s.push_back(r.sched_s);
    }
    if (i < good.size() && good[i]) ++s.good;
  }
  s.late_p99_ms = Quantile(s.late_ms, 0.99);
  s.on_schedule = s.late_p99_ms <= kMaxLateP99Ms;
  return s;
}

void Append(const PhaseStats& chunk, double offset_s, PhaseStats* into) {
  into->rate = chunk.rate;
  into->attempted += chunk.attempted;
  into->good += chunk.good;
  into->sojourn_ms.insert(into->sojourn_ms.end(), chunk.sojourn_ms.begin(),
                          chunk.sojourn_ms.end());
  for (double t : chunk.sojourn_at_s) into->sojourn_at_s.push_back(t + offset_s);
  into->late_ms.insert(into->late_ms.end(), chunk.late_ms.begin(),
                       chunk.late_ms.end());
  into->submit_us.insert(into->submit_us.end(), chunk.submit_us.begin(),
                         chunk.submit_us.end());
  into->late_p99_ms = Quantile(into->late_ms, 0.99);
  into->on_schedule = into->late_p99_ms <= kMaxLateP99Ms;
}

bool BlockLatency(const PhaseStats& p, double block_s, double* p50,
                  double* p99, double* p95) {
  std::vector<std::vector<double>> blocks;
  for (size_t i = 0; i < p.sojourn_ms.size(); ++i) {
    const size_t b = static_cast<size_t>(p.sojourn_at_s[i] / block_s);
    if (blocks.size() <= b) blocks.resize(b + 1);
    blocks[b].push_back(p.sojourn_ms[i]);
  }
  std::vector<double> p50s, p95s, p99s;
  for (const auto& block : blocks) {
    if (block.empty()) continue;
    p50s.push_back(Quantile(block, 0.5));
    p95s.push_back(Quantile(block, 0.95));
    double tail = 0;
    if (SupportedTail(block, 0.99, &tail)) p99s.push_back(tail);
  }
  *p50 = Median(p50s);
  *p99 = Median(p99s);
  if (p95 != nullptr) *p95 = Median(p95s);
  return !p99s.empty();
}

}  // namespace perfbench
