#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// Seeded open-loop load generation: Poisson arrival schedules, the two
// key mixes (distinct keys for serve_unique, a Zipf-skewed hot set for
// serve_hot), and a sender/collector pair that times every request from
// its scheduled send time to the moment its future is ready.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "report.h"
#include "util/rng.h"

namespace perfbench {

/// Width of the serving time bucket (the service's coalescing key and
/// the batched encode time are per bucket).
constexpr int64_t kBucketSeconds = 900;
constexpr int64_t kBucketsPerWeek = 7 * 24 * 3600 / kBucketSeconds;

/// serve_hot key mix: a small hot set with Zipf weights, sized so that
/// at least kHotDuplicateTarget of requests repeat a key among the
/// previous kHotWindow arrivals (a batch's worth at the light rate).
constexpr int kHotSet = 12;
constexpr double kHotZipf = 1.2;
constexpr int kHotWindow = 16;
constexpr double kHotDuplicateTarget = 0.5;

/// One request key: an index into the workload's path pool and a
/// departure time in seconds since Monday 00:00.
struct Key {
  uint32_t path = 0;
  int64_t depart_s = 0;
  int64_t bucket() const { return depart_s / kBucketSeconds; }
  bool operator==(const Key& o) const {
    return path == o.path && bucket() == o.bucket();
  }
};

/// Distinct (path, bucket) keys: request i gets path perm[i % P] at a
/// bucket that advances once per pass over the pool, so no key repeats
/// within P * kBucketsPerWeek requests.
class UniqueKeys {
 public:
  UniqueKeys(uint32_t num_paths, uint64_t seed);
  Key Next();
  uint64_t capacity() const {
    return static_cast<uint64_t>(perm_.size()) * kBucketsPerWeek;
  }
  uint64_t issued() const { return issued_; }

 private:
  std::vector<uint32_t> perm_;
  int64_t bucket0_ = 0;
  uint64_t issued_ = 0;
  tpr::Rng rng_;
};

/// A small hot set of (path, bucket) keys drawn with Zipf weights
/// (rank r has weight 1 / r^s). The hot paths are drawn from
/// `candidates` (path indices). Departure times vary inside the bucket,
/// so duplicates coalesce by bucket, not by exact time.
class HotKeys {
 public:
  HotKeys(std::vector<uint32_t> candidates, int hot_set, double zipf_s,
          uint64_t seed);
  Key Next();

 private:
  std::vector<Key> hot_;
  std::vector<double> cdf_;
  tpr::Rng rng_;
};

/// Poisson arrival times (seconds from the phase start) at `rate` per
/// second over `duration_s`.
std::vector<double> PoissonArrivals(double rate, double duration_s,
                                    uint64_t seed);

/// Share of keys equal to one of the previous `window` keys: how much a
/// batch of that many consecutive arrivals can coalesce.
double WindowDuplicateShare(const std::vector<Key>& keys, int window);

/// What the generator saw for one scheduled request (seconds from the
/// phase start).
struct SendRecord {
  double sched_s = 0;
  double sent_s = 0;
  double done_s = 0;
  double submit_us = 0;  // time spent inside the submit call
  bool admitted = false;
};

/// Runs one open-loop phase. A sender thread calls `submit(i)` at each
/// scheduled time (never earlier) and hands the future to a collector
/// thread, which waits on the oldest outstanding future, sweeps the rest,
/// stamps the moment each is seen ready and hands the result to
/// `done(i, result)`.
/// `submit` returns nullopt when the request was refused (shed). When
/// `stop` is given, sending ends at the first scheduled time after it is
/// set; the returned records cover only the requests sent.
template <typename Result>
std::vector<SendRecord> RunOpenLoop(
    const std::vector<double>& arrivals,
    const std::function<std::optional<std::future<Result>>(size_t)>& submit,
    const std::function<void(size_t, Result&&)>& done,
    const std::atomic<bool>* stop = nullptr) {
  std::vector<SendRecord> records(arrivals.size());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<size_t, std::future<Result>>> inbox;
  bool sender_done = false;
  size_t sent = 0;
  // A short lead so the first request is not already late.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  auto since_t0 = [&t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  std::thread collector([&] {
    std::vector<std::pair<size_t, std::future<Result>>> pending;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (pending.empty()) {
          cv.wait(lock, [&] { return sender_done || !inbox.empty(); });
          if (inbox.empty() && sender_done) return;
        }
        while (!inbox.empty()) {
          pending.push_back(std::move(inbox.front()));
          inbox.pop_front();
        }
      }
      // Block on the oldest request (the service answers roughly in
      // admission order), waking the moment it is ready, then sweep the
      // rest: a ready stamp is late by at most one short wait, and the
      // collector does not compete with the sender for a core.
      pending.front().second.wait_for(std::chrono::microseconds(100));
      for (size_t k = 0; k < pending.size();) {
        auto& [i, fut] = pending[k];
        if (fut.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          records[i].done_s = since_t0();
          done(i, fut.get());
          // Erase in place: the front stays the oldest request.
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
        } else {
          ++k;
        }
      }
    }
  });

  for (size_t i = 0; i < arrivals.size(); ++i) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(arrivals[i]));
    // Sleep only through long gaps and spin the rest: on a busy host a
    // sleeping thread can wake milliseconds late.
    const auto wake = due - std::chrono::milliseconds(5);
    if (Clock::now() < wake) std::this_thread::sleep_until(wake);
    while (Clock::now() < due) {
    }
    SendRecord& r = records[i];
    r.sched_s = arrivals[i];
    const Clock::time_point before = Clock::now();
    r.sent_s = std::chrono::duration<double>(before - t0).count();
    std::optional<std::future<Result>> fut = submit(i);
    r.submit_us =
        std::chrono::duration<double, std::micro>(Clock::now() - before)
            .count();
    sent = i + 1;
    if (!fut.has_value()) {
      r.done_s = since_t0();
      continue;
    }
    r.admitted = true;
    {
      std::lock_guard<std::mutex> lock(mu);
      inbox.emplace_back(i, std::move(*fut));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    sender_done = true;
  }
  cv.notify_one();
  collector.join();
  records.resize(sent);
  return records;
}

/// Summary of one open-loop phase.
struct PhaseStats {
  double rate = 0;
  size_t attempted = 0;
  size_t good = 0;  // ok, full rung, reference check passed when sampled
  std::vector<double> sojourn_ms;  // admitted requests: done - scheduled
  std::vector<double> sojourn_at_s;  // their scheduled times
  std::vector<double> late_ms;     // sent - scheduled, every request
  std::vector<double> submit_us;
  double late_p99_ms = 0;
  bool on_schedule = true;
};

/// The generator is on schedule when the p99 of its lateness stays
/// under this many milliseconds; past it a rate point is invalid.
constexpr double kMaxLateP99Ms = 1.0;

PhaseStats Summarize(double rate, const std::vector<SendRecord>& records,
                     const std::vector<char>& good);

/// Appends `chunk` to `into`, shifting its schedule by `offset_s` so
/// that later blocks never mix requests of two chunks.
void Append(const PhaseStats& chunk, double offset_s, PhaseStats* into);

/// Block length for BlockLatency: at the light rate a block holds ~1000
/// requests, enough for a p99 with 10 samples beyond it.
constexpr double kLatencyBlockS = 0.5;

/// Sojourn p50 and p99 of a phase as medians over consecutive blocks of
/// `block_s` seconds of schedule: one stalled second moves one block,
/// not the run's figure. Blocks whose p99 lacks 10 samples beyond it
/// are left out of the p99; returns false when none qualifies.
bool BlockLatency(const PhaseStats& p, double block_s, double* p50,
                  double* p99, double* p95 = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
