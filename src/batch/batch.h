#ifndef TPR_BATCH_BATCH_H_
#define TPR_BATCH_BATCH_H_

// Deterministic batch formation for the inference service (`tpr::batch`).
//
// A BatchFormer<Member> is a former of payloads: it sits between
// admission and the encoder workers, collects each arriving member (the
// service's admitted request; a ticket in the tests) into a group under
// the caller's key, and flushes a batch — which then owns its members
// outright — when either
//
//   * the pending batch reaches max_batch distinct groups (size flush), or
//   * the oldest pending arrival is max_ticks logical ticks old (age
//     flush) — a tick is an explicit Tick() call, one per admission in
//     tpr::serve, NEVER wall clock.
//
// Batch formation is therefore a pure function of the Arrive/Tick call
// sequence: the same arrival trace produces the same batch boundaries
// and the same coalescing decisions at any worker count, on any run.
// (The service's idle flush — draining a partial batch when the queue
// goes quiet — is wall-clock triggered and changes only WHICH batch a
// request rides in, never its outcome; see serve/service.h.)
//
// Coalescing. When `coalesce` is on, arrivals with the same key, path
// and encode time share one group: the group is encoded ONCE at the
// bucket-representative time (EncodeTime: bucket * time_bucket_s — the
// exact contract of the serve rung-1 cache, so the embedding is a pure
// function of the group key) and the result fans out to every member.
// With coalescing off the former never joins groups: every arrival is
// its own group and encodes at its exact departure time.
//
// There is one group key: the caller's. tpr::serve passes the request's
// InferenceService::GroupKey — a coalesced group's GroupHash, or the
// request id when coalescing is off — and keys every group-level fault
// verdict ("batch-flush", grouped "encoder-forward" retries,
// "quant-encode") by it, never by the batch: the verdict for a group is
// the same whether its batch flushed by size, by age, or by idle drain.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "graph/road_network.h"
#include "util/logging.h"

namespace tpr::batch {

struct BatchConfig {
  /// Size flush threshold: maximum distinct groups per batch (also the
  /// widest encoder forward). Coalesced waiters do not count extra.
  int max_batch = 32;
  /// Age flush threshold in logical ticks. One tick fires per admission,
  /// so this also bounds how many requests an unfilled batch can absorb:
  /// under a duplicate-heavy workload a batch holds up to ~max_ticks
  /// requests coalesced into at most max_batch groups. Sparse traffic
  /// never waits this long — the service's idle drain flushes a partial
  /// batch as soon as the queue goes quiet.
  int max_ticks = 128;
  /// Coalesce duplicate (path, time-bucket) keys into one encode.
  bool coalesce = true;
  /// Time-bucket width for coalescing keys (mirror of the serving
  /// config's rung-1 bucket).
  int64_t time_bucket_s = 900;
};

/// Reads TPR_BATCH_MAX / TPR_BATCH_TICKS over `defaults`. Unset or
/// unparsable variables leave the default untouched.
BatchConfig FromEnv(BatchConfig defaults = {});

/// The coalesced group key for (path, encode_time, salt). Pure; `salt`
/// carries the caller's extra identity (tpr::serve passes the pinned
/// model generation so coalesced groups are generation-homogeneous).
uint64_t GroupHash(const graph::Path& path, int64_t encode_time_s,
                   uint64_t salt);

/// The time a request's group encodes at: the bucket-representative
/// time when `config` coalesces, the exact departure time otherwise.
int64_t EncodeTime(const BatchConfig& config, int64_t depart_time_s);

/// One formed group: a path to encode once at `encode_time_s`, fanned
/// out to every member that joined it.
template <typename Member>
struct FormedGroup {
  uint64_t key = 0;  // the caller's group key
  graph::Path path;
  int64_t encode_time_s = 0;
  std::vector<Member> members;  // arrival order
};

/// One flushed batch, in group-arrival order.
template <typename Member>
struct FormedBatch {
  uint64_t seq = 0;  // 0-based flush sequence number
  std::vector<FormedGroup<Member>> groups;

  size_t total_requests() const {
    size_t n = 0;
    for (const auto& g : groups) n += g.members.size();
    return n;
  }
};

/// Single-threaded batch former (the service calls it under its lock).
template <typename Member>
class BatchFormer {
 public:
  using Batch = FormedBatch<Member>;

  explicit BatchFormer(const BatchConfig& config) : config_(config) {
    TPR_CHECK(config_.max_batch > 0);
    TPR_CHECK(config_.max_ticks > 0);
    TPR_CHECK(config_.time_bucket_s > 0);
  }

  /// Adds `member` under the caller's `key`; when coalescing it joins a
  /// pending group with the same key, path and encode time. `path` may
  /// refer into `member`: it is read before `member` is moved from.
  /// Returns the flushed batch when this arrival filled it to max_batch
  /// groups.
  std::optional<Batch> Arrive(Member&& member, uint64_t key,
                              const graph::Path& path,
                              int64_t encode_time_s) {
    if (config_.coalesce) {
      for (FormedGroup<Member>& g : pending_) {
        if (g.key == key && g.encode_time_s == encode_time_s &&
            g.path == path) {
          g.members.push_back(std::move(member));
          return std::nullopt;  // joined an existing group: no growth
        }
      }
    }
    if (pending_.empty()) oldest_arrival_time_ = logical_time_;
    FormedGroup<Member>& g = pending_.emplace_back();
    g.key = key;
    g.path = path;
    g.encode_time_s = encode_time_s;
    g.members.push_back(std::move(member));
    if (pending_.size() >= static_cast<size_t>(config_.max_batch)) {
      return FlushAll();
    }
    return std::nullopt;
  }

  /// Advances logical time by one tick. Returns the flushed batch when
  /// the oldest pending arrival has aged out.
  std::optional<Batch> Tick() {
    ++logical_time_;
    if (!pending_.empty() &&
        logical_time_ - oldest_arrival_time_ >=
            static_cast<uint64_t>(config_.max_ticks)) {
      return FlushAll();
    }
    return std::nullopt;
  }

  /// Unconditionally flushes whatever is pending (service idle drain and
  /// shutdown). Returns nullopt when nothing is pending.
  std::optional<Batch> FlushAll() {
    if (pending_.empty()) return std::nullopt;
    Batch batch;
    batch.seq = next_seq_++;
    batch.groups.swap(pending_);
    return batch;
  }

  bool has_pending() const { return !pending_.empty(); }
  int pending_groups() const { return static_cast<int>(pending_.size()); }
  const BatchConfig& config() const { return config_; }

 private:
  BatchConfig config_;
  std::vector<FormedGroup<Member>> pending_;  // group-arrival order
  uint64_t logical_time_ = 0;
  uint64_t oldest_arrival_time_ = 0;  // logical time of pending_.front()
  uint64_t next_seq_ = 0;
};

}  // namespace tpr::batch

#endif  // TPR_BATCH_BATCH_H_
