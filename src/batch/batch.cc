#include "batch/batch.h"

#include <cstdlib>
#include <string>

#include "util/rng.h"

namespace tpr::batch {
namespace {

// Salt decorrelating group hashes from every other keyed hash in the
// system (fault verdicts, canary routing, cache keys).
constexpr uint64_t kGroupSalt = 0xBA7C45EEDULL;

int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0') return fallback;
  return static_cast<int64_t>(v);
}

}  // namespace

BatchConfig FromEnv(BatchConfig defaults) {
  defaults.max_batch = static_cast<int>(
      EnvInt64("TPR_BATCH_MAX", defaults.max_batch));
  defaults.max_ticks = static_cast<int>(
      EnvInt64("TPR_BATCH_TICKS", defaults.max_ticks));
  return defaults;
}

uint64_t GroupHash(const graph::Path& path, int64_t encode_time_s,
                   uint64_t salt) {
  uint64_t h = MixSeed(kGroupSalt, salt);
  h = MixSeed(h, static_cast<uint64_t>(encode_time_s));
  for (int edge : path) {
    h = MixSeed(h, static_cast<uint64_t>(static_cast<uint32_t>(edge)) + 1);
  }
  return h;
}

int64_t EncodeTime(const BatchConfig& config, int64_t depart_time_s) {
  if (!config.coalesce) return depart_time_s;
  return (depart_time_s / config.time_bucket_s) * config.time_bucket_s;
}

}  // namespace tpr::batch
