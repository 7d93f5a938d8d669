// Self-tests of the benchmark's own machinery: schedules, key mixes, the
// percentile helper and the max-rate ladder rule. run.py runs them
// before every workload; a failure fails the run.

#include <cstdio>
#include <set>
#include <utility>
#include <vector>

#include "loadgen.h"
#include "report.h"
#include "util/rng.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

std::vector<uint32_t> AllPaths(uint32_t n) {
  std::vector<uint32_t> paths(n);
  for (uint32_t i = 0; i < n; ++i) paths[i] = i;
  return paths;
}

void SameSeedSameSchedule() {
  Expect(PoissonArrivals(4400, 2.0, 9) == PoissonArrivals(4400, 2.0, 9),
         "same seed gives the same arrival times");
  Expect(PoissonArrivals(4400, 2.0, 9) != PoissonArrivals(4400, 2.0, 10),
         "another seed gives other arrival times");
  const auto arrivals = PoissonArrivals(4400, 2.0, 9);
  const double rate = static_cast<double>(arrivals.size()) / 2.0;
  Expect(rate > 4400 * 0.95 && rate < 4400 * 1.05,
         "Poisson schedule holds its rate");
  UniqueKeys u1(600, 5), u2(600, 5);
  HotKeys h1(AllPaths(600), kHotSet, kHotZipf, 5);
  HotKeys h2(AllPaths(600), kHotSet, kHotZipf, 5);
  bool same = true;
  for (int i = 0; i < 5000; ++i) {
    const Key a = u1.Next(), b = u2.Next();
    const Key c = h1.Next(), d = h2.Next();
    same = same && a.path == b.path && a.depart_s == b.depart_s &&
           c.path == d.path && c.depart_s == d.depart_s;
  }
  Expect(same, "same seed gives the same key sequences");
}

void UniqueTraceHasNoDuplicates() {
  UniqueKeys keys(600, 3);
  std::set<std::pair<uint32_t, int64_t>> seen;
  bool unique = true;
  // More keys than any run sends.
  for (uint64_t i = 0; i < 300000 && i < keys.capacity(); ++i) {
    const Key k = keys.Next();
    unique = seen.emplace(k.path, k.bucket()).second && unique;
  }
  Expect(unique, "serve_unique trace has zero duplicate (path, bucket) keys");
}

void HotTraceReachesDuplicateShare() {
  HotKeys hot(AllPaths(600), kHotSet, kHotZipf, 3);
  std::vector<Key> keys;
  for (int i = 0; i < 20000; ++i) keys.push_back(hot.Next());
  const double share = WindowDuplicateShare(keys, kHotWindow);
  std::fprintf(stderr, "selftest: serve_hot duplicate share %.3f\n", share);
  Expect(share >= kHotDuplicateTarget,
         "serve_hot trace reaches its intended duplicate share");
}

void TailNeedsTenBeyond() {
  std::vector<double> v;
  for (int i = 0; i < 999; ++i) v.push_back(i);
  double p99 = -1;
  Expect(!SupportedTail(v, 0.99, &p99),
         "p99 of 999 samples (9 beyond) is not reported");
  v.push_back(999);
  Expect(SupportedTail(v, 0.99, &p99) && p99 == 989,
         "p99 of 1000 samples (10 beyond) is reported");
  Expect(SupportedTail(v, 0.5, &p99) && p99 == 499, "median is reported");
}

void LadderRuleIsMonotone() {
  const SloRule rule;
  tpr::Rng rng(11);
  bool ok = true;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<LadderPoint> ladder;
    const int n = 1 + static_cast<int>(rng.UniformInt(uint64_t{10}));
    for (int k = 0; k < n; ++k) {
      LadderPoint p;
      p.rate = 1000.0 * (k + 1);
      p.has_p99 = rng.Bernoulli(0.95);
      p.p99_ms = rng.Uniform(1, 30);
      p.ok_share = rng.Bernoulli(0.9) ? 1.0 : 0.99;
      p.on_schedule = rng.Bernoulli(0.95);
      ladder.push_back(p);
    }
    const double best = MaxRateAtSlo(ladder, rule);
    // Every rate at or below the result meets the SLO.
    for (const LadderPoint& p : ladder) {
      if (p.rate <= best) ok = ok && MeetsSlo(p, rule);
    }
    // Extending the ladder never lowers the result; failing a point
    // never raises it.
    for (int k = 0; k < n; ++k) {
      std::vector<LadderPoint> prefix(ladder.begin(), ladder.begin() + k);
      ok = ok && MaxRateAtSlo(prefix, rule) <= best;
      std::vector<LadderPoint> worse = ladder;
      worse[k].p99_ms = rule.p99_ms * 2;
      ok = ok && MaxRateAtSlo(worse, rule) <= best;
    }
  }
  Expect(ok, "max_rps_at_slo ladder rule is monotone");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  SameSeedSameSchedule();
  UniqueTraceHasNoDuplicates();
  HotTraceReachesDuplicateShare();
  TailNeedsTenBeyond();
  LadderRuleIsMonotone();
  if (g_failures > 0) {
    std::fprintf(stderr, "selftest: %d failures\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: all passed\n");
  return 0;
}
