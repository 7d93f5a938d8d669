#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// Result plumbing shared by every workload: sample statistics, the
// benchmark's own span recorder (the per-layer ledger), process memory,
// and the one-line JSON result the benchmark prints last.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Nearest-rank quantile q in [0, 1] of `values` (0 when empty).
double Quantile(std::vector<double> values, double q);

/// The q-quantile of `values`, but only when at least `min_beyond`
/// samples lie strictly beyond its rank; a tail read from fewer samples
/// is one or two outliers, not a percentile. Returns false otherwise.
bool SupportedTail(const std::vector<double>& values, double q,
                   double* out, int min_beyond = 10);

/// One point of the max-rate ladder.
struct LadderPoint {
  double rate = 0;      // offered requests per second
  double p99_ms = 0;    // sojourn p99 (only meaningful when has_p99)
  bool has_p99 = false; // enough samples beyond the 99th percentile
  double ok_share = 0;  // ok-on-full-rung / attempted
  bool on_schedule = false;  // generator kept up with the schedule
  double late_p99_ms = 0;    // generator lateness, reported per point
};

/// Conditions one ladder point must meet.
struct SloRule {
  double p99_ms = 25.0;
  double min_ok_share = 0.999;
};

bool MeetsSlo(const LadderPoint& p, const SloRule& rule);

/// Highest rate of an ascending ladder such that it and every lower
/// rate meet the SLO; 0 when the lowest rate already fails. Adding a
/// failing point never raises the result and removing a point above
/// the first failure never changes it.
double MaxRateAtSlo(const std::vector<LadderPoint>& ladder,
                    const SloRule& rule);

/// Peak resident set size (VmHWM) of this process in MB, 0 if unknown.
double PeakRssMb();

/// In-memory span recorder for the traced run. Spans carry a parent
/// index and an optional request id; nothing is written until Write().
class Spans {
 public:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;
    int64_t request = -1;
  };

  explicit Spans(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  double Now() const { return SecondsSince(t0_); }

  /// Opens a span under the innermost open span of the calling thread
  /// (single-threaded use: the control thread). Returns its index.
  int Begin(const std::string& name);
  void End(int index);

  /// Records a closed span directly (request spans from the generator).
  void Add(const std::string& name, double start_s, double end_s, int parent,
           int64_t request);

  /// Seconds covered by top-level spans (the phase ledger).
  double TopLevelSeconds() const;

  /// chrome://tracing JSON with one track per top-level span family.
  bool Write(const std::string& path) const;

  /// RAII helper; a no-op when the recorder is disabled.
  class Scope {
   public:
    Scope(Spans& spans, const std::string& name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int index_ = -1;
  };

  int current() const { return stack_.empty() ? -1 : stack_.back(); }

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Total seconds of the complete events named `name` in a chrome-trace
/// JSON file written by tpr::obs (0 when absent).
double ObsTraceSpanSeconds(const std::string& path, const std::string& name);

/// A metric as printed: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/// The benchmark's result line: exactly correct/attempted/failed/metrics.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const Metrics& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
