#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {
namespace {

size_t NearestRank(size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n));
  const size_t rank = r < 1 ? 1 : static_cast<size_t>(r);
  return std::min(rank, n) - 1;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[NearestRank(values.size(), q)];
}

bool SupportedTail(const std::vector<double>& values, double q, double* out,
                   int min_beyond) {
  if (values.empty()) return false;
  const size_t rank = NearestRank(values.size(), q);
  if (values.size() - 1 - rank < static_cast<size_t>(min_beyond)) return false;
  *out = Quantile(values, q);
  return true;
}

bool MeetsSlo(const LadderPoint& p, const SloRule& rule) {
  return p.on_schedule && p.has_p99 && p.p99_ms <= rule.p99_ms &&
         p.ok_share >= rule.min_ok_share;
}

double MaxRateAtSlo(const std::vector<LadderPoint>& ladder,
                    const SloRule& rule) {
  double best = 0;
  for (const LadderPoint& p : ladder) {
    if (!MeetsSlo(p, rule)) break;
    best = p.rate;
  }
  return best;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

int Spans::Begin(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_s = Now();
  s.parent = current();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Spans::End(int index) {
  if (!enabled_ || index < 0) return;
  spans_[index].end_s = Now();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Spans::Add(const std::string& name, double start_s, double end_s,
                int parent, int64_t request) {
  if (!enabled_) return;
  spans_.push_back({name, start_s, end_s, parent, request});
}

double Spans::TopLevelSeconds() const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.end_s - s.start_s;
  }
  return total;
}

bool Spans::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Request spans get their own track so they do not break the
    // nesting of the control thread's phases.
    const int tid = s.request >= 0 ? 1 : 0;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"request\":%lld}}",
                 i == 0 ? "" : ",", JsonEscape(s.name).c_str(), tid,
                 s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, i, s.parent,
                 static_cast<long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Spans::Scope::Scope(Spans& spans, const std::string& name) : spans_(spans) {
  index_ = spans_.Begin(name);
}

Spans::Scope::~Scope() { spans_.End(index_); }

double ObsTraceSpanSeconds(const std::string& path, const std::string& name) {
  std::ifstream in(path);
  const std::string needle = "{\"name\":\"" + name + "\"";
  double total_us = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(needle) == std::string::npos) continue;
    const size_t dur = line.find("\"dur\":");
    if (dur != std::string::npos) total_us += std::atof(line.c_str() + dur + 6);
  }
  return total_us * 1e-6;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const Metrics& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    // Every digit as measured; non-finite values cannot be JSON.
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out << (first ? "" : ", ") << "\"" << JsonEscape(name)
        << "\": {\"value\": " << value << ", \"unit\": \""
        << JsonEscape(m.unit) << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
