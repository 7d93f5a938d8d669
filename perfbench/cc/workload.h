#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// The four workloads and what they share: options, the result each one
// returns, and the set-up of the synthetic Aalborg city.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/features.h"
#include "core/wsccl.h"
#include "graph/road_network.h"
#include "report.h"
#include "synth/dataset.h"

namespace perfbench {

/// Fixed thread counts; the benchmark never inherits them.
constexpr int kParThreads = 4;     // tpr::par pool (training, set-up)
constexpr int kServeWorkers = 2;   // InferenceService workers
constexpr int kSetupRepeats = 5;   // set-up runs per benchmark run

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // traced run output (spans, obs metrics, trace)
};

/// What a workload measured. `e2e` uses the end-to-end metric names of
/// the benchmark, `layer` the per-layer names; a traced run fills both.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics e2e;
  Metrics layer;
  std::vector<std::string> failures;  // failed checks, for stderr

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
};

/// The synthetic city every workload runs on.
struct City {
  std::shared_ptr<tpr::synth::CityDataset> data;
  std::shared_ptr<const tpr::core::FeatureSpace> features;
  double dataset_s = 0;
  double features_s = 0;
};

/// Aalborg preset at `scale`, with the dataset and node2vec seeds offset
/// by the workload seed.
City PrepareCity(uint64_t seed, double scale);

Result RunTrain(const Options& opt, Spans& spans);
Result RunServe(const Options& opt, Spans& spans, bool hot);
Result RunAdapt(const Options& opt, Spans& spans);

/// Starts a traced window: obs counters reset and recording, the
/// program's own spans collected in memory for `trace_path`.
void BeginObsWindow(const std::string& trace_path);

/// Ends it: recording off, the span file and an obs metrics snapshot
/// (`metrics_path`) written.
void EndObsWindow(const std::string& metrics_path);

/// Layer metrics read from the program's obs registry over a traced
/// window of `seconds` in which `sent` requests were offered. A layer
/// the workload never ran reads 0.
void AddObsLayers(double seconds, double sent, Metrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
