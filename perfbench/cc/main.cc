// perfbench: the repository benchmark's workload runner.
//
//   perfbench --workload <train|serve_unique|serve_hot|adapt>
//             --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//
// Prints an environment stamp line and, last, one JSON result line with
// the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A failed output check prints "correct": false and exits 1.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "kern/kern.h"
#include "workload.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train|serve_unique|serve_hot|adapt> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir>\n",
               msg);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("missing flag value");
    const std::string flag = argv[i];
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.seconds <= 0) Usage("--seconds must be positive");
  if (opt.out_dir.empty()) Usage("--out-dir is required");
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = ParseArgs(argc, argv);
  std::filesystem::create_directories(opt.out_dir);
  Spans spans(opt.trace);

  Result res;
  if (opt.workload == "train") {
    res = RunTrain(opt, spans);
  } else if (opt.workload == "serve_unique") {
    res = RunServe(opt, spans, /*hot=*/false);
  } else if (opt.workload == "serve_hot") {
    res = RunServe(opt, spans, /*hot=*/true);
  } else if (opt.workload == "adapt") {
    res = RunAdapt(opt, spans);
  } else {
    Usage(("unknown workload " + opt.workload).c_str());
  }
  res.e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};

  if (opt.trace) {
    const double wall = spans.Now();
    const double covered = spans.TopLevelSeconds();
    res.layer["ledger.attributed_share"] = {covered / wall, "share"};
    res.layer["ledger.unattributed_s"] = {wall - covered, "s"};
    const std::string path =
        opt.out_dir + "/spans-" + opt.workload + ".json";
    if (!spans.Write(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }

  std::printf(
      "# env {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"par_threads\": %d, \"serve_workers\": %d, "
      "\"nproc\": %u, \"kernel\": \"%s\"}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, kParThreads, kServeWorkers,
      std::thread::hardware_concurrency(),
      tpr::kern::KernelName(tpr::kern::ActiveKernel()));
  for (const std::string& f : res.failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  std::printf("%s\n", ResultJson(res.correct, res.attempted, res.failed,
                                 opt.trace ? res.layer : res.e2e)
                          .c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}
