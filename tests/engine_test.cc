// Tests of the tape-free LSTM inference engine (core/lstm_engine.h): its
// bitwise contract against the autograd graph, cancellation, the ledger
// counters and steady-state allocation. Each test sweeps every kernel
// this CPU supports, so one run covers TPR_KERNEL=scalar and avx2.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "core/encoder.h"
#include "core/features.h"
#include "core/lstm_engine.h"
#include "kern/arena.h"
#include "kern/kern.h"
#include "nn/autograd.h"
#include "obs/metrics.h"
#include "quant/quant.h"
#include "synth/presets.h"

// Global operator new counts heap allocations inside a window, so the
// steady-state test can show the engine allocates nothing once warm.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tpr::core {
namespace {

class ScopedKernel {
 public:
  explicit ScopedKernel(kern::Kernel k) : prev_(kern::ActiveKernel()) {
    kern::SetKernel(k);
  }
  ~ScopedKernel() { kern::SetKernel(prev_); }
  ScopedKernel(const ScopedKernel&) = delete;
  ScopedKernel& operator=(const ScopedKernel&) = delete;

 private:
  kern::Kernel prev_;
};

std::vector<kern::Kernel> Kernels() {
  std::vector<kern::Kernel> kernels{kern::Kernel::kScalar};
  if (kern::CpuSupportsAvx2()) kernels.push_back(kern::Kernel::kAvx2);
  return kernels;
}

class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto preset = synth::AalborgPreset();
    synth::ScaleDataset(preset, 0.1);
    auto ds = synth::BuildPresetDataset(preset);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    data_ = new std::shared_ptr<synth::CityDataset>(
        std::make_shared<synth::CityDataset>(std::move(*ds)));
    FeatureConfig fc;
    fc.temporal_graph.slots_per_day = 48;
    fc.node2vec.walks_per_node = 2;
    fc.node2vec.epochs = 1;
    auto fs = BuildFeatureSpace(*data_, fc);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    features_ = new std::shared_ptr<const FeatureSpace>(
        std::make_shared<const FeatureSpace>(std::move(*fs)));
    // Paths of every length the pool offers, plus one-edge prefixes.
    paths_ = new std::vector<graph::Path>;
    for (size_t i = 0; i < 40; ++i) {
      const auto& s = (*data_)->unlabeled[i % (*data_)->unlabeled.size()];
      paths_->push_back(s.path);
      if (i % 5 == 0) paths_->push_back(graph::Path{s.path.front()});
    }
  }

  // Freed so the suite is LeakSanitizer-clean.
  static void TearDownTestSuite() {
    delete paths_;
    paths_ = nullptr;
    delete features_;
    features_ = nullptr;
    delete data_;
    data_ = nullptr;
  }

  void TearDown() override { obs::SetMetricsEnabled(false); }

  static EncoderConfig Config(int d_hidden, Aggregation aggregation) {
    EncoderConfig cfg;
    cfg.d_hidden = d_hidden;
    cfg.projection_dim = 8;
    cfg.aggregation = aggregation;
    return cfg;
  }

  /// `n` items cycling through the path pool, departure times spread over
  /// the day.
  static std::vector<PathTimeItem> Items(int n, int first = 0) {
    std::vector<PathTimeItem> items;
    for (int i = 0; i < n; ++i) {
      const size_t p = static_cast<size_t>(first + i) % paths_->size();
      items.push_back({&(*paths_)[p], 3600 + 1700 * static_cast<int64_t>(i)});
    }
    return items;
  }

  /// The item sets every bitwise test sweeps: mixed lengths with
  /// one-edge paths, all items one length, B = 1, and B = 33 (one more
  /// than the serving batch_max of 32).
  static std::vector<std::vector<PathTimeItem>> ItemSets() {
    std::vector<std::vector<PathTimeItem>> sets{Items(7), Items(1, 3),
                                                Items(33)};
    std::vector<PathTimeItem> same;
    for (int i = 0; i < 5; ++i) {
      same.push_back({&(*paths_)[0], 900 * static_cast<int64_t>(i)});
    }
    sets.push_back(same);
    return sets;
  }

  static FeatureTables TablesOf(const TemporalPathEncoder& encoder) {
    const std::vector<nn::Var> params = encoder.Parameters();
    const auto view = [&params](int i) {
      const nn::Tensor& t = params[i].value();
      return TableView{t.data(), t.rows(), t.cols()};
    };
    return FeatureTables{view(0), view(1), view(2), view(3),
                         encoder.config().use_temporal, encoder.input_dim()};
  }

  std::shared_ptr<const FeatureSpace> features() { return *features_; }

  static std::shared_ptr<synth::CityDataset>* data_;
  static std::shared_ptr<const FeatureSpace>* features_;
  static std::vector<graph::Path>* paths_;
};

std::shared_ptr<synth::CityDataset>* EngineTest::data_ = nullptr;
std::shared_ptr<const FeatureSpace>* EngineTest::features_ = nullptr;
std::vector<graph::Path>* EngineTest::paths_ = nullptr;

TEST_F(EngineTest, RowsAreBitwiseEqualToAutogradEncode) {
  // d_hidden 16 gives whole 16-column gate panels; 10 adds the 8-column
  // and scalar column tails of the avx2 GEMM.
  for (kern::Kernel k : Kernels()) {
    ScopedKernel pin(k);
    for (int d_hidden : {16, 10}) {
      for (Aggregation agg :
           {Aggregation::kMean, Aggregation::kMax, Aggregation::kLast}) {
        TemporalPathEncoder encoder(features(), Config(d_hidden, agg));
        const auto packed = encoder.PackWeights();
        ASSERT_NE(packed, nullptr);
        for (const auto& items : ItemSets()) {
          const auto plain = encoder.EncodeValueBatch(items);
          const auto fast =
              encoder.EncodeValueBatchCancellable(items, {}, packed.get());
          ASSERT_TRUE(fast.has_value());
          ASSERT_EQ(plain.size(), items.size());
          for (size_t i = 0; i < items.size(); ++i) {
            nn::NoGradGuard no_grad;
            const EncodedPath ref =
                encoder.Encode(*items[i].path, items[i].depart_time_s);
            const std::vector<float> expected(
                ref.tpr.value().data(),
                ref.tpr.value().data() + ref.tpr.value().size());
            SCOPED_TRACE(::testing::Message()
                         << kern::KernelName(k) << " d_h " << d_hidden
                         << " agg " << static_cast<int>(agg) << " B "
                         << items.size() << " item " << i);
            EXPECT_EQ(plain[i], expected);
            EXPECT_EQ((*fast)[i], expected);
            EXPECT_EQ(encoder.EncodeValue(*items[i].path,
                                          items[i].depart_time_s),
                      expected);
          }
        }
      }
    }
  }
}

TEST_F(EngineTest, CancellationIsObservedBetweenLayers) {
  // Polls: before features, before layer 0, before layer 1, before
  // aggregation. Stopping at poll 3 must leave layer 1 unrun: the fused
  // cell counter shows only layer 0's steps.
  obs::SetMetricsEnabled(true);
  TemporalPathEncoder encoder(features(), Config(16, Aggregation::kMean));
  const std::vector<PathTimeItem> items = Items(6);
  size_t t_max = 0;
  for (const auto& item : items) t_max = std::max(t_max, item.path->size());

  for (int stop_at : {1, 2, 3, 4, 0}) {
    obs::ResetAllMetrics();
    int polls = 0;
    const std::function<bool()> cancelled = [&] {
      return ++polls == stop_at;
    };
    const auto out = encoder.EncodeValueBatchCancellable(items, cancelled);
    const uint64_t cells = obs::GetCounter("nn.fused_cell_ops").value();
    SCOPED_TRACE(::testing::Message() << "stop at poll " << stop_at);
    if (stop_at == 0) {
      EXPECT_TRUE(out.has_value());
      EXPECT_EQ(polls, 4);
      EXPECT_EQ(cells, 2 * t_max);
      continue;
    }
    EXPECT_FALSE(out.has_value());
    EXPECT_EQ(polls, stop_at);
    const size_t layers_run = stop_at <= 2 ? 0 : stop_at - 2;
    EXPECT_EQ(cells, layers_run * t_max);
  }
}

TEST_F(EngineTest, LedgerCountsEveryGemmAndCellStep) {
  // One input GEMM per layer plus one recurrent GEMM per step after the
  // first, over exactly the rows still active.
  obs::SetMetricsEnabled(true);
  obs::ResetAllMetrics();
  const int h = 16;
  TemporalPathEncoder encoder(features(), Config(h, Aggregation::kMean));
  const graph::Path& long_path = (*paths_)[0];
  const graph::Path one{long_path.front()};
  ASSERT_GT(long_path.size(), 1u);
  const std::vector<PathTimeItem> items{{&long_path, 0}, {&one, 0}};
  (void)encoder.EncodeValueBatch(items);
  const uint64_t T = long_path.size();
  const uint64_t rows = T + 1;
  const uint64_t in = static_cast<uint64_t>(encoder.input_dim());
  const uint64_t n4 = 4 * h;
  EXPECT_EQ(obs::GetCounter("nn.matmul_ops").value(), 2 * T);
  EXPECT_EQ(obs::GetCounter("nn.matmul_flops").value(),
            2 * rows * in * n4 + 2 * rows * h * n4 +
                2 * 2 * (T - 1) * h * n4);
  EXPECT_EQ(obs::GetCounter("nn.fused_cell_ops").value(), 2 * T);
}

TEST_F(EngineTest, SteadyStateMakesNoSystemAllocations) {
  TemporalPathEncoder encoder(features(), Config(16, Aggregation::kMean));
  const auto packed = encoder.PackWeights();
  const FeatureTables tables = TablesOf(encoder);
  const std::vector<PathTimeItem> items = Items(33);
  std::vector<float> out(items.size() * 16);
  for (kern::Kernel k : Kernels()) {
    ScopedKernel pin(k);
    const auto run = [&] {
      ASSERT_TRUE(EncodeLstm(*packed, *features(), tables, Aggregation::kMean,
                             items.data(), static_cast<int>(items.size()),
                             nullptr, out.data()));
    };
    // Warm-up: grows the thread-local scratch, then recycles the avx2
    // W_ih panel buffer once, so the arena's hit path is initialised.
    run();
    run();
    const kern::ArenaStats before = kern::ThreadArenaStats();
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < 3; ++i) run();
    g_count_allocs.store(false);
    const kern::ArenaStats after = kern::ThreadArenaStats();
    EXPECT_EQ(g_alloc_count.load(), 0u) << kern::KernelName(k);
    EXPECT_EQ(after.misses, before.misses) << kern::KernelName(k);
    EXPECT_EQ(after.alloc_bytes, before.alloc_bytes) << kern::KernelName(k);
  }
}

TEST_F(EngineTest, QuantizedBatchRowsEqualQuantizedEncodeValue) {
  TemporalPathEncoder encoder(features(), Config(16, Aggregation::kMean));
  auto model = quant::QuantizeEncoder(encoder, Items(8));
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const quant::QuantizedEncoder twin(features(), *std::move(model));
  for (kern::Kernel k : Kernels()) {
    ScopedKernel pin(k);
    for (const auto& items : ItemSets()) {
      const auto batch = twin.EncodeValueBatch(items);
      ASSERT_EQ(batch.size(), items.size());
      for (size_t i = 0; i < items.size(); ++i) {
        EXPECT_EQ(batch[i],
                  twin.EncodeValue(*items[i].path, items[i].depart_time_s))
            << kern::KernelName(k) << " B " << items.size() << " item " << i;
      }
    }
  }
}

}  // namespace
}  // namespace tpr::core
