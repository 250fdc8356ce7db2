#ifndef HCM_BENCH_E2E_TRACER_H_
#define HCM_BENCH_E2E_TRACER_H_

// In-memory wall-clock spans recorded by the benchmark around its calls
// into each layer's public functions. Spans nest per thread; a span opened
// at depth 0 on a simulation worker thread takes the main thread's open
// span as its parent, so work the parallel engine runs on its workers is
// attributed to the RunFor call that drove it. A layer's self time is its
// spans' durations minus the part of each interval its child spans cover.
//
// Recording is off unless enabled; a disabled span costs one relaxed load.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hcm::bench_e2e {

enum class Layer : uint8_t {
  // Benchmark glue: the timed phases of an iteration and the benchmark's
  // own trace observer; a phase's self time is glue between layer calls.
  kSetupPhase,
  kRunPhase,
  kVerdictPhase,
  kRecoverPhase,
  kObserve,
  // Program layers, named after the repo's modules.
  kRisSeed,
  kToolkitConfigure,
  kSpecSuggest,
  kToolkitInstall,
  kSimSchedule,
  kSimRun,
  kRisAppWrite,
  kStorageCheckpoint,
  kStorageRecover,
  kTraceFinish,
  kTraceValidCheck,
  kTraceGuaranteeCheck,
  kTraceStreamSink,
  kCount,
};
constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);

const char* LayerName(Layer layer);
// True for the benchmark's own glue (excluded from the layer sum).
bool IsBenchLayer(Layer layer);

// Per-iteration analysis of the recorded spans.
struct IterationProfile {
  std::array<double, kNumLayers> self_s{};  // summed self time per layer
  std::array<double, kNumLayers> max_s{};   // longest single span per layer
  double phases_s = 0;  // summed duration of the top-level (phase) spans
  // Self time of each kRisAppWrite span, in microseconds.
  std::vector<double> app_write_us;
};

class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Starts recording; the calling thread becomes the main thread.
  void Begin();
  // Stops recording, analyses the spans recorded since Begin, and keeps
  // them (replacing any earlier ones) for WriteLast.
  IterationProfile End();

  // Writes the spans kept by the last End as TSV:
  // id, parent, thread, layer, start_ns, end_ns, self_ns.
  bool WriteLast(const std::string& path) const;

  // Span bookkeeping; use ScopedSpan.
  uint64_t Open(Layer layer);
  void Close(uint64_t id);

 private:
  struct Raw {
    int64_t start_ns;
    int64_t end_ns;
    uint64_t parent;  // kNone or (thread << 32 | index)
    Layer layer;
  };
  struct ThreadBuf {
    uint32_t index = 0;
    bool main = false;
    std::vector<Raw> spans;
    std::vector<uint64_t> stack;
  };
  struct Flat {
    int64_t start_ns;
    int64_t end_ns;
    int64_t self_ns;
    int64_t parent;
    uint32_t thread;
    Layer layer;
  };

  ThreadBuf* Local();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> main_top_{~0ull};
  std::mutex mu_;  // guards bufs_ registration
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  std::vector<Flat> last_;
};

// RAII span: records [construction, destruction) under `layer` when the
// tracer is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer)
      : id_(Tracer::Get().enabled() ? Tracer::Get().Open(layer) : kOff) {}
  ~ScopedSpan() {
    if (id_ != kOff) Tracer::Get().Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static constexpr uint64_t kOff = ~0ull;
  uint64_t id_;
};

}  // namespace hcm::bench_e2e

#endif  // HCM_BENCH_E2E_TRACER_H_
