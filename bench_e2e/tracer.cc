#include "tracer.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>

namespace hcm::bench_e2e {
namespace {

constexpr uint64_t kNone = ~0ull;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr std::array<const char*, kNumLayers> kLayerNames = {
    "bench.setup",
    "bench.run",
    "bench.verdict",
    "bench.recover",
    "bench.observe",
    "ris.seed",
    "toolkit.configure",
    "spec.suggest",
    "toolkit.install",
    "sim.schedule",
    "sim.run",
    "ris.app_write",
    "storage.checkpoint",
    "storage.recover",
    "trace.finish",
    "trace.valid_check",
    "trace.guarantee_check",
    "trace.stream_sink",
};

thread_local void* tls_buf = nullptr;

}  // namespace

const char* LayerName(Layer layer) {
  return kLayerNames[static_cast<size_t>(layer)];
}

bool IsBenchLayer(Layer layer) { return layer <= Layer::kObserve; }

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadBuf* Tracer::Local() {
  if (tls_buf == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    auto buf = std::make_unique<ThreadBuf>();
    buf->index = static_cast<uint32_t>(bufs_.size());
    tls_buf = buf.get();
    bufs_.push_back(std::move(buf));
  }
  return static_cast<ThreadBuf*>(tls_buf);
}

void Tracer::Begin() {
  Local()->main = true;
  main_top_.store(kNone, std::memory_order_release);
  enabled_.store(true, std::memory_order_release);
}

uint64_t Tracer::Open(Layer layer) {
  ThreadBuf* b = Local();
  uint64_t parent = kNone;
  if (!b->stack.empty()) {
    parent = b->stack.back();
  } else if (!b->main) {
    parent = main_top_.load(std::memory_order_acquire);
  }
  uint64_t id = (static_cast<uint64_t>(b->index) << 32) | b->spans.size();
  b->spans.push_back(Raw{NowNs(), 0, parent, layer});
  b->stack.push_back(id);
  if (b->main) main_top_.store(id, std::memory_order_release);
  return id;
}

void Tracer::Close(uint64_t id) {
  ThreadBuf* b = Local();
  b->spans[id & 0xffffffffu].end_ns = NowNs();
  b->stack.pop_back();
  if (b->main) {
    main_top_.store(b->stack.empty() ? kNone : b->stack.back(),
                      std::memory_order_release);
  }
}

IterationProfile Tracer::End() {
  enabled_.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<size_t> offset(bufs_.size() + 1, 0);
  for (size_t i = 0; i < bufs_.size(); ++i) {
    offset[i + 1] = offset[i] + bufs_[i]->spans.size();
  }
  std::vector<Flat> flat;
  flat.reserve(offset.back());
  for (const auto& buf : bufs_) {
    for (const Raw& r : buf->spans) {
      int64_t parent = -1;
      if (r.parent != kNone) {
        parent = static_cast<int64_t>(offset[r.parent >> 32] +
                                      (r.parent & 0xffffffffu));
      }
      flat.push_back(Flat{r.start_ns, r.end_ns, r.end_ns - r.start_ns, parent,
                          buf->index, r.layer});
    }
    buf->spans.clear();
  }

  // Self time: subtract the union of each span's child intervals, clipped
  // to the span (children on worker threads may overlap one another).
  struct Child {
    int64_t parent;
    int64_t start;
    int64_t end;
  };
  std::vector<Child> children;
  children.reserve(flat.size());
  for (const Flat& f : flat) {
    if (f.parent >= 0) {
      children.push_back(Child{f.parent, f.start_ns, f.end_ns});
    }
  }
  std::sort(children.begin(), children.end(),
            [](const Child& a, const Child& b) {
              return a.parent != b.parent ? a.parent < b.parent
                                          : a.start < b.start;
            });
  for (size_t i = 0; i < children.size();) {
    Flat& p = flat[static_cast<size_t>(children[i].parent)];
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = 0;
    bool open = false;
    size_t j = i;
    for (; j < children.size() && children[j].parent == children[i].parent;
         ++j) {
      int64_t s = std::max(children[j].start, p.start_ns);
      int64_t e = std::min(children[j].end, p.end_ns);
      if (e <= s) continue;
      if (open && s <= run_end) {
        run_end = std::max(run_end, e);
      } else {
        if (open) covered += run_end - run_start;
        run_start = s;
        run_end = e;
        open = true;
      }
    }
    if (open) covered += run_end - run_start;
    p.self_ns -= covered;
    i = j;
  }

  IterationProfile profile;
  for (const Flat& f : flat) {
    size_t l = static_cast<size_t>(f.layer);
    profile.self_s[l] += static_cast<double>(f.self_ns) * 1e-9;
    double duration_s = static_cast<double>(f.end_ns - f.start_ns) * 1e-9;
    profile.max_s[l] = std::max(profile.max_s[l], duration_s);
    if (f.parent < 0) profile.phases_s += duration_s;
    if (f.layer == Layer::kRisAppWrite) {
      profile.app_write_us.push_back(static_cast<double>(f.self_ns) * 1e-3);
    }
  }
  last_ = std::move(flat);
  return profile;
}

bool Tracer::WriteLast(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\tthread\tlayer\tstart_ns\tend_ns\tself_ns\n");
  int64_t base = INT64_MAX;
  for (const Flat& s : last_) base = std::min(base, s.start_ns);
  for (size_t i = 0; i < last_.size(); ++i) {
    const Flat& s = last_[i];
    std::fprintf(f, "%zu\t%lld\t%u\t%s\t%lld\t%lld\t%lld\n", i,
                 static_cast<long long>(s.parent), s.thread,
                 LayerName(s.layer), static_cast<long long>(s.start_ns - base),
                 static_cast<long long>(s.end_ns - base),
                 static_cast<long long>(s.self_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace hcm::bench_e2e
