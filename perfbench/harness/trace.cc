#include "trace.h"

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

/// One recorded interval. Spans nest per thread: `parent` is the index of the
/// enclosing span in the same thread's buffer (-1 for a root). Children inherit
/// their root's request id.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

struct ThreadSpans {
  uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<int64_t> open;  // Stack of open span indices.
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_threads;  // Guarded by g_mu.

ThreadSpans* Local() {
  thread_local ThreadSpans* local = nullptr;
  if (local == nullptr) {
    auto owned = std::make_unique<ThreadSpans>();
    owned->spans.reserve(1 << 16);
    std::lock_guard<std::mutex> g(g_mu);
    owned->thread = static_cast<uint32_t>(g_threads.size());
    local = owned.get();
    g_threads.push_back(std::move(owned));
  }
  return local;
}

}  // namespace

uint64_t ClockNs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }

void Tracer::Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(const char* name, uint64_t request) {
  if (!Tracer::enabled()) return;
  ThreadSpans* t = Local();
  Span s;
  s.name = name;
  s.parent = t->open.empty() ? -1 : t->open.back();
  s.request = request != 0 || s.parent < 0
                  ? request
                  : t->spans[static_cast<size_t>(s.parent)].request;
  index_ = static_cast<int64_t>(t->spans.size());
  t->open.push_back(index_);
  s.start_ns = NowNs();
  t->spans.push_back(s);
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) return;
  ThreadSpans* t = Local();
  t->spans[static_cast<size_t>(index_)].end_ns = NowNs();
  t->open.pop_back();
}

std::vector<SpanRollup> Tracer::Rollup() {
  std::map<std::string, SpanRollup> by_name;
  std::lock_guard<std::mutex> g(g_mu);
  for (const auto& t : g_threads) {
    std::vector<uint64_t> child_ns(t->spans.size(), 0);
    for (const Span& s : t->spans) {
      if (s.parent >= 0 && s.end_ns >= s.start_ns)
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < t->spans.size(); ++i) {
      const Span& s = t->spans[i];
      if (s.end_ns < s.start_ns) continue;  // Still open.
      SpanRollup& r = by_name[s.name];
      r.name = s.name;
      const uint64_t dur = s.end_ns - s.start_ns;
      r.count += 1;
      r.total_ns += dur;
      r.self_ns += dur > child_ns[i] ? dur - child_ns[i] : 0;
    }
  }
  std::vector<SpanRollup> out;
  for (auto& [name, r] : by_name) out.push_back(r);
  return out;
}

bool Tracer::WriteCsv(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,index,parent,request,name,start_ns,end_ns\n");
  std::lock_guard<std::mutex> g(g_mu);
  for (const auto& t : g_threads) {
    for (size_t i = 0; i < t->spans.size(); ++i) {
      const Span& s = t->spans[i];
      std::fprintf(f, "%u,%zu,%lld,%llu,%s,%llu,%llu\n", t->thread, i,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
