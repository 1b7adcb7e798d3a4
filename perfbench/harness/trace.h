#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <time.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// `clock` (CLOCK_MONOTONIC, CLOCK_THREAD_CPUTIME_ID, ...) in nanoseconds.
uint64_t ClockNs(clockid_t clock);
/// Monotonic clock in nanoseconds.
uint64_t NowNs();

/// Per-name rollup: a layer's self time is its spans' time minus the time of
/// their direct children.
struct SpanRollup {
  std::string name;
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

/// In-memory span recorder. Disabled by default; when disabled a ScopedSpan
/// costs one relaxed load. Spans stay in per-thread buffers until the run
/// ends, then Rollup()/WriteCsv() read them (no thread may still record).
class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();
  static std::vector<SpanRollup> Rollup();
  /// One line per span: thread,index,parent,request,name,start_ns,end_ns.
  static bool WriteCsv(const std::string& path);
};

class ScopedSpan {
 public:
  /// `request` 0 inherits the enclosing span's request id.
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
