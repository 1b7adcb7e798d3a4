#ifndef STRATUS_OBS_METRICS_H_
#define STRATUS_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"

namespace stratus {
namespace obs {

/// Label set attached to a series, e.g. {{"role","standby"},{"instance","1"}}.
/// Order does not matter: the registry canonicalizes by sorting on key.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// A monotonically increasing counter, sharded across cache lines so hot
/// paths (redo apply, journal append) can Inc() without bouncing one atomic
/// between every worker thread.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(uint64_t n = 1) {
    cells_[CellIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  static constexpr size_t kShards = 8;
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  static size_t CellIndex();

  std::array<Cell, kShards> cells_;
};

/// A point-in-time value (queue depth, lag, watermark). Signed so deltas that
/// transiently go negative (clock skew between sample points) stay sane.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket (power-of-two, microseconds) latency histogram. Record() is a
/// handful of relaxed atomic ops — cheap enough for per-change-vector hot
/// paths — and percentiles are derived from bucket counts with log-linear
/// interpolation (bounded error, never a sort).
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 64;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void Record(uint64_t value_us);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t SumUs() const { return sum_us_.load(std::memory_order_relaxed); }
  uint64_t MaxUs() const { return max_us_.load(std::memory_order_relaxed); }
  double Average() const;
  /// p in [0,100]. Approximate (bucketed); exact for counts of 0/1 buckets.
  double Percentile(double p) const;

  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_us_{0};
  std::atomic<uint64_t> max_us_{0};
};

/// Receives series from pull callbacks at export time. Components that keep
/// their own per-instance stats structs (BufferCacheStats, FlushStats, …)
/// publish through this instead of duplicating state into registry handles.
class MetricsSink {
 public:
  virtual ~MetricsSink() = default;
  virtual void Counter(std::string_view name, const Labels& labels,
                       uint64_t value) = 0;
  virtual void Gauge(std::string_view name, const Labels& labels,
                     double value) = 0;
};

/// Process-wide registry of named series. Handle lookup (GetCounter & co) is
/// lock-sharded by name hash; the returned pointers are stable for the
/// registry's lifetime, so hot paths resolve their handle once and then
/// touch only the handle's atomics.
///
/// Two publication styles coexist:
///  - owned handles (GetCounter/GetGauge/GetHistogram) for new
///    instrumentation recorded in place, and
///  - pull callbacks (AddCallback) for the pre-existing *Stats snapshot
///    structs, which stay the per-component source of truth and are read out
///    only when somebody exports.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (what DatabaseOptions defaults to).
  static MetricsRegistry& Global();

  /// Finds or creates a series. Same (name, labels) → same handle, so
  /// sequentially created clusters keep appending to one series rather than
  /// colliding.
  Counter* GetCounter(std::string_view name, const Labels& labels = {});
  Gauge* GetGauge(std::string_view name, const Labels& labels = {});
  LatencyHistogram* GetHistogram(std::string_view name,
                                 const Labels& labels = {});

  /// Registers a pull callback invoked during every export. Returns an id
  /// for RemoveCallback. Callbacks run under the registry's callback mutex:
  /// removal never races a running export.
  uint64_t AddCallback(std::function<void(MetricsSink*)> fn);
  void RemoveCallback(uint64_t id);

  /// Prometheus-style text exposition ("name{k=\"v\"} value" lines, sorted).
  /// Histograms expand to _count/_sum_us/_p50_us/_p95_us/_p99_us/_max_us.
  std::string ExportText() const;
  /// The same series as a JSON array of {name, labels, type, ...} objects.
  std::string ExportJson() const;
  /// Number of distinct series the next export would emit (histograms count
  /// once, not once per derived column).
  size_t SeriesCount() const;

  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  /// One exported series, flattened for sorting/rendering (public so the
  /// export machinery in metrics.cc can build them from callbacks).
  struct Rendered;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    Kind kind;
    std::unique_ptr<obs::Counter> counter;
    std::unique_ptr<obs::Gauge> gauge;
    std::unique_ptr<obs::LatencyHistogram> histogram;
  };

  static constexpr size_t kMapShards = 16;
  struct Shard {
    mutable std::mutex mu;
    // Keyed by canonical "name|k=v|k=v" encoding.
    std::vector<std::unique_ptr<Entry>> entries;
  };

  Entry* FindOrCreate(std::string_view name, const Labels& labels, Kind kind);

  void Collect(std::vector<Rendered>* out) const;

  std::array<Shard, kMapShards> shards_;

  mutable std::mutex callbacks_mu_;
  uint64_t next_callback_id_ = 1;
  std::vector<std::pair<uint64_t, std::function<void(MetricsSink*)>>> callbacks_;
};

/// Registers the `stratus_build_info` gauge (value always 1) whose labels
/// carry the binary's identifying facts — version, compiler, build type,
/// NDEBUG, chaos points — so dashboards can correlate metric streams with
/// the build that produced them. Idempotent: same labels map to one series.
void ExportBuildInfo(MetricsRegistry* registry);

/// RAII holder for an export callback: registers on Attach, removes on
/// destruction (or Reset), so a component's series vanish from exports the
/// moment the component is torn down instead of dangling.
class ScopedMetricsCallback {
 public:
  ScopedMetricsCallback() = default;
  ScopedMetricsCallback(MetricsRegistry* registry,
                        std::function<void(MetricsSink*)> fn) {
    Attach(registry, std::move(fn));
  }
  ~ScopedMetricsCallback() { Reset(); }

  ScopedMetricsCallback(const ScopedMetricsCallback&) = delete;
  ScopedMetricsCallback& operator=(const ScopedMetricsCallback&) = delete;

  void Attach(MetricsRegistry* registry, std::function<void(MetricsSink*)> fn) {
    Reset();
    registry_ = registry;
    id_ = registry_->AddCallback(std::move(fn));
  }

  void Reset() {
    if (registry_ != nullptr) registry_->RemoveCallback(id_);
    registry_ = nullptr;
    id_ = 0;
  }

 private:
  MetricsRegistry* registry_ = nullptr;
  uint64_t id_ = 0;
};

/// Escapes `s` for a JSON string body: quote, backslash and every control
/// character (\n, \r, \t, else \u00XX). Shared by every JSON exporter: the
/// registry's ExportJson, the introspection views and the query profiles.
std::string JsonEscape(std::string_view s);

/// An SCN as a JSON value: its number, or `null` for kInvalidScn.
std::string JsonScn(Scn scn);

}  // namespace obs
}  // namespace stratus

#endif  // STRATUS_OBS_METRICS_H_
