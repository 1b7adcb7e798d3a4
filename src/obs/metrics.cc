#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace stratus {
namespace obs {

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

size_t Counter::CellIndex() {
  static std::atomic<size_t> next_slot{0};
  thread_local const size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

namespace {

/// Bucket b holds values in [2^(b-1), 2^b); bucket 0 holds 0us. Values at or
/// above 2^62 all land in the last bucket (bit_width would index past the
/// array for them).
inline size_t BucketFor(uint64_t us) {
  return std::min(static_cast<size_t>(std::bit_width(us)),
                  LatencyHistogram::kBuckets - 1);
}

inline double BucketLow(size_t b) {
  return b == 0 ? 0.0 : static_cast<double>(1ull << (b - 1));
}

inline double BucketHigh(size_t b) {
  return b == 0 ? 1.0 : static_cast<double>(1ull << b);
}

}  // namespace

void LatencyHistogram::Record(uint64_t value_us) {
  buckets_[BucketFor(value_us)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(value_us, std::memory_order_relaxed);
  uint64_t prev = max_us_.load(std::memory_order_relaxed);
  while (prev < value_us &&
         !max_us_.compare_exchange_weak(prev, value_us,
                                        std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::Average() const {
  const uint64_t n = Count();
  return n == 0 ? 0.0 : static_cast<double>(SumUs()) / static_cast<double>(n);
}

double LatencyHistogram::Percentile(double p) const {
  std::array<uint64_t, kBuckets> counts;
  uint64_t total = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) return 0.0;
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  const double rank = p / 100.0 * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (counts[b] == 0) continue;
    if (static_cast<double>(seen + counts[b]) >= rank) {
      // Linear interpolation inside the bucket's value range.
      const double into =
          counts[b] == 0
              ? 0.0
              : (rank - static_cast<double>(seen)) / static_cast<double>(counts[b]);
      const double lo = BucketLow(b);
      const double hi = std::min(BucketHigh(b),
                                 static_cast<double>(MaxUs() == 0 ? 1 : MaxUs()));
      return lo + (std::max(hi, lo) - lo) * std::clamp(into, 0.0, 1.0);
    }
    seen += counts[b];
  }
  return static_cast<double>(MaxUs());
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_us_.store(0, std::memory_order_relaxed);
  max_us_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

namespace {

Labels Canonicalize(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::string SeriesKey(std::string_view name, const Labels& canonical) {
  std::string key(name);
  for (const auto& [k, v] : canonical) {
    key.push_back('|');
    key.append(k);
    key.push_back('=');
    key.append(v);
  }
  return key;
}

std::string RenderLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out.append(k);
    out.append("=\"");
    out.append(v);
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

std::string FmtDouble(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

}  // namespace

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* global = new MetricsRegistry();
  return *global;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(std::string_view name,
                                                      const Labels& labels,
                                                      Kind kind) {
  const Labels canonical = Canonicalize(labels);
  const std::string key = SeriesKey(name, canonical);
  Shard& shard = shards_[std::hash<std::string>{}(key) % kMapShards];
  std::lock_guard<std::mutex> g(shard.mu);
  for (const auto& e : shard.entries) {
    if (e->name == name && e->labels == canonical) {
      // A name+labels pair identifies one series; silently creating a second
      // series of another kind would emit duplicate names in the exposition.
      if (e->kind != kind) {
        std::fprintf(stderr,
                     "MetricsRegistry: series \"%s\" already registered with a "
                     "different kind\n",
                     key.c_str());
        std::abort();
      }
      return e.get();
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->labels = canonical;
  entry->kind = kind;
  switch (kind) {
    case Kind::kCounter:
      entry->counter = std::make_unique<obs::Counter>();
      break;
    case Kind::kGauge:
      entry->gauge = std::make_unique<obs::Gauge>();
      break;
    case Kind::kHistogram:
      entry->histogram = std::make_unique<obs::LatencyHistogram>();
      break;
  }
  shard.entries.push_back(std::move(entry));
  return shard.entries.back().get();
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     const Labels& labels) {
  return FindOrCreate(name, labels, Kind::kCounter)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, const Labels& labels) {
  return FindOrCreate(name, labels, Kind::kGauge)->gauge.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(std::string_view name,
                                                const Labels& labels) {
  return FindOrCreate(name, labels, Kind::kHistogram)->histogram.get();
}

uint64_t MetricsRegistry::AddCallback(std::function<void(MetricsSink*)> fn) {
  std::lock_guard<std::mutex> g(callbacks_mu_);
  const uint64_t id = next_callback_id_++;
  callbacks_.emplace_back(id, std::move(fn));
  return id;
}

void MetricsRegistry::RemoveCallback(uint64_t id) {
  std::lock_guard<std::mutex> g(callbacks_mu_);
  callbacks_.erase(
      std::remove_if(callbacks_.begin(), callbacks_.end(),
                     [id](const auto& c) { return c.first == id; }),
      callbacks_.end());
}

/// One exported series, flattened for sorting/rendering.
struct MetricsRegistry::Rendered {
  std::string name;
  Labels labels;
  Kind kind;
  double value = 0;  // Counter/Gauge.
  // Histogram summary columns.
  uint64_t count = 0;
  uint64_t sum_us = 0;
  uint64_t max_us = 0;
  double p50 = 0, p95 = 0, p99 = 0;

  bool operator<(const Rendered& o) const {
    if (name != o.name) return name < o.name;
    return labels < o.labels;
  }
};

namespace {

/// Adapter collecting callback output into the flattened series list.
class CollectingSink : public MetricsSink {
 public:
  explicit CollectingSink(std::vector<MetricsRegistry::Rendered>* out)
      : out_(out) {}

  void Counter(std::string_view name, const Labels& labels,
               uint64_t value) override {
    auto& r = out_->emplace_back();
    r.name = std::string(name);
    r.labels = Canonicalize(labels);
    r.kind = MetricsRegistry::Kind::kCounter;
    r.value = static_cast<double>(value);
  }

  void Gauge(std::string_view name, const Labels& labels,
             double value) override {
    auto& r = out_->emplace_back();
    r.name = std::string(name);
    r.labels = Canonicalize(labels);
    r.kind = MetricsRegistry::Kind::kGauge;
    r.value = value;
  }

 private:
  std::vector<MetricsRegistry::Rendered>* out_;
};

}  // namespace

void MetricsRegistry::Collect(std::vector<Rendered>* out) const {
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> g(shard.mu);
    for (const auto& e : shard.entries) {
      auto& r = out->emplace_back();
      r.name = e->name;
      r.labels = e->labels;
      r.kind = e->kind;
      switch (e->kind) {
        case Kind::kCounter:
          r.value = static_cast<double>(e->counter->Value());
          break;
        case Kind::kGauge:
          r.value = static_cast<double>(e->gauge->Value());
          break;
        case Kind::kHistogram:
          r.count = e->histogram->Count();
          r.sum_us = e->histogram->SumUs();
          r.max_us = e->histogram->MaxUs();
          r.p50 = e->histogram->Percentile(50);
          r.p95 = e->histogram->Percentile(95);
          r.p99 = e->histogram->Percentile(99);
          break;
      }
    }
  }
  {
    CollectingSink sink(out);
    std::lock_guard<std::mutex> g(callbacks_mu_);
    for (const auto& [id, fn] : callbacks_) fn(&sink);
  }
  std::sort(out->begin(), out->end());
}

std::string MetricsRegistry::ExportText() const {
  std::vector<Rendered> series;
  Collect(&series);
  std::string out;
  out.reserve(series.size() * 64);
  for (const Rendered& r : series) {
    const std::string labels = RenderLabels(r.labels);
    switch (r.kind) {
      case Kind::kCounter:
      case Kind::kGauge:
        out += r.name + labels + " " + FmtDouble(r.value) + "\n";
        break;
      case Kind::kHistogram: {
        const auto line = [&](const char* suffix, const std::string& value) {
          out += r.name;
          out += suffix;
          out += labels;
          out.push_back(' ');
          out += value;
          out.push_back('\n');
        };
        line("_count", std::to_string(r.count));
        line("_sum_us", std::to_string(r.sum_us));
        line("_p50_us", FmtDouble(r.p50));
        line("_p95_us", FmtDouble(r.p95));
        line("_p99_us", FmtDouble(r.p99));
        line("_max_us", std::to_string(r.max_us));
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::ExportJson() const {
  std::vector<Rendered> series;
  Collect(&series);
  std::string out = "[\n";
  bool first = true;
  for (const Rendered& r : series) {
    if (!first) out += ",\n";
    first = false;
    out += "  {\"name\":\"" + JsonEscape(r.name) + "\",\"labels\":{";
    bool first_label = true;
    for (const auto& [k, v] : r.labels) {
      if (!first_label) out.push_back(',');
      first_label = false;
      out += "\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
    }
    out += "},";
    switch (r.kind) {
      case Kind::kCounter:
        out += "\"type\":\"counter\",\"value\":" + FmtDouble(r.value) + "}";
        break;
      case Kind::kGauge:
        out += "\"type\":\"gauge\",\"value\":" + FmtDouble(r.value) + "}";
        break;
      case Kind::kHistogram:
        out += "\"type\":\"histogram\",\"count\":" + std::to_string(r.count) +
               ",\"sum_us\":" + std::to_string(r.sum_us) +
               ",\"p50_us\":" + FmtDouble(r.p50) +
               ",\"p95_us\":" + FmtDouble(r.p95) +
               ",\"p99_us\":" + FmtDouble(r.p99) +
               ",\"max_us\":" + std::to_string(r.max_us) + "}";
        break;
    }
  }
  out += "\n]\n";
  return out;
}

size_t MetricsRegistry::SeriesCount() const {
  std::vector<Rendered> series;
  Collect(&series);
  return series.size();
}

void ExportBuildInfo(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  Labels labels;
  labels.emplace_back("version", "0.6.0");
#if defined(__clang__)
  labels.emplace_back("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  labels.emplace_back("compiler", "gcc " __VERSION__);
#else
  labels.emplace_back("compiler", "unknown");
#endif
#ifdef NDEBUG
  labels.emplace_back("build", "release");
  labels.emplace_back("ndebug", "1");
#else
  labels.emplace_back("build", "debug");
  labels.emplace_back("ndebug", "0");
#endif
#ifdef STRATUS_CHAOS_POINTS
  labels.emplace_back("chaos_points", "on");
#else
  labels.emplace_back("chaos_points", "off");
#endif
  registry->GetGauge("stratus_build_info", labels)->Set(1);
}

// ---------------------------------------------------------------------------
// JSON helpers
// ---------------------------------------------------------------------------

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonScn(Scn scn) {
  return scn == kInvalidScn ? std::string("null") : std::to_string(scn);
}

}  // namespace obs
}  // namespace stratus
