// Standby benchmark program: one process runs one workload against a fresh
// primary → standby cluster and prints one JSON object as its last stdout
// line (perfbench/run.py turns it into the benchmark's result line).
//
//   standby_bench --workload <scan_quiet|htap_churn|redo_catchup>
//                 --seed <n> --seconds <n> --trace <0|1>
//                 [--setup-only] [--trace-out <file>]
//
// Every call into the program goes through Adapter (adapter.h). See
// perfbench/NOTES.md for why each workload exists and how it was sized.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "adapter.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// --- Sizing (NOTES.md) -------------------------------------------------------
constexpr int64_t kFactRows = 200'000;
constexpr int64_t kDimRows = 1'000;
constexpr size_t kLoadBatch = 512;
constexpr int64_t kGroupKeys = 100;    // n1 domain.
constexpr int64_t kFilterValues = 1'000;  // n3 domain.
constexpr int64_t kRegions = 8;
constexpr int kRedoThreads = 2;
constexpr double kProbeHz = 100.0;
constexpr double kWriterHz = 2'800.0;
constexpr int kBacklogTxns = 20'000;
constexpr int64_t kProbeTimeoutUs = 5'000'000;
constexpr int64_t kDrainTimeoutUs = 60'000'000;
constexpr int64_t kSettleTimeoutUs = 30'000'000;
constexpr uint64_t kLateNs = 1'000'000;

// --- Small helpers -----------------------------------------------------------

/// Deterministic generator (SplitMix64): the same seed gives the same inputs.
/// Kept apart from the program's own Random so that a change to the program
/// never changes the benchmark's inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  int64_t Below(int64_t n) { return static_cast<int64_t>(Next() % static_cast<uint64_t>(n)); }

 private:
  uint64_t s_;
};

std::string Region(int64_t id) { return "region" + std::to_string(id % kRegions); }

Rec FactRec(int64_t id, Rng* rng) {
  Rec r;
  r.id = id;
  r.n1 = rng->Below(kGroupKeys);
  r.n2 = rng->Below(1'000'000);
  r.n3 = rng->Below(kFilterValues);
  r.n4 = rng->Below(kDimRows);
  r.c1 = "c" + std::to_string(1'000'000 + rng->Below(9'000'000));
  return r;
}

Rec DimRec(int64_t id, int64_t version, Rng* rng) {
  Rec r;
  r.id = id;
  r.n1 = version;
  r.n2 = rng->Below(1'000'000);
  r.c1 = Region(id);  // Fixed per key: the join always sees 8 groups.
  return r;
}

double Percentile(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0.0;
  const size_t k = std::min(v.size() - 1,
                            static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return static_cast<double>(v[k]);
}

double Mean(const std::vector<uint64_t>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (uint64_t x : v) s += static_cast<double>(x);
  return s / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void SleepUntil(uint64_t due_ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(due_ns / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(due_ns % 1'000'000'000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

uint64_t ThreadMinorFaults() {
  rusage ru;
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<uint64_t>(ru.ru_minflt);
}

/// Host CPU ticks from /proc/stat: steal and busy (non-idle) time.
struct HostTicks {
  uint64_t steal = 0;
  uint64_t busy = 0;
};

HostTicks ReadHostTicks() {
  HostTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t user = 0, nice = 0, sys = 0, idle = 0, iowait = 0, irq = 0,
           softirq = 0, steal = 0;
  if (in >> cpu >> user >> nice >> sys >> idle >> iowait >> irq >> softirq >> steal) {
    t.steal = steal;
    t.busy = user + nice + sys + irq + softirq + steal;
  }
  return t;
}

// --- Measurement state ---------------------------------------------------------

struct Samples {
  std::mutex mu;
  std::vector<uint64_t> query_ns[3];
  std::vector<uint64_t> leaf_ns[3];   // Traced: direct scan-engine leaf.
  std::vector<uint64_t> exec_ns[3];   // Traced: pinned query − leaf.
  std::vector<uint64_t> query_cpu_ns;
  std::vector<uint64_t> query_minflt;
  uint64_t invalid_rows = 0, rows_imcs = 0, rows_rowstore = 0, tasks = 0;
  uint64_t scan_leaves = 0, rowpath_leaves = 0, queries = 0;

  std::vector<uint64_t> visible_ns;
  std::vector<uint64_t> stage_ns[4];  // Traced probe: ship, dispatch, barrier, publish.

  // Transactions feeding txn_p50_us (the workload's single-row update source).
  std::vector<uint64_t> txn_ns, update_ns, commit_ns;
  uint64_t commits = 0;

  std::vector<uint64_t> lateness_ns;  // Open-loop sends: start − due.

  // Catch-up rounds.
  uint64_t backlog_rows = 0, backlog_txns = 0;
  uint64_t gen_ns = 0, drain_ns = 0, ship_done_ns = 0, dispatch_done_ns = 0;
  std::vector<uint64_t> round_drain_ns;
  Counters drain_delta;  // Summed counter deltas over the drains.

  // Failure accounting.
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;

  void Fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

Counters Delta(const Counters& a, const Counters& b) {
  Counters d;
  d.redo_records = b.redo_records - a.redo_records;
  d.shipped_bytes = b.shipped_bytes - a.shipped_bytes;
  d.dispatched_records = b.dispatched_records - a.dispatched_records;
  for (size_t i = 0; i < b.worker_cvs.size(); ++i)
    d.worker_cvs.push_back(b.worker_cvs[i] -
                           (i < a.worker_cvs.size() ? a.worker_cvs[i] : 0));
  d.advancements = b.advancements - a.advancements;
  d.quiesce_ns = b.quiesce_ns - a.quiesce_ns;
  d.flushed_records = b.flushed_records - a.flushed_records;
  d.cooperative_steps = b.cooperative_steps - a.cooperative_steps;
  d.coordinator_steps = b.coordinator_steps - a.coordinator_steps;
  d.mined_records = b.mined_records - a.mined_records;
  d.ct_inserts = b.ct_inserts - a.ct_inserts;
  d.ct_walk_steps = b.ct_walk_steps - a.ct_walk_steps;
  d.ct_contention = b.ct_contention - a.ct_contention;
  d.journal_contention = b.journal_contention - a.journal_contention;
  d.repopulations = b.repopulations - a.repopulations;
  d.rows_populated = b.rows_populated - a.rows_populated;
  d.row_invalidations = b.row_invalidations - a.row_invalidations;
  return d;
}

void Accumulate(Counters* sum, const Counters& d) {
  sum->redo_records += d.redo_records;
  sum->shipped_bytes += d.shipped_bytes;
  sum->dispatched_records += d.dispatched_records;
  sum->worker_cvs.resize(std::max(sum->worker_cvs.size(), d.worker_cvs.size()), 0);
  for (size_t i = 0; i < d.worker_cvs.size(); ++i) sum->worker_cvs[i] += d.worker_cvs[i];
  sum->advancements += d.advancements;
  sum->quiesce_ns += d.quiesce_ns;
  sum->flushed_records += d.flushed_records;
  sum->cooperative_steps += d.cooperative_steps;
  sum->coordinator_steps += d.coordinator_steps;
  sum->mined_records += d.mined_records;
  sum->ct_inserts += d.ct_inserts;
  sum->ct_walk_steps += d.ct_walk_steps;
  sum->ct_contention += d.ct_contention;
  sum->journal_contention += d.journal_contention;
  sum->repopulations += d.repopulations;
  sum->rows_populated += d.rows_populated;
  sum->row_invalidations += d.row_invalidations;
}

// --- Workload definition -----------------------------------------------------

/// How one workload spends its run: `cycles` × [settle, query slice, rounds].
/// Every workload exercises every metric; each stresses one part (NOTES.md).
/// Alternating slices and rounds makes each metric's samples span the run
/// instead of one stretch of it (host noise comes in bursts).
struct Plan {
  bool writer = false;      ///< Open-loop fact writer beside the client.
  int cycles = 1;
  double query_share = 1;   ///< Of --seconds, summed over the query slices.
  int rounds_per_cycle = 1;
  /// txn_p50_us source: the catch-up backlog's single-row transactions
  /// (otherwise the writer's).
  bool txn_from_backlog = false;
};

bool MakePlan(const std::string& workload, Plan* p) {
  if (workload == "scan_quiet") {
    p->cycles = 4;
    p->txn_from_backlog = true;
  } else if (workload == "htap_churn") {
    // One contiguous slice: the churn's invalidation/repopulation cycle needs
    // seconds to reach its steady state.
    p->writer = true;
    p->rounds_per_cycle = 4;
  } else if (workload == "redo_catchup") {
    p->cycles = 4;
    p->query_share = 0.4;
    p->rounds_per_cycle = 2;
    p->txn_from_backlog = true;
  } else {
    return false;
  }
  return true;
}

/// The query client's seeded parameter stream: each shape does the same
/// amount of work on every call (fixed-width ranges, fixed-selectivity keys).
class SpecStream {
 public:
  explicit SpecStream(uint64_t seed) : rng_(seed ^ 0x51D5ull) {}
  QuerySpec Next() {
    QuerySpec s;
    s.shape = static_cast<Shape>(next_shape_);
    next_shape_ = (next_shape_ + 1) % 3;
    switch (s.shape) {
      case Shape::kScan: s.arg = rng_.Below(kGroupKeys); break;
      case Shape::kGroup: s.arg = rng_.Below(kFilterValues - kGroupRangeWidth + 1); break;
      case Shape::kJoin: s.arg = rng_.Below(kFilterValues - kJoinRangeWidth + 1); break;
    }
    return s;
  }

 private:
  Rng rng_;
  int next_shape_ = 0;
};

const char* ShapeName(int i) {
  static const char* kNames[] = {"scan", "group", "join"};
  return kNames[i];
}

class Bench {
 public:
  Bench(uint64_t seed, bool traced) : seed_(seed), traced_(traced) {}

  /// Construction → loaded, caught up, populated. Returns false on error.
  bool Setup(double* setup_s, std::string* error);
  /// Untimed: waits until repopulation has made every fact row IMCS-served
  /// again, so each query slice starts from a clean column store.
  void Settle();
  void QueryPhase(double seconds, bool writer);
  void Rounds(int rounds, bool txn_from_backlog);
  /// Three-path result oracle at one pinned SCN (+ totals and health).
  void Oracle(bool totals);

  const Samples& samples() const { return s_; }
  Adapter* adapter() { return adapter_.get(); }
  uint64_t oracle_checks() const { return oracle_checks_; }
  uint64_t oracle_mismatches() const { return oracle_mismatches_; }
  double query_phase_s() const { return query_phase_ns_ / 1e9; }
  double settle_s() const { return settle_ns_ / 1e9; }
  const Counters& query_delta() const { return query_delta_; }
  uint64_t im_used_bytes() const { return im_used_bytes_; }

  void Stop() { adapter_.reset(); }

 private:
  void ClientLoop(const std::atomic<bool>* stop);
  void ProbeLoop(const std::atomic<bool>* stop, uint64_t start_ns);
  void WriterLoop(const std::atomic<bool>* stop, uint64_t start_ns);
  void RecordTxn(const TxnOutcome& t);
  bool ProbeVisible(Scn scn, uint64_t commit_ret_ns, uint64_t stage_ns[4]);

  uint64_t seed_;
  bool traced_;
  std::unique_ptr<Adapter> adapter_;
  Samples s_;
  SpecStream specs_{0};
  uint64_t oracle_checks_ = 0, oracle_mismatches_ = 0;
  uint64_t query_phase_ns_ = 0;
  uint64_t settle_ns_ = 0;
  Counters query_delta_;
  uint64_t im_used_bytes_ = 0;
  int64_t probe_version_ = 0;
  Rng backlog_rng_{0};
};

bool Bench::Setup(double* setup_s, std::string* error) {
  // Inputs are generated before the clock starts: set-up time is the
  // program's, not the generator's.
  Rng rng(seed_);
  std::vector<std::vector<Rec>> fact_batches;
  for (int64_t id = 0; id < kFactRows;) {
    std::vector<Rec> batch;
    for (size_t i = 0; i < kLoadBatch && id < kFactRows; ++i, ++id)
      batch.push_back(FactRec(id, &rng));
    fact_batches.push_back(std::move(batch));
  }
  std::vector<Rec> dim_rows;
  for (int64_t id = 0; id < kDimRows; ++id) dim_rows.push_back(DimRec(id, 0, &rng));
  specs_ = SpecStream(seed_);
  backlog_rng_ = Rng(seed_ ^ 0xBAC0ull);

  ScopedSpan span("setup", 1);
  const uint64_t t0 = NowNs();
  adapter_ = std::make_unique<Adapter>(kRedoThreads);
  if (!adapter_->CreateTables(error)) return false;
  int thread = 0;
  for (auto& batch : fact_batches) {
    if (!adapter_->InsertRows(TableId::kFact, std::move(batch), thread, error))
      return false;
    thread = (thread + 1) % kRedoThreads;
  }
  if (!adapter_->InsertRows(TableId::kDim, std::move(dim_rows), 0, error)) return false;
  adapter_->CatchUp();
  if (!adapter_->Populate(error)) return false;
  *setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  im_used_bytes_ = adapter_->ReadCounters().im_used_bytes;
  return true;
}

void Bench::RecordTxn(const TxnOutcome& t) {
  s_.txn_ns.push_back(t.total_ns);
  s_.update_ns.push_back(t.update_ns);
  s_.commit_ns.push_back(t.commit_ns);
}

void Bench::ClientLoop(const std::atomic<bool>* stop) {
  uint64_t request = 1'000'000'000ull;
  while (!stop->load(std::memory_order_relaxed)) {
    const QuerySpec spec = specs_.Next();
    const int shape = static_cast<int>(spec.shape);
    ScopedSpan span(ShapeName(shape), ++request);
    const Scn scn = adapter_->QueryScn();
    const uint64_t cpu0 = ClockNs(CLOCK_THREAD_CPUTIME_ID);
    const uint64_t flt0 = traced_ ? ThreadMinorFaults() : 0;
    const uint64_t t0 = NowNs();
    const QueryOutcome out = adapter_->Query(spec, scn, ReadPath::kStandby);
    const uint64_t t1 = NowNs();
    const uint64_t cpu1 = ClockNs(CLOCK_THREAD_CPUTIME_ID);
    const uint64_t flt1 = traced_ ? ThreadMinorFaults() : 0;
    uint64_t leaf_ns = 0;
    bool leaf_ok = true;
    if (traced_ && out.ok) {
      // The direct leaf must do the plan's work: same rows at the same SCN.
      uint64_t matches = 0;
      const uint64_t l0 = NowNs();
      leaf_ok = adapter_->ScanLeaf(spec, scn, out.fact_leaf_imcs, &matches) &&
                matches == out.fact_leaf_matches;
      leaf_ns = NowNs() - l0;
    }
    std::lock_guard<std::mutex> g(s_.mu);
    ++s_.attempted;
    if (!out.ok || !leaf_ok) {
      s_.Fail(std::string(ShapeName(shape)) + " query: " +
              (out.ok ? "direct scan leaf failed or disagreed with the plan"
                      : out.error));
      continue;
    }
    s_.query_ns[shape].push_back(t1 - t0);
    ++s_.queries;
    s_.invalid_rows += out.invalid_rowpath;
    s_.rows_imcs += out.rows_from_imcs;
    s_.rows_rowstore += out.rows_from_rowstore;
    s_.tasks += out.parallel_tasks;
    s_.scan_leaves += out.scan_leaves;
    s_.rowpath_leaves += out.rowpath_leaves;
    s_.query_cpu_ns.push_back(cpu1 - cpu0);
    if (traced_) {
      s_.query_minflt.push_back(flt1 - flt0);
      s_.leaf_ns[shape].push_back(leaf_ns);
      s_.exec_ns[shape].push_back(t1 - t0 > leaf_ns ? t1 - t0 - leaf_ns : 0);
    }
  }
}

/// Traced probe: spin-polls the pipeline's public watermarks so the latency
/// splits into ship, dispatch, barrier and publish stages.
bool Bench::ProbeVisible(Scn scn, uint64_t commit_ret_ns,
                         uint64_t stage_ns[4]) {
  uint64_t at[4] = {0, 0, 0, 0};
  int stage = 0;
  const uint64_t deadline = commit_ret_ns + kProbeTimeoutUs * 1000ull;
  ScopedSpan span("probe.poll_watermarks");
  while (stage < 4) {
    const Watermarks w = adapter_->ReadWatermarks();
    const uint64_t now = NowNs();
    const Scn marks[4] = {w.delivered, w.dispatched, w.applied, w.query_scn};
    while (stage < 4 && marks[stage] >= scn) at[stage++] = now;
    if (stage == 4) break;
    if (now > deadline) return false;
    std::this_thread::yield();
  }
  uint64_t prev = commit_ret_ns;
  for (int i = 0; i < 4; ++i) {
    stage_ns[i] = at[i] - prev;
    prev = at[i];
  }
  return true;
}

void Bench::ProbeLoop(const std::atomic<bool>* stop, uint64_t start_ns) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  Rng rng(seed_ ^ 0x9B0Bull);
  const double interval_ns = 1e9 / kProbeHz;
  for (uint64_t k = 0;; ++k) {
    const uint64_t due = start_ns + static_cast<uint64_t>(interval_ns * static_cast<double>(k));
    SleepUntil(due);
    if (stop->load(std::memory_order_relaxed)) break;
    const uint64_t started = NowNs();
    ScopedSpan span("probe", 2'000'000'000ull + k);
    const int64_t key = rng.Below(kDimRows);
    const TxnOutcome t = adapter_->Update(
        TableId::kDim, {DimRec(key, ++probe_version_, &rng)},
        static_cast<int>(k % kRedoThreads));
    const uint64_t commit_ret = NowNs();
    bool visible = false;
    uint64_t stages[4] = {0, 0, 0, 0};
    if (t.ok) {
      visible = traced_ ? ProbeVisible(t.commit_scn, commit_ret, stages)
                        : adapter_->WaitVisible(t.commit_scn, kProbeTimeoutUs);
    }
    const uint64_t done = NowNs();
    std::lock_guard<std::mutex> g(s_.mu);
    s_.attempted += 2;  // The transaction and its visibility wait.
    s_.lateness_ns.push_back(started > due ? started - due : 0);
    if (!t.ok) {
      s_.Fail("probe txn: " + t.error);
      continue;
    }
    ++s_.commits;
    if (!visible) {
      s_.Fail("probe visibility wait timed out");
      continue;
    }
    if (traced_) {
      uint64_t total = 0;
      for (int i = 0; i < 4; ++i) {
        s_.stage_ns[i].push_back(stages[i]);
        total += stages[i];
      }
      s_.visible_ns.push_back(total);
    } else {
      s_.visible_ns.push_back(done - commit_ret);
    }
  }
}

void Bench::WriterLoop(const std::atomic<bool>* stop, uint64_t start_ns) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  Rng rng(seed_ ^ 0x3217ull);
  const double interval_ns = 1e9 / kWriterHz;
  for (uint64_t k = 0;; ++k) {
    const uint64_t due = start_ns + static_cast<uint64_t>(interval_ns * static_cast<double>(k));
    SleepUntil(due);  // Returns at once when behind: open loop, no resync.
    if (stop->load(std::memory_order_relaxed)) break;
    const uint64_t started = NowNs();
    ScopedSpan span("writer.txn", 3'000'000'000ull + k);
    const int64_t key = rng.Below(kFactRows);
    const TxnOutcome t = adapter_->Update(TableId::kFact, {FactRec(key, &rng)},
                                          static_cast<int>(k % kRedoThreads));
    std::lock_guard<std::mutex> g(s_.mu);
    ++s_.attempted;
    s_.lateness_ns.push_back(started > due ? started - due : 0);
    if (!t.ok) {
      s_.Fail("writer txn: " + t.error);
      continue;
    }
    ++s_.commits;
    RecordTxn(t);
  }
}

void Bench::Settle() {
  ScopedSpan span("settle");
  const uint64_t t0 = NowNs();
  const uint64_t deadline = t0 + kSettleTimeoutUs * 1000ull;
  bool settled = false;
  for (;;) {
    uint64_t rows = 0;
    if (!adapter_->FactRowStoreRows(&rows)) break;
    if (rows == 0) {
      settled = true;
      break;
    }
    if (NowNs() > deadline) break;
    SleepUntil(NowNs() + 10'000'000);
  }
  settle_ns_ += NowNs() - t0;
  std::lock_guard<std::mutex> g(s_.mu);
  ++s_.attempted;
  if (!settled) s_.Fail("IMCS did not repopulate after catch-up");
}

void Bench::QueryPhase(double seconds, bool writer) {
  // Untimed warm-up: one call of each shape (and its traced leaf).
  for (int i = 0; i < 3; ++i) {
    const QuerySpec spec = specs_.Next();
    const Scn scn = adapter_->QueryScn();
    const QueryOutcome out = adapter_->Query(spec, scn, ReadPath::kStandby);
    uint64_t matches = 0;
    if (traced_ && out.ok) adapter_->ScanLeaf(spec, scn, out.fact_leaf_imcs, &matches);
  }
  const Counters c0 = adapter_->ReadCounters();
  std::atomic<bool> stop{false};
  const uint64_t start = NowNs() + 1'000'000;
  std::vector<std::thread> threads;
  threads.emplace_back([&] { ClientLoop(&stop); });
  threads.emplace_back([&] { ProbeLoop(&stop, start); });
  if (writer) threads.emplace_back([&] { WriterLoop(&stop, start); });
  SleepUntil(start + static_cast<uint64_t>(seconds * 1e9));
  stop.store(true);
  for (auto& t : threads) t.join();
  query_phase_ns_ += NowNs() - start;
  Accumulate(&query_delta_, Delta(c0, adapter_->ReadCounters()));
}

void Bench::Rounds(int rounds, bool txn_from_backlog) {
  for (int r = 0; r < rounds; ++r) {
    // A fixed seeded backlog: 60% 1-row, 30% 8-row, 10% 64-row updates.
    std::vector<std::vector<Rec>> backlog(kBacklogTxns);
    uint64_t rows = 0;
    for (auto& txn : backlog) {
      const int64_t p = backlog_rng_.Below(100);
      const int64_t n = p < 60 ? 1 : p < 90 ? 8 : 64;
      const int64_t base = backlog_rng_.Below(kFactRows);
      for (int64_t i = 0; i < n; ++i)
        txn.push_back(FactRec((base + i * 7'919) % kFactRows, &backlog_rng_));
      rows += static_cast<uint64_t>(n);
    }

    ScopedSpan round_span("round", 4'000'000'000ull + static_cast<uint64_t>(r));
    adapter_->SetShippingPaused(true);
    const uint64_t g0 = NowNs();
    Scn last = 0;
    uint64_t ok_txns = 0;
    for (size_t i = 0; i < backlog.size(); ++i) {
      const TxnOutcome t = adapter_->Update(TableId::kFact, backlog[i],
                                            static_cast<int>(i % kRedoThreads));
      std::lock_guard<std::mutex> g(s_.mu);
      ++s_.attempted;
      if (!t.ok) {
        s_.Fail("backlog txn: " + t.error);
        continue;
      }
      ++ok_txns;
      ++s_.commits;
      last = std::max(last, t.commit_scn);
      if (txn_from_backlog && backlog[i].size() == 1) RecordTxn(t);
    }
    const uint64_t g1 = NowNs();
    const Counters c0 = adapter_->ReadCounters();

    adapter_->SetShippingPaused(false);
    const uint64_t d0 = NowNs();
    uint64_t ship_done = 0, dispatch_done = 0;
    bool drained = false;
    if (traced_) {
      ScopedSpan span("drain.poll_watermarks");
      const uint64_t deadline = d0 + kDrainTimeoutUs * 1000ull;
      for (;;) {
        const Watermarks w = adapter_->ReadWatermarks();
        const uint64_t now = NowNs();
        if (ship_done == 0 && w.shipped_all) ship_done = now;
        if (dispatch_done == 0 && w.dispatched >= last) dispatch_done = now;
        if (w.query_scn >= last) {
          drained = true;
          if (ship_done == 0) ship_done = now;
          if (dispatch_done == 0) dispatch_done = now;
          break;
        }
        if (now > deadline) break;
        timespec ts{0, 50'000};
        nanosleep(&ts, nullptr);
      }
    } else {
      drained = adapter_->WaitVisible(last, kDrainTimeoutUs);
    }
    const uint64_t d1 = NowNs();
    const Counters d = Delta(c0, adapter_->ReadCounters());
    // Untimed maintenance: each round's old row versions are garbage once the
    // standby has caught up, so memory does not grow with the round count.
    adapter_->PruneVersions();

    std::lock_guard<std::mutex> g(s_.mu);
    ++s_.attempted;
    if (!drained) {
      s_.Fail("catch-up drain timed out");
      continue;
    }
    s_.backlog_rows += rows;
    s_.backlog_txns += ok_txns;
    s_.gen_ns += g1 - g0;
    s_.drain_ns += d1 - d0;
    s_.round_drain_ns.push_back(d1 - d0);
    if (traced_) {
      s_.ship_done_ns += ship_done - d0;
      s_.dispatch_done_ns += dispatch_done - d0;
    }
    Accumulate(&s_.drain_delta, d);
  }
}

void Bench::Oracle(bool totals) {
  ScopedSpan span("oracle", 5'000'000'000ull + oracle_checks_);
  const Scn scn = adapter_->QueryScn();
  SpecStream specs(seed_ ^ (0x0AC1Eull + oracle_checks_));
  for (int i = 0; i < 3; ++i) {
    const QuerySpec spec = specs.Next();
    const QueryOutcome a = adapter_->Query(spec, scn, ReadPath::kStandby);
    const QueryOutcome b = adapter_->Query(spec, scn, ReadPath::kStandbyRowStore);
    const QueryOutcome c = adapter_->Query(spec, scn, ReadPath::kPrimary);
    ++oracle_checks_;
    ++s_.attempted;
    if (!a.ok || !b.ok || !c.ok || a.result != b.result || a.result != c.result) {
      ++oracle_mismatches_;
      s_.Fail(std::string("oracle mismatch on ") + ShapeName(i) + " at scn " +
              std::to_string(scn));
    }
  }
  if (totals) {
    // The fact table's COUNT(*) and SUM(n2) agree between the two databases
    // at the final QuerySCN, and no row was lost or duplicated.
    const Scn final_scn = adapter_->CatchUp();
    uint64_t n_sb = 0, n_pr = 0;
    int64_t sum_sb = 0, sum_pr = 0;
    std::string err;
    ++oracle_checks_;
    ++s_.attempted;
    const bool ok =
        adapter_->FactTotals(final_scn, ReadPath::kStandby, &n_sb, &sum_sb, &err) &&
        adapter_->FactTotals(final_scn, ReadPath::kPrimary, &n_pr, &sum_pr, &err);
    if (!ok || n_sb != n_pr || sum_sb != sum_pr ||
        n_sb != static_cast<uint64_t>(kFactRows)) {
      ++oracle_mismatches_;
      s_.Fail("fact totals differ: standby " + std::to_string(n_sb) + "/" +
              std::to_string(sum_sb) + " primary " + std::to_string(n_pr) + "/" +
              std::to_string(sum_pr) + " " + err);
    }
  }
  ++oracle_checks_;
  ++s_.attempted;
  const std::string health = adapter_->HealthProblem();
  if (!health.empty()) {
    ++oracle_mismatches_;
    s_.Fail("standby " + health);
  }
}

// --- Output --------------------------------------------------------------------

std::string Quote(const std::string& v) {
  std::string e = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') e += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) e += c;
  }
  return e + "\"";
}

/// A flat JSON object builder; values are printed with all their digits.
class Json {
 public:
  void Num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    Raw(k, buf);
  }
  void Str(const std::string& k, const std::string& v) { Raw(k, Quote(v)); }
  void Raw(const std::string& k, const std::string& v) {
    out_ += (out_.empty() ? "{" : ",");
    out_ += Quote(k) + ":" + v;
  }
  std::string Close() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

double Ms(double ns) { return ns / 1e6; }
double Us(double ns) { return ns / 1e3; }
double P50(const std::vector<uint64_t>& v) { return Percentile(v, 0.5); }
double D(uint64_t v) { return static_cast<double>(v); }

/// Process-level facts over the measured part of the run (after set-up).
struct RunTotals {
  Counters delta;  ///< Counter deltas over the run.
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
  double steal_share = 0;
};

std::string EndToEnd(const Bench& b, double setup_s) {
  const Samples& s = b.samples();
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  Json j;
  j.Num("setup_s", setup_s);
  j.Num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  j.Num("txn_p50_us", Us(P50(s.txn_ns)));
  j.Num("visible_p50_ms", Ms(P50(s.visible_ns)));
  j.Num("scan_p50_ms", Ms(P50(s.query_ns[0])));
  j.Num("group_p50_ms", Ms(P50(s.query_ns[1])));
  j.Num("join_p50_ms", Ms(P50(s.query_ns[2])));
  j.Num("apply_rows_per_s", Ratio(D(s.backlog_rows), s.drain_ns / 1e9));
  return j.Close();
}

/// Tails, throughput and lateness, each with its sample count. Not end-to-end
/// metrics: on a shared host their run-to-run spread is too wide (NOTES.md).
Json Info(const Bench& b) {
  const Samples& s = b.samples();
  Json j;
  auto tail = [&j](const std::string& name, const std::vector<uint64_t>& v,
                   double scale) {
    j.Num(name + "_n", D(v.size()));
    j.Num(name + "_p90", Percentile(v, 0.90) / scale);
    j.Num(name + "_p99", Percentile(v, 0.99) / scale);
  };
  for (int i = 0; i < 3; ++i) tail(std::string(ShapeName(i)) + "_ms", s.query_ns[i], 1e6);
  tail("visible_ms", s.visible_ns, 1e6);
  tail("txn_us", s.txn_ns, 1e3);
  j.Num("queries_per_s", Ratio(D(s.queries), b.query_phase_s()));
  tail("send_lateness_us", s.lateness_ns, 1e3);
  j.Num("rounds", D(s.round_drain_ns.size()));
  j.Num("backlog_rows", D(s.backlog_rows));
  j.Num("drain_s", s.drain_ns / 1e9);
  if (!s.round_drain_ns.empty()) {
    const auto [lo, hi] =
        std::minmax_element(s.round_drain_ns.begin(), s.round_drain_ns.end());
    j.Num("round_drain_min_s", *lo / 1e9);
    j.Num("round_drain_max_s", *hi / 1e9);
  }
  j.Num("settle_s", b.settle_s());
  return j;
}

std::string PerLayer(const Bench& b, const RunTotals& run) {
  const Samples& s = b.samples();
  const Counters& dd = s.drain_delta;
  const Counters& qd = b.query_delta();
  const double drain_s = s.drain_ns / 1e9;
  const double query_s = b.query_phase_s();
  const double rows = D(s.backlog_rows);
  const double ktxn = D(s.backlog_txns) / 1e3;
  const double queries = D(s.queries);
  double cv_max = 0, cv_sum = 0;
  for (uint64_t c : dd.worker_cvs) {
    cv_max = std::max(cv_max, D(c));
    cv_sum += D(c);
  }
  uint64_t late = 0;
  for (uint64_t l : s.lateness_ns) late += l > kLateNs ? 1 : 0;
  double leaf_ms = 0, exec_ms = 0;  // Mean over the shapes of their p50s.
  for (int i = 0; i < 3; ++i) {
    leaf_ms += Ms(P50(s.leaf_ns[i])) / 3;
    exec_ms += Ms(P50(s.exec_ns[i])) / 3;
  }

  Json j;
  j.Num("txn.update_us", Us(P50(s.update_ns)));
  j.Num("txn.commit_us", Us(P50(s.commit_ns)));
  j.Num("redo.records_per_txn", Ratio(D(run.delta.redo_records), D(s.commits)));
  j.Num("gen.rows_per_s", Ratio(rows, s.gen_ns / 1e9));
  j.Num("gen.late_share", Ratio(D(late), D(s.lateness_ns.size())));
  j.Num("net.bytes_per_row", Ratio(D(dd.shipped_bytes), rows));
  j.Num("net.ship_done_share", Ratio(D(s.ship_done_ns), D(s.drain_ns)));
  j.Num("net.visible_ship_ms", Ms(P50(s.stage_ns[0])));
  j.Num("adg.dispatch_done_share", Ratio(D(s.dispatch_done_ns), D(s.drain_ns)));
  j.Num("adg.dispatched_records_per_s", Ratio(D(dd.dispatched_records), drain_s));
  j.Num("adg.worker_skew", Ratio(cv_max, Ratio(cv_sum, D(dd.worker_cvs.size()))));
  j.Num("adg.visible_dispatch_ms", Ms(P50(s.stage_ns[1])));
  j.Num("adg.visible_barrier_ms", Ms(P50(s.stage_ns[2])));
  j.Num("adg.visible_publish_ms", Ms(P50(s.stage_ns[3])));
  j.Num("adg.advances_per_s", Ratio(D(dd.advancements), drain_s));
  j.Num("adg.quiesce_us_per_advance", Ratio(Us(D(dd.quiesce_ns)), D(dd.advancements)));
  j.Num("imadg.flushed_records_per_s", Ratio(D(dd.flushed_records), drain_s));
  j.Num("imadg.cooperative_share",
        Ratio(D(dd.cooperative_steps), D(dd.cooperative_steps + dd.coordinator_steps)));
  j.Num("imadg.mined_records_per_row", Ratio(D(dd.mined_records), rows));
  j.Num("imadg.commit_table_steps_per_insert", Ratio(D(dd.ct_walk_steps), D(dd.ct_inserts)));
  j.Num("imadg.commit_table_contention_per_ktxn", Ratio(D(dd.ct_contention), ktxn));
  j.Num("imadg.journal_contention_per_ktxn", Ratio(D(dd.journal_contention), ktxn));
  j.Num("imcs.scan_ms", leaf_ms);
  j.Num("imcs.invalid_rows_per_query", Ratio(D(s.invalid_rows), queries));
  j.Num("imcs.rowstore_row_share",
        Ratio(D(s.rows_rowstore), D(s.rows_imcs + s.rows_rowstore)));
  j.Num("imcs.tasks_per_query", Ratio(D(s.tasks), queries));
  j.Num("imcs.repopulations_per_s", Ratio(D(qd.repopulations), query_s));
  j.Num("imcs.rows_populated_per_s", Ratio(D(qd.rows_populated), query_s));
  j.Num("imcs.row_invalidations_per_s", Ratio(D(qd.row_invalidations), query_s));
  j.Num("imcs.bytes_per_row", Ratio(D(b.im_used_bytes()), D(kFactRows + kDimRows)));
  j.Num("db.exec_ms", exec_ms);
  j.Num("db.rowpath_plan_share", Ratio(D(s.rowpath_leaves), D(s.scan_leaves)));
  j.Num("proc.query_cpu_ms", Ms(Mean(s.query_cpu_ns)));
  j.Num("proc.query_minflt", Mean(s.query_minflt));
  j.Num("proc.cpu_cores", Ratio(D(run.cpu_ns), D(run.wall_ns)));
  j.Num("host.steal_share", run.steal_share);
  return j.Close();
}

/// Span rollup (count, total, self time per name) and the per-shape split of
/// pinned query time into scan leaf and the rest.
void AddTraceInfo(const Bench& b, Json* info) {
  const Samples& s = b.samples();
  Json self;
  for (const SpanRollup& r : Tracer::Rollup()) {
    Json one;
    one.Num("count", D(r.count));
    one.Num("total_ms", Ms(D(r.total_ns)));
    one.Num("self_ms", Ms(D(r.self_ns)));
    self.Raw(r.name, one.Close());
  }
  info->Raw("span_self_time", self.Close());
  for (int i = 0; i < 3; ++i) {
    info->Num(std::string("leaf_") + ShapeName(i) + "_p50_ms", Ms(P50(s.leaf_ns[i])));
    info->Num(std::string("exec_") + ShapeName(i) + "_p50_ms", Ms(P50(s.exec_ns[i])));
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--setup-only") {
      a->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  Plan plan;
  if (!ParseArgs(argc, argv, &args) || !MakePlan(args.workload, &plan)) {
    std::fprintf(stderr,
                 "usage: standby_bench --workload <scan_quiet|htap_churn|"
                 "redo_catchup> --seed N --seconds N --trace 0|1 "
                 "[--setup-only] [--trace-out FILE]\n");
    return 2;
  }
  Tracer::Enable(args.trace);
  Bench bench(args.seed, args.trace);
  double setup_s = 0;
  std::string error;
  if (!bench.Setup(&setup_s, &error)) {
    std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
    return 1;
  }
  if (args.setup_only) {
    bench.Stop();
    Json j;
    j.Num("setup_s", setup_s);
    std::printf("%s\n", j.Close().c_str());
    return 0;
  }

  const HostTicks h0 = ReadHostTicks();
  const uint64_t cpu0 = ClockNs(CLOCK_PROCESS_CPUTIME_ID);
  const uint64_t wall0 = NowNs();
  const Counters c0 = bench.adapter()->ReadCounters();

  const double slice_s = args.seconds * plan.query_share / plan.cycles;
  for (int c = 0; c < plan.cycles; ++c) {
    const bool last = c + 1 == plan.cycles;
    bench.Settle();
    bench.QueryPhase(slice_s, plan.writer);
    if (last) bench.Oracle(false);
    bench.Rounds(plan.rounds_per_cycle, plan.txn_from_backlog);
    bench.Oracle(last);
  }

  RunTotals run;
  run.delta = Delta(c0, bench.adapter()->ReadCounters());
  run.wall_ns = NowNs() - wall0;
  run.cpu_ns = ClockNs(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  const HostTicks h1 = ReadHostTicks();
  run.steal_share = Ratio(D(h1.steal - h0.steal), D(h1.busy - h0.busy));
  bench.Stop();

  Json info = Info(bench);
  std::string layer = "{}";
  if (args.trace) {
    layer = PerLayer(bench, run);
    AddTraceInfo(bench, &info);
    if (!args.trace_out.empty() && !Tracer::WriteCsv(args.trace_out))
      std::fprintf(stderr, "warning: cannot write %s\n", args.trace_out.c_str());
  }

  Json stamp;
  stamp.Num("hw_threads", D(std::thread::hardware_concurrency()));
  stamp.Str("build_type", PERFBENCH_BUILD_TYPE);
  stamp.Num("seed", D(args.seed));
  stamp.Num("host.steal_share", run.steal_share);
  stamp.Num("cpu_cores", Ratio(D(run.cpu_ns), D(run.wall_ns)));

  const Samples& s = bench.samples();
  std::string failures = "[";
  for (size_t i = 0; i < s.failures.size(); ++i)
    failures += (i ? "," : "") + Quote(s.failures[i]);
  failures += "]";

  Json out;
  out.Str("workload", args.workload);
  out.Raw("e2e", EndToEnd(bench, setup_s));
  out.Raw("layer", layer);
  out.Raw("info", info.Close());
  out.Raw("stamp", stamp.Close());
  out.Num("oracle_checks", D(bench.oracle_checks()));
  out.Num("oracle_mismatches", D(bench.oracle_mismatches()));
  out.Num("attempted", D(s.attempted));
  out.Num("failed", D(s.failed));
  out.Raw("failures", failures);
  std::printf("%s\n", out.Close().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
