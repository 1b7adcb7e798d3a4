#include "db/standby_link.h"

#include <algorithm>
#include <string>
#include <utility>

#include "db/database.h"

namespace stratus {

StandbyLink::StandbyLink(PrimaryDb* primary, StandbyDb* standby)
    : primary_(primary), standby_(standby) {}

StandbyLink::~StandbyLink() { Stop(); }

void StandbyLink::Start() {
  if (started_) return;
  started_ = true;
  // Cursors first, seeded from disk truth when the standby persists: a
  // persisted position from this process's lifetime resumes shipping where
  // the last shipper left off. Clamped to the log tail — after a cold start
  // the primary's in-memory log is fresh, so a stale persisted seq must not
  // leap past records that were never shipped (the standby's durable
  // watermark dedups the resulting redelivery).
  persist::PersistController* p = standby_->persist();
  for (int t = 0; t < primary_->redo_threads(); ++t) {
    RedoLog* log = primary_->redo_log(t);
    const uint64_t seq =
        p != nullptr
            ? std::min(p->CursorSeq(static_cast<size_t>(t)), log->NextSeq())
            : 0;
    cursor_ids_.push_back(log->RegisterCursor(seq));
  }
  StartShippers();

  obs::LagSources sources;
  sources.primary_scn = [this] { return primary_->current_scn(); };
  sources.shipped_scn = [this] {
    Scn scn = kMaxScn;
    for (int t = 0; t < primary_->redo_threads(); ++t)
      scn = std::min(
          scn, standby_->stream(static_cast<size_t>(t))->DeliveredWatermark());
    return scn == kMaxScn ? kInvalidScn : scn;
  };
  sources.applied_scn = [this] { return standby_->applied_scn(); };
  sources.query_scn = [this] { return standby_->published_query_scn(); };
  const DatabaseOptions& options = standby_->options();
  const std::string db =
      options.standby_name.empty() ? "standby" : options.standby_name;
  lag_monitor_ = std::make_unique<obs::LagMonitor>(
      std::move(sources), standby_->registry(), obs::Labels{{"db", db}},
      options.lag_poll_interval_us);
  lag_monitor_->Start();
  // Standby query profiles stamp their freshness from this monitor.
  standby_->SetLagProbe([this] { return lag_monitor_->Snapshot(); });
}

void StandbyLink::Stop() {
  if (!started_) return;
  started_ = false;
  // Clear the probe before the monitor dies: SetLagProbe synchronizes with
  // in-flight annotate calls, so no query can touch the monitor afterwards.
  standby_->SetLagProbe(nullptr);
  lag_monitor_->Stop();
  lag_monitor_.reset();
  StopShipping();
  for (size_t t = 0; t < cursor_ids_.size(); ++t)
    primary_->redo_log(static_cast<int>(t))->UnregisterCursor(cursor_ids_[t]);
  cursor_ids_.clear();
}

void StandbyLink::StartShippers() {
  const DatabaseOptions& options = standby_->options();
  ShipperOptions shipping = options.shipping;
  // A named standby's channel series carry {standby="<name>"}.
  if (!options.standby_name.empty())
    shipping.channel.peer = options.standby_name;
  if (shipping.channel.registry == nullptr)
    shipping.channel.registry = standby_->registry();
  std::vector<std::unique_ptr<LogShipper>> shippers;
  for (int t = 0; t < primary_->redo_threads(); ++t) {
    const size_t stream = static_cast<size_t>(t);
    if (standby_->persist_enabled()) {
      StandbyDb* db = standby_;
      // Durability gate: the cursor passes a batch only once the standby
      // reports its SCN fsynced, so a standby killed between receive and
      // archive is redelivered that redo after restart instead of losing it.
      shipping.durable_floor = [db, stream] { return db->DurableScn(stream); };
      // Cursor positions as disk truth: every advance lands in the standby's
      // persist metadata (flushed with checkpoints into META).
      shipping.cursor_note = [db, stream](uint64_t seq) {
        persist::PersistController* p = db->persist();
        if (p != nullptr) p->NoteCursorSeq(stream, seq);
      };
    }
    shippers.push_back(std::make_unique<LogShipper>(
        primary_->redo_log(t), standby_->stream(stream), cursor_ids_[stream],
        shipping));
    shippers.back()->Start();
  }
  std::lock_guard<std::mutex> g(shippers_mu_);
  shippers_ = std::move(shippers);
}

void StandbyLink::StopShipping() {
  std::vector<std::unique_ptr<LogShipper>> shippers;
  {
    std::lock_guard<std::mutex> g(shippers_mu_);
    shippers.swap(shippers_);
  }
  for (auto& s : shippers) s->Stop();
}

Status StandbyLink::Restart(RestartMode mode) {
  if (!started_) return Status::FailedPrecondition("standby link not started");
  // Quiesce delivery before the database restarts: the archive tee and the
  // cursor notes run on shipper threads and must not observe a from-disk
  // controller swap, and the fresh shippers below must be the only ones on
  // the streams and cursors.
  StopShipping();
  // The old shippers' channel Stop closed the receive streams; reopen them
  // before the rebuilt pipeline attaches so the merger sees live streams.
  for (int t = 0; t < primary_->redo_threads(); ++t)
    standby_->stream(static_cast<size_t>(t))->Reopen();
  const Status st = standby_->Restart(mode);
  // Reattach either way: the standby keeps receiving while the caller
  // decides what a failed restart means.
  StartShippers();
  return st;
}

void StandbyLink::SetShippingPaused(bool paused) {
  std::lock_guard<std::mutex> g(shippers_mu_);
  for (auto& s : shippers_) s->set_paused(paused);
}

uint64_t StandbyLink::shipped_bytes() const {
  uint64_t total = 0;
  VisitShippers([&total](const LogShipper& s) { total += s.bytes_shipped(); });
  return total;
}

void StandbyLink::VisitShippers(
    const std::function<void(const LogShipper&)>& visit) const {
  std::lock_guard<std::mutex> g(shippers_mu_);
  for (const auto& s : shippers_) visit(*s);
}

void StandbyLink::ExportTransportMetrics(
    const std::vector<const StandbyLink*>& links, obs::MetricsSink* sink) {
  const obs::Labels labels{{"role", "transport"}};
  uint64_t bytes = 0, records = 0;
  for (const StandbyLink* link : links) {
    link->VisitShippers([&](const LogShipper& s) {
      bytes += s.bytes_shipped();
      records += s.records_shipped();
      s.channel()->ExportMetrics(sink, labels);
    });
  }
  sink->Counter("stratus_redo_shipped_bytes", labels, bytes);
  sink->Counter("stratus_redo_shipped_records", labels, records);
}

}  // namespace stratus
