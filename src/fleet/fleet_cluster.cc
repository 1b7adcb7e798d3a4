#include "fleet/fleet_cluster.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/clock.h"

namespace stratus {
namespace fleet {

CapacityGate::CapacityGate(const NodeCapacity& capacity)
    : max_qps_(capacity.max_qps),
      slots_(capacity.slots),
      burst_(std::max(1.0, capacity.max_qps / 50.0)),
      tokens_(std::max(1.0, capacity.max_qps / 50.0)) {}

void CapacityGate::Acquire() {
  if (max_qps_ <= 0 && slots_ <= 0) return;
  std::unique_lock<std::mutex> l(mu_);
  for (;;) {
    if (max_qps_ > 0) {
      const uint64_t now = NowMicros();
      if (last_refill_us_ == 0) last_refill_us_ = now;
      tokens_ = std::min(
          burst_, tokens_ + static_cast<double>(now - last_refill_us_) *
                                max_qps_ / 1e6);
      last_refill_us_ = now;
    }
    const bool slot_free = slots_ <= 0 || in_use_ < slots_;
    const bool token_free = max_qps_ <= 0 || tokens_ >= 1.0;
    if (slot_free && token_free) {
      if (max_qps_ > 0) tokens_ -= 1.0;
      ++in_use_;
      return;
    }
    if (!token_free) {
      // Sleep until the bucket accrues the missing fraction of a token.
      const int64_t wait_us = static_cast<int64_t>(
          std::max(50.0, (1.0 - tokens_) * 1e6 / max_qps_));
      cv_.wait_for(l, std::chrono::microseconds(wait_us));
    } else {
      cv_.wait(l);  // Slot-bound: a Release() will wake us.
    }
  }
}

void CapacityGate::Release() {
  if (max_qps_ <= 0 && slots_ <= 0) return;
  {
    std::lock_guard<std::mutex> g(mu_);
    --in_use_;
  }
  cv_.notify_one();
}

StandbyNode::StandbyNode(int id, const DatabaseOptions& options,
                         size_t num_streams, const NodeCapacity& capacity)
    : id_(id),
      name_(options.standby_name),
      db_(options, num_streams),
      gate_(capacity) {}

void StandbyNode::BeginQuery() {
  gate_.Acquire();
  in_flight_.fetch_add(1, std::memory_order_relaxed);
}

void StandbyNode::EndQuery() {
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  served_.fetch_add(1, std::memory_order_relaxed);
  gate_.Release();
}

FleetCluster::FleetCluster(const FleetOptions& options)
    : options_(options), primary_(options.db) {
  registry_ = options_.db.registry != nullptr ? options_.db.registry
                                              : &obs::MetricsRegistry::Global();
  const size_t num_streams =
      static_cast<size_t>(options_.db.primary_redo_threads);
  for (int i = 0; i < options_.num_standbys; ++i) {
    nodes_.push_back(std::make_unique<StandbyNode>(
        i, NodeOptions(i), num_streams, options_.capacity));
  }
}

FleetCluster::~FleetCluster() { Stop(); }

DatabaseOptions FleetCluster::NodeOptions(int i) const {
  DatabaseOptions opts = options_.db;
  opts.registry = registry_;
  if (opts.standby_name.empty()) opts.standby_name = "sb" + std::to_string(i);
  // Each node gets its own durable subtree: the template's data_dir is the
  // fleet root, <root>/<node-name> is the node's PersistController home.
  if (opts.persist.enabled && !opts.persist.data_dir.empty())
    opts.persist.data_dir += "/" + opts.standby_name;
  return opts;
}

void FleetCluster::Start() {
  if (started_) return;
  started_ = true;
  primary_.Start();
  for (auto& node : nodes_) {
    node->db_.Start();
    // Fleet-owned cursors: registered once, surviving every shipper the node
    // ever has. Registered before the first shipper so no redo is trimmed
    // in the window between primary start and shipper attach.
    node->cursor_ids_.clear();
    for (int t = 0; t < primary_.redo_threads(); ++t) {
      // Seed the cursor from disk truth when the node persists: a persisted
      // cursor position from this process's lifetime resumes shipping where
      // the last shipper left off. Clamped to the log tail — after a cold
      // fleet start the primary's in-memory log is fresh, so a stale
      // persisted seq must not leap past records that were never shipped
      // (the standby's durable watermark dedups the resulting redelivery).
      uint64_t seq = 0;
      persist::PersistController* p = node->db_.persist();
      if (p != nullptr)
        seq = std::min(p->CursorSeq(static_cast<size_t>(t)),
                       primary_.redo_log(t)->NextSeq());
      node->cursor_ids_.push_back(primary_.redo_log(t)->RegisterCursor(seq));
    }
    StartShippers(node.get());

    obs::LagSources sources;
    StandbyNode* n = node.get();
    sources.primary_scn = [this] { return primary_.current_scn(); };
    sources.shipped_scn = [this, n] {
      Scn scn = kMaxScn;
      for (int t = 0; t < primary_.redo_threads(); ++t)
        scn = std::min(
            scn, n->db_.stream(static_cast<size_t>(t))->DeliveredWatermark());
      return scn == kMaxScn ? kInvalidScn : scn;
    };
    sources.applied_scn = [n] { return n->db_.applied_scn(); };
    sources.query_scn = [n] { return n->db_.published_query_scn(); };
    node->lag_monitor_ = std::make_unique<obs::LagMonitor>(
        std::move(sources), registry_, obs::Labels{{"db", node->name_}},
        options_.db.lag_poll_interval_us);
    node->lag_monitor_->Start();
    node->db_.SetLagProbe(
        [n] { return n->lag_monitor_->Snapshot(); });
    node->set_accepting(true);
  }

  shipper_metrics_cb_.Attach(registry_, [this](obs::MetricsSink* sink) {
    const obs::Labels labels{{"role", "transport"}};
    uint64_t bytes = 0, records = 0;
    std::lock_guard<std::mutex> g(shippers_mu_);
    for (const auto& node : nodes_) {
      for (const auto& s : node->shippers_) {
        bytes += s->bytes_shipped();
        records += s->records_shipped();
        s->channel()->ExportMetrics(sink, labels);
      }
      obs::Labels node_labels{{"standby", node->name_}};
      sink->Gauge("stratus_fleet_node_accepting", node_labels,
                  node->accepting() ? 1.0 : 0.0);
      sink->Gauge("stratus_fleet_node_in_flight", node_labels,
                  static_cast<double>(node->in_flight()));
      sink->Counter("stratus_fleet_node_served", node_labels, node->served());
    }
    sink->Counter("stratus_redo_shipped_bytes", labels, bytes);
    sink->Counter("stratus_redo_shipped_records", labels, records);
  });
}

void FleetCluster::Stop() {
  if (!started_) return;
  started_ = false;
  shipper_metrics_cb_.Reset();
  for (auto& node : nodes_) {
    node->set_accepting(false);
    node->db_.SetLagProbe(nullptr);
    if (node->lag_monitor_ != nullptr) {
      node->lag_monitor_->Stop();
      node->lag_monitor_.reset();
    }
    StopShippers(node.get());
    for (size_t t = 0; t < node->cursor_ids_.size(); ++t)
      primary_.redo_log(static_cast<int>(t))
          ->UnregisterCursor(node->cursor_ids_[t]);
    node->cursor_ids_.clear();
    node->db_.Stop();
  }
  primary_.Stop();
}

void FleetCluster::StartShippers(StandbyNode* node) {
  std::vector<std::unique_ptr<LogShipper>> shippers;
  for (int t = 0; t < primary_.redo_threads(); ++t) {
    ShipperOptions shipping = options_.db.shipping;
    shipping.cursor_id = node->cursor_ids_[static_cast<size_t>(t)];
    shipping.channel.peer = node->name_;
    if (shipping.channel.registry == nullptr)
      shipping.channel.registry = registry_;
    if (node->db_.persist_enabled()) {
      StandbyNode* n = node;
      const size_t stream = static_cast<size_t>(t);
      // Durability gate: the fleet cursor passes a batch only once the node
      // reports its SCN fsynced, so a node killed between receive and
      // archive is redelivered that redo after rejoin instead of losing it.
      shipping.durable_floor = [n, stream] { return n->db_.DurableScn(stream); };
      // Cursor positions as disk truth: every advance lands in the node's
      // persist metadata (flushed with checkpoints into META).
      shipping.cursor_note = [n, stream](uint64_t seq) {
        persist::PersistController* p = n->db_.persist();
        if (p != nullptr) p->NoteCursorSeq(stream, seq);
      };
    }
    shippers.push_back(std::make_unique<LogShipper>(
        primary_.redo_log(t), node->db_.stream(static_cast<size_t>(t)),
        shipping));
    shippers.back()->Start();
  }
  std::lock_guard<std::mutex> g(shippers_mu_);
  node->shippers_ = std::move(shippers);
}

void FleetCluster::StopShippers(StandbyNode* node) {
  std::vector<std::unique_ptr<LogShipper>> shippers;
  {
    std::lock_guard<std::mutex> g(shippers_mu_);
    shippers.swap(node->shippers_);
  }
  for (auto& s : shippers) s->Stop();
}

StatusOr<ObjectId> FleetCluster::CreateTable(const std::string& name,
                                             TenantId tenant, Schema schema,
                                             ImService service,
                                             bool identity_index) {
  StatusOr<ObjectId> oid =
      primary_.CreateTable(name, tenant, schema, service, identity_index);
  if (!oid.ok()) return oid;
  for (auto& node : nodes_) {
    STRATUS_RETURN_IF_ERROR(node->db_.MirrorCreateTable(
        *oid, name, tenant, schema, service, identity_index));
  }
  return oid;
}

Scn FleetCluster::WaitForCatchup(int64_t timeout_us) {
  const Scn target = primary_.current_scn();
  Scn reached = kMaxScn;
  bool any = false;
  for (auto& node : nodes_) {
    if (!node->accepting()) continue;
    any = true;
    reached = target == kInvalidScn
                  ? std::min(reached, node->db_.query_scn())
                  : std::min(reached,
                             node->db_.WaitForQueryScn(target, timeout_us));
  }
  return any ? reached : kInvalidScn;
}

Scn FleetCluster::WaitForNodeCatchup(int i, int64_t timeout_us) {
  StandbyNode* n = node(i);
  const Scn target = primary_.current_scn();
  if (target == kInvalidScn) return n->db()->query_scn();
  return n->db()->WaitForQueryScn(target, timeout_us);
}

void FleetCluster::StopStandby(int i) {
  StandbyNode* n = node(i);
  n->set_accepting(false);
  // Stop the shippers first so nothing is in flight when the database stops;
  // the node's cursors stay registered (caller-owned), pinning its redo.
  StopShippers(n);
  n->db()->Stop();
}

Status FleetCluster::RestartStandby(int i, RestartMode mode) {
  if (!started_) return Status::FailedPrecondition("fleet not started");
  StandbyNode* n = node(i);
  n->set_accepting(false);
  // Quiesce delivery before the database restarts: the durable-sink tee and
  // the cursor_note callback both run on shipper threads and must not observe
  // a from-disk controller swap, and the fresh shippers below must be the
  // only ones on the node's streams and cursors.
  StopShippers(n);
  // The old shippers' channel Stop closed the receive streams; reopen them
  // before the rebuilt pipeline attaches so the merger sees live streams.
  for (int t = 0; t < primary_.redo_threads(); ++t)
    n->db()->stream(static_cast<size_t>(t))->Reopen();
  const Status st = n->db()->Restart(mode);
  // Reattach shippers either way — a failed recovery leaves the node out of
  // routing and the caller decides; redo keeps flowing meanwhile.
  StartShippers(n);
  n->set_accepting(st.ok());
  return st;
}

uint64_t FleetCluster::shipped_bytes() const {
  uint64_t total = 0;
  std::lock_guard<std::mutex> g(shippers_mu_);
  for (const auto& node : nodes_)
    for (const auto& s : node->shippers_) total += s->bytes_shipped();
  return total;
}

}  // namespace fleet
}  // namespace stratus
