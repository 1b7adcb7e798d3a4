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

StandbyNode::StandbyNode(int id, PrimaryDb* primary,
                         const DatabaseOptions& options,
                         const NodeCapacity& capacity)
    : id_(id),
      name_(options.standby_name),
      db_(options, static_cast<size_t>(primary->redo_threads())),
      link_(primary, &db_),
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
  for (int i = 0; i < options_.num_standbys; ++i) {
    nodes_.push_back(std::make_unique<StandbyNode>(
        i, &primary_, NodeOptions(i), options_.capacity));
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
    node->link_.Start();
    node->set_accepting(true);
  }

  shipper_metrics_cb_.Attach(registry_, [this](obs::MetricsSink* sink) {
    std::vector<const StandbyLink*> links;
    for (const auto& node : nodes_) {
      links.push_back(&node->link_);
      obs::Labels node_labels{{"standby", node->name_}};
      sink->Gauge("stratus_fleet_node_accepting", node_labels,
                  node->accepting() ? 1.0 : 0.0);
      sink->Gauge("stratus_fleet_node_in_flight", node_labels,
                  static_cast<double>(node->in_flight()));
      sink->Counter("stratus_fleet_node_served", node_labels, node->served());
    }
    StandbyLink::ExportTransportMetrics(links, sink);
  });
}

void FleetCluster::Stop() {
  if (!started_) return;
  started_ = false;
  shipper_metrics_cb_.Reset();
  for (auto& node : nodes_) {
    node->set_accepting(false);
    node->link_.Stop();
    node->db_.Stop();
  }
  primary_.Stop();
}

StatusOr<ObjectId> FleetCluster::CreateTable(const std::string& name,
                                             TenantId tenant, Schema schema,
                                             ImService service,
                                             bool identity_index) {
  StatusOr<ObjectId> oid =
      primary_.CreateTable(name, tenant, schema, service, identity_index);
  if (!oid.ok()) return oid;
  for (auto& node : nodes_) {
    STRATUS_RETURN_IF_ERROR(
        node->db_
            .CreateTable(name, tenant, schema, service, identity_index, *oid)
            .status());
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
  // the node's cursors stay registered, pinning its redo.
  n->link_.StopShipping();
  n->db()->Stop();
}

Status FleetCluster::RestartStandby(int i, RestartMode mode) {
  if (!started_) return Status::FailedPrecondition("fleet not started");
  StandbyNode* n = node(i);
  n->set_accepting(false);
  const Status st = n->link_.Restart(mode);
  n->set_accepting(st.ok());
  return st;
}

uint64_t FleetCluster::shipped_bytes() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) total += node->link_.shipped_bytes();
  return total;
}

}  // namespace fleet
}  // namespace stratus
