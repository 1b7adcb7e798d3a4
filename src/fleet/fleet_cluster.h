#ifndef STRATUS_FLEET_FLEET_CLUSTER_H_
#define STRATUS_FLEET_FLEET_CLUSTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "db/database.h"
#include "db/standby_link.h"
#include "obs/lag_monitor.h"
#include "obs/metrics.h"

namespace stratus {
namespace fleet {

/// Modeled serving capacity of one standby node. The whole fleet runs in one
/// process, so N standbys share the host's cores; real deployments give each
/// standby its own server. The gate models that per-node capacity explicitly:
/// a token bucket caps the node's admission rate and a slot count caps its
/// concurrent queries, so aggregate fleet throughput scales with node count
/// the way N separate servers would, independent of host core count. Zeros
/// disable the model (admission is then free).
struct NodeCapacity {
  double max_qps = 0;  ///< Sustained admissions/second (0 = unbounded).
  int slots = 0;       ///< Concurrent queries in the node (0 = unbounded).
};

/// Blocking admission gate implementing NodeCapacity: Acquire() waits for a
/// rate token and a free slot, Release() frees the slot.
class CapacityGate {
 public:
  explicit CapacityGate(const NodeCapacity& capacity);

  CapacityGate(const CapacityGate&) = delete;
  CapacityGate& operator=(const CapacityGate&) = delete;

  void Acquire();
  void Release();

 private:
  const double max_qps_;
  const int slots_;
  const double burst_;  ///< Token cap: short bursts above the rate.

  std::mutex mu_;
  std::condition_variable cv_;
  double tokens_;          ///< Guarded by mu_.
  uint64_t last_refill_us_ = 0;  ///< Guarded by mu_.
  int in_use_ = 0;         ///< Guarded by mu_.
};

/// One standby of the fleet: the database, its redo link from the primary,
/// and its routing-facing state — whether it is accepting queries and its
/// live load.
class StandbyNode {
 public:
  StandbyNode(int id, PrimaryDb* primary, const DatabaseOptions& options,
              const NodeCapacity& capacity);

  StandbyNode(const StandbyNode&) = delete;
  StandbyNode& operator=(const StandbyNode&) = delete;

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  StandbyDb* db() { return &db_; }
  const StandbyDb* db() const { return &db_; }

  /// False while the node is down or draining: the router must not send new
  /// queries here. Flipped by FleetCluster's lifecycle calls.
  bool accepting() const { return accepting_.load(std::memory_order_acquire); }

  /// Query admission: blocks on the capacity gate, tracks live load. Every
  /// BeginQuery must be paired with EndQuery.
  void BeginQuery();
  void EndQuery();

  uint64_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }
  /// Queries completed on this node over its lifetime (load-share numerator).
  uint64_t served() const { return served_.load(std::memory_order_relaxed); }

  /// This node's standing lag monitor (non-null between fleet Start/Stop; it
  /// reads only restart-surviving atomics, so it runs through node restarts).
  obs::LagMonitor* lag_monitor() { return link_.lag_monitor(); }

 private:
  friend class FleetCluster;

  void set_accepting(bool v) {
    accepting_.store(v, std::memory_order_release);
  }

  const int id_;
  const std::string name_;
  StandbyDb db_;
  StandbyLink link_;
  CapacityGate gate_;
  std::atomic<bool> accepting_{false};
  std::atomic<uint64_t> in_flight_{0};
  std::atomic<uint64_t> served_{0};
};

struct FleetOptions {
  int num_standbys = 2;
  /// Template for the primary and every standby. Per-node identity
  /// (standby_name, channel peer labels) is applied on top; `registry` is
  /// shared by the whole fleet (defaulting to the global one).
  DatabaseOptions db;
  /// Applied to every node.
  NodeCapacity capacity;
};

/// One primary fanned out to N standbys: each node's StandbyLink ships every
/// primary redo thread's RedoLog over its own channels, and the nodes'
/// cursors together decide redo retention. The ROADMAP "one primary,
/// N standbys" topology, in-process.
class FleetCluster {
 public:
  explicit FleetCluster(const FleetOptions& options);
  ~FleetCluster();

  FleetCluster(const FleetCluster&) = delete;
  FleetCluster& operator=(const FleetCluster&) = delete;

  void Start();
  void Stop();

  PrimaryDb* primary() { return &primary_; }
  int num_standbys() const { return static_cast<int>(nodes_.size()); }
  StandbyNode* node(int i) { return nodes_[static_cast<size_t>(i)].get(); }
  const StandbyNode* node(int i) const {
    return nodes_[static_cast<size_t>(i)].get();
  }

  /// Creates the table on the primary and mirrors it to every standby.
  StatusOr<ObjectId> CreateTable(const std::string& name, TenantId tenant,
                                 Schema schema, ImService service,
                                 bool identity_index);

  /// Blocks until every *accepting* standby's QuerySCN covers everything
  /// committed on the primary as of the call. Returns the minimum QuerySCN
  /// reached across those standbys.
  Scn WaitForCatchup(int64_t timeout_us = 30'000'000);
  /// Same, for one node (accepting or not — used by rejoin tests).
  Scn WaitForNodeCatchup(int i, int64_t timeout_us = 30'000'000);

  // --- Node lifecycle (chaos / maintenance) --------------------------------
  /// Takes node `i` out of service: stops accepting, stops and discards its
  /// shippers (the node's redo cursors stay registered, so the primary
  /// retains everything the node has not been shipped), stops the database.
  void StopStandby(int i);
  /// Restarts node `i` in `mode`, running or stopped, through its link's one
  /// restart sequence (StandbyLink::Restart), out of routing meanwhile.
  /// Accepting again only if the restart succeeded.
  Status RestartStandby(int i, RestartMode mode = {});

  obs::MetricsRegistry* registry() const { return registry_; }
  std::string MetricsText() const { return registry_->ExportText(); }
  std::string MetricsJson() const { return registry_->ExportJson(); }
  uint64_t shipped_bytes() const;

 private:
  DatabaseOptions NodeOptions(int i) const;

  FleetOptions options_;
  obs::MetricsRegistry* registry_ = nullptr;
  PrimaryDb primary_;
  std::vector<std::unique_ptr<StandbyNode>> nodes_;
  bool started_ = false;
  obs::ScopedMetricsCallback shipper_metrics_cb_;
};

}  // namespace fleet
}  // namespace stratus

#endif  // STRATUS_FLEET_FLEET_CLUSTER_H_
