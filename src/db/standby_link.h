#ifndef STRATUS_DB_STANDBY_LINK_H_
#define STRATUS_DB_STANDBY_LINK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "obs/lag_monitor.h"
#include "obs/metrics.h"
#include "redo/log_shipping.h"

namespace stratus {

class PrimaryDb;
class StandbyDb;
struct RestartMode;

/// The redo transport from the primary to one standby (Figure 1): one
/// RedoLog cursor and one LogShipper per primary redo thread, the standby's
/// LagMonitor and query-profile lag probe, and the one restart sequence.
/// Configured from `standby->options()` alone. AdgCluster holds one link;
/// every fleet node holds its own.
///
/// The cursors live from Start to Stop and outlive every shipper: a stopped
/// or restarting standby's cursors keep the primary from trimming the redo
/// it has not been shipped, and fresh shippers resume from them. When the
/// standby persists, a cursor passes a batch only once the standby reports
/// it durable, and every advance is noted in its persist metadata.
class StandbyLink {
 public:
  StandbyLink(PrimaryDb* primary, StandbyDb* standby);
  ~StandbyLink();

  StandbyLink(const StandbyLink&) = delete;
  StandbyLink& operator=(const StandbyLink&) = delete;

  /// Registers the cursors (at the standby's persisted positions, clamped to
  /// the log tail), attaches the shippers, starts the lag monitor and
  /// installs the lag probe. Call after StandbyDb::Start: boot recovery
  /// supplies the persisted positions.
  void Start();
  /// Clears the lag probe, stops the monitor and the shippers, and releases
  /// the cursors. Idempotent.
  void Stop();

  /// Stops the shippers; the cursors stay registered, so the primary retains
  /// everything the standby has not been shipped.
  void StopShipping();
  /// Restarts the standby in `mode`, whether it is running or stopped: stops
  /// the shippers, reopens the receive streams, calls StandbyDb::Restart and
  /// attaches fresh shippers resuming from the cursors. Redelivery dedups
  /// against the stream watermarks, so no redo is lost or applied twice.
  /// Shipping resumes even when the restart fails.
  Status Restart(RestartMode mode);

  /// Fault injection: pause/resume every shipper (transport lag accumulates
  /// while paused; stopping still drains). A restart's fresh shippers start
  /// unpaused.
  void SetShippingPaused(bool paused);
  uint64_t shipped_bytes() const;
  /// Stream `i`'s shipper while shipping. Not safe across a Restart, which
  /// replaces every shipper; use VisitShippers where a restart may race.
  const LogShipper* shipper(size_t i) const { return shippers_[i].get(); }
  /// Calls `visit` with each shipper in stream order, under the lock a
  /// restart takes to replace them (safe from any thread; `visit` must not
  /// call back into the link).
  void VisitShippers(const std::function<void(const LogShipper&)>& visit) const;
  /// Non-null between Start and Stop. It reads only progress marks that
  /// outlive pipeline restarts, so it polls straight through Restart.
  obs::LagMonitor* lag_monitor() { return lag_monitor_.get(); }

  /// Exports every link's channel series and their summed
  /// `stratus_redo_shipped_{bytes,records}`, labeled {role="transport"}.
  static void ExportTransportMetrics(const std::vector<const StandbyLink*>& links,
                                     obs::MetricsSink* sink);

 private:
  void StartShippers();

  PrimaryDb* const primary_;
  StandbyDb* const standby_;
  bool started_ = false;
  std::vector<uint64_t> cursor_ids_;  ///< One per redo thread while started.
  std::vector<std::unique_ptr<LogShipper>> shippers_;
  /// Guards `shippers_`: a restart swaps it while scrapes read it. Held only
  /// to move or read the vector, never across shipper construction, Start,
  /// Stop or destruction (channels register with the metrics registry, whose
  /// scrape takes this lock).
  mutable std::mutex shippers_mu_;
  std::unique_ptr<obs::LagMonitor> lag_monitor_;
};

}  // namespace stratus

#endif  // STRATUS_DB_STANDBY_LINK_H_
