#ifndef STRATUS_RAC_TRANSPORT_H_
#define STRATUS_RAC_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/types.h"
#include "imadg/invalidation.h"
#include "imcs/im_store.h"
#include "imcs/population.h"
#include "net/channel.h"
#include "net/codec.h"
#include "txn/txn_table.h"

namespace stratus {

/// A non-master standby RAC instance endpoint (Section III.F). Under Single
/// Instance Redo Apply only the master mines and flushes; this instance hosts
/// its share of the IMCS, applies the invalidation groups the master
/// transmits, and runs a local recovery coordinator that re-publishes the
/// QuerySCN it receives from the master.
///
/// It also doubles as the instance's population SnapshotSource: snapshot
/// capture + SMU registration are serialized against batch application, and a
/// replay buffer of groups received since the last publish closes the window
/// where an in-flight batch could miss a just-registered SMU (see DESIGN.md).
class RemoteInstance : public SnapshotSource {
 public:
  RemoteInstance(InstanceId id, ImStore* store, const TxnTable* txn_table)
      : id_(id), store_(store), txn_table_(txn_table) {}

  InstanceId id() const { return id_; }
  ImStore* store() const { return store_; }

  /// Delivery callbacks (invoked by the interconnect, in send order).
  void OnGroups(const std::vector<InvalidationGroup>& groups);
  void OnCoarse(TenantId tenant);
  void OnPublish(Scn query_scn);

  /// The instance-local QuerySCN exposed to queries served here.
  Scn query_scn() const { return query_scn_.load(std::memory_order_acquire); }

  // SnapshotSource:
  Scn CaptureSnapshot(const std::function<void(Scn)>& register_fn) override;
  const VisibilityResolver* resolver() const override { return txn_table_; }

  uint64_t groups_applied() const { return groups_applied_.load(std::memory_order_relaxed); }

 private:
  void ApplyGroupsLocked(const std::vector<InvalidationGroup>& groups);

  InstanceId id_;
  ImStore* store_;
  const TxnTable* txn_table_;

  std::mutex mu_;  ///< Orders batch application, publish, and snapshot capture.
  std::vector<InvalidationGroup> pending_;  ///< Groups since the last publish.
  std::atomic<Scn> query_scn_{kInvalidScn};
  std::atomic<uint64_t> groups_applied_{0};
};

/// Interconnect behavior knobs (the Section III.F ablation).
struct TransportOptions {
  /// One-way message latency (microseconds).
  int64_t latency_us = 200;
  /// Max invalidation groups coalesced into one message (batching).
  size_t max_batch_groups = 64;
  /// Pipelined transmission: up to `pipeline_depth` messages share one
  /// round-trip wait. false = stop-and-wait (one RTT per message).
  bool pipelined = true;
  size_t pipeline_depth = 8;
  /// The wire each master→remote link rides (one net::Channel per remote).
  /// kLoopback preserves the historical direct-call delivery.
  net::ChannelOptions channel;
};

/// Standby-interconnect frame sink for one remote instance: decodes
/// kInvalidation frames and dispatches them to the remote's delivery
/// callbacks.
class InvalidationReceiver : public net::FrameSink {
 public:
  explicit InvalidationReceiver(RemoteInstance* remote) : remote_(remote) {}

  void OnFrame(const net::Frame& frame) override;

  uint64_t decode_failures() const {
    return decode_failures_.load(std::memory_order_relaxed);
  }

 private:
  RemoteInstance* remote_;
  std::atomic<uint64_t> decode_failures_{0};
};

/// Transport statistics.
struct TransportStats {
  uint64_t messages_sent = 0;
  uint64_t groups_sent = 0;
  uint64_t rows_sent = 0;
  uint64_t coarse_sent = 0;
  uint64_t publishes_sent = 0;
  uint64_t rtt_waits = 0;  ///< Round-trip waits incurred (the ablation metric).
};

/// The master→remote invalidation channel: batches invalidation groups into
/// messages, applies the configured interconnect latency (stop-and-wait or
/// pipelined), and delivers to every remote instance in order. `Drained()`
/// is the master's "all remote flushes acknowledged" gate before publishing
/// a new QuerySCN.
class InvalidationChannel {
 public:
  InvalidationChannel(std::vector<RemoteInstance*> remotes,
                      const TransportOptions& options);
  ~InvalidationChannel();

  InvalidationChannel(const InvalidationChannel&) = delete;
  InvalidationChannel& operator=(const InvalidationChannel&) = delete;

  void Start();
  void Stop();

  void SendGroups(std::vector<InvalidationGroup> groups);
  void SendCoarse(TenantId tenant);
  void SendObjectDrop(ObjectId object_id);
  void SendPublish(Scn query_scn);

  /// True when every queued message has been delivered and acknowledged —
  /// including by the per-remote wire channels underneath.
  bool Drained() const;

  TransportStats stats() const;

  /// The wire under the link to `remotes[i]` (fault injection, stats).
  net::Channel* wire_channel(size_t i) { return wire_channels_[i].get(); }
  size_t wire_channel_count() const { return wire_channels_.size(); }

 private:
  void Run();
  void Enqueue(net::InvalidationMessage msg);

  std::vector<RemoteInstance*> remotes_;
  TransportOptions options_;
  std::vector<std::unique_ptr<InvalidationReceiver>> receivers_;
  std::vector<std::unique_ptr<net::Channel>> wire_channels_;

  std::thread thread_;
  std::atomic<bool> stop_{false};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<net::InvalidationMessage> queue_;
  std::atomic<size_t> in_flight_{0};

  std::atomic<uint64_t> messages_sent_{0};
  std::atomic<uint64_t> groups_sent_{0};
  std::atomic<uint64_t> rows_sent_{0};
  std::atomic<uint64_t> coarse_sent_{0};
  std::atomic<uint64_t> publishes_sent_{0};
  std::atomic<uint64_t> rtt_waits_{0};
};

}  // namespace stratus

#endif  // STRATUS_RAC_TRANSPORT_H_
