#ifndef STRATUS_REDO_LOG_SHIPPING_H_
#define STRATUS_REDO_LOG_SHIPPING_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.h"
#include "net/channel.h"
#include "redo/change_vector.h"
#include "redo/redo_log.h"

namespace stratus {

/// Standby-side landing area for one shipped redo stream. Records arrive in
/// per-stream SCN order (shipping preserves append order); the log merger
/// consumes them.
class ReceivedLog {
 public:
  void Deliver(std::vector<RedoRecord> records);
  void Close();
  /// Clears the closed flag so a rejoining shipper can deliver again (fleet
  /// standby restart). Queue and watermark are preserved: the watermark is
  /// what makes redelivery across the restart idempotent.
  void Reopen();

  /// Installs a durability tee: every delivered batch is handed to `sink`
  /// (the persist layer's redo archive) under the stream lock BEFORE it is
  /// enqueued for apply, so anything the merger can consume is already on its
  /// way to disk. Pass nullptr to remove. Install only while quiescent.
  void SetDurableSink(std::function<void(const std::vector<RedoRecord>&)> sink);

  /// Disk-restart reset: drops any queued-but-unapplied records and winds the
  /// delivered watermark back to `watermark` (the persisted durable SCN), so
  /// a rejoining shipper redelivers exactly the redo that recovery has not
  /// already replayed from the archive. Also clears the closed flag.
  void ResetToWatermark(Scn watermark);

  /// One locked read of the stream's merge state: head, watermark and
  /// drained-ness all from the same instant.
  struct PeekState {
    Scn head = kInvalidScn;       ///< SCN of the next record; kInvalidScn if empty.
    Scn watermark = kInvalidScn;  ///< DeliveredWatermark() at that instant.
    bool finished = false;        ///< Closed and drained.
  };
  PeekState Peek() const;
  /// Pops the head record; returns false if empty.
  bool Pop(RedoRecord* out);

  /// Highest SCN delivered into this stream so far (including heartbeats) —
  /// the merger may emit any record with SCN <= this stream's watermark.
  Scn DeliveredWatermark() const {
    return watermark_.load(std::memory_order_acquire);
  }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Blocks until the queue is non-empty, the watermark exceeds
  /// `min_watermark`, or the stream closes; bounded by `timeout_us`. Passing
  /// the watermark a Peek() saw makes a delivery that lands in between wake
  /// the wait at once.
  void WaitForProgress(Scn min_watermark, int64_t timeout_us) const;

  uint64_t delivered_records() const {
    return delivered_records_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::deque<RedoRecord> queue_;
  std::function<void(const std::vector<RedoRecord>&)> durable_sink_;
  std::atomic<Scn> watermark_{kInvalidScn};
  std::atomic<bool> closed_{false};
  std::atomic<uint64_t> delivered_records_{0};
};

/// Options for one redo-transport connection.
struct ShipperOptions {
  /// Fallback idle-poll bound. The shipper normally sleeps on the redo log's
  /// append condition variable and wakes the moment a record lands; this
  /// interval only paces the paused state and caps condvar-miss latency.
  int64_t poll_interval_us = 200;
  /// Max records pulled per batch.
  size_t max_batch = 512;
  /// Emit an SCN heartbeat when idle at least this often, so the standby's
  /// merger (and hence the QuerySCN) can advance across idle streams.
  int64_t heartbeat_interval_us = 2000;
  /// The wire this stream rides. The default kLoopback keeps the historical
  /// deterministic in-process path; kSocket ships every batch over real TCP.
  net::ChannelOptions channel;
  /// Durability gate for cursor advancement. When set, the shipper advances
  /// its cursor only past batches whose SCN the standby reports durable
  /// (persist layer fsync watermark) — so if the standby dies after receiving
  /// but before archiving, the primary still retains that redo and the
  /// rejoining shipper redelivers it from the cursor. Unset = advance on
  /// send.
  std::function<Scn()> durable_floor;
  /// Observer of cursor advancement: called with the new cursor sequence
  /// after every AdvanceCursor. StandbyLink feeds this into the standby's
  /// persist metadata (NoteCursorSeq) so a disk-restarted standby
  /// re-registers its cursor at disk truth. Called from the shipper thread.
  std::function<void(uint64_t)> cursor_note;
};

/// Standby-side frame sink for one redo stream: decodes kRedoBatch frames,
/// drops records at or below the stream's delivered-SCN watermark (idempotent
/// redelivery — the channel may replay batches across reconnects), and lands
/// the rest in the ReceivedLog. Channel close closes the stream.
class RedoStreamReceiver : public net::FrameSink {
 public:
  explicit RedoStreamReceiver(ReceivedLog* dest) : dest_(dest) {}

  void OnFrame(const net::Frame& frame) override;
  void OnChannelClose() override;

  /// Frames whose payload failed to decode (dropped; never delivered).
  uint64_t decode_failures() const {
    return decode_failures_.load(std::memory_order_relaxed);
  }

 private:
  ReceivedLog* dest_;
  std::atomic<uint64_t> decode_failures_{0};
};

/// Ships one primary redo stream to one standby `ReceivedLog` over a
/// net::Channel: a background thread pulls appended records (condvar wakeup,
/// poll fallback), encodes them with the wire codec, and Send()s them; the
/// channel's receiver end decodes and delivers. Backpressure from the channel
/// (full send window, partition) blocks the shipper thread.
///
/// The shipper reads from and advances `cursor_id`, a cursor the caller
/// registered on `source` and keeps after the shipper is gone: a fresh
/// shipper on the same cursor resumes exactly where this one stopped.
class LogShipper {
 public:
  LogShipper(RedoLog* source, ReceivedLog* dest, uint64_t cursor_id,
             const ShipperOptions& options);
  ~LogShipper();

  LogShipper(const LogShipper&) = delete;
  LogShipper& operator=(const LogShipper&) = delete;

  void Start();
  /// Drains everything appended before the call through the channel
  /// (retransmitting as needed), then stops and closes the destination
  /// stream.
  void Stop();

  /// Fault-injection hook: while paused the shipper pulls nothing and emits
  /// no heartbeats, so transport lag accumulates on the standby (used by the
  /// lag-monitor tests and failure drills). Stop() overrides a pause and
  /// still drains.
  void set_paused(bool paused) {
    paused_.store(paused, std::memory_order_release);
  }
  bool paused() const { return paused_.load(std::memory_order_acquire); }

  /// Encoded wire bytes accepted by the channel (frame overhead included).
  uint64_t bytes_shipped() const { return channel_->stats().bytes_sent; }
  uint64_t records_shipped() const { return records_shipped_.load(std::memory_order_relaxed); }
  Scn last_shipped_scn() const { return last_shipped_scn_.load(std::memory_order_relaxed); }

  /// The wire underneath (fault injection, stats, metrics export).
  net::Channel* channel() { return channel_.get(); }
  const net::Channel* channel() const { return channel_.get(); }

 private:
  void Run();

  RedoLog* source_;
  ReceivedLog* dest_;
  ShipperOptions options_;
  RedoStreamReceiver receiver_;
  std::unique_ptr<net::Channel> channel_;

  const uint64_t cursor_id_;  ///< Caller-owned RedoLog cursor it advances.
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_{false};
  std::atomic<uint64_t> records_shipped_{0};
  std::atomic<Scn> last_shipped_scn_{kInvalidScn};
};

}  // namespace stratus

#endif  // STRATUS_REDO_LOG_SHIPPING_H_
