#include "redo/log_shipping.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/clock.h"
#include "net/codec.h"
#include "obs/trace.h"

namespace stratus {

void ReceivedLog::Deliver(std::vector<RedoRecord> records) {
  if (records.empty()) return;
  std::lock_guard<std::mutex> g(mu_);
  // Archive-first: the durable tee sees the batch before the merger can.
  if (durable_sink_) durable_sink_(records);
  for (RedoRecord& rec : records) {
    if (rec.scn > watermark_.load(std::memory_order_relaxed))
      watermark_.store(rec.scn, std::memory_order_release);
    queue_.push_back(std::move(rec));
    delivered_records_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_all();
}

void ReceivedLog::Close() {
  std::lock_guard<std::mutex> g(mu_);
  closed_.store(true, std::memory_order_release);
  cv_.notify_all();
}

void ReceivedLog::Reopen() {
  std::lock_guard<std::mutex> g(mu_);
  closed_.store(false, std::memory_order_release);
  cv_.notify_all();
}

void ReceivedLog::SetDurableSink(
    std::function<void(const std::vector<RedoRecord>&)> sink) {
  std::lock_guard<std::mutex> g(mu_);
  durable_sink_ = std::move(sink);
}

void ReceivedLog::ResetToWatermark(Scn watermark) {
  std::lock_guard<std::mutex> g(mu_);
  queue_.clear();
  watermark_.store(watermark, std::memory_order_release);
  closed_.store(false, std::memory_order_release);
  cv_.notify_all();
}

ReceivedLog::PeekState ReceivedLog::Peek() const {
  std::lock_guard<std::mutex> g(mu_);
  PeekState h;
  if (!queue_.empty()) h.head = queue_.front().scn;
  h.watermark = watermark_.load(std::memory_order_relaxed);
  h.finished = queue_.empty() && closed_.load(std::memory_order_relaxed);
  return h;
}

bool ReceivedLog::Pop(RedoRecord* out) {
  std::lock_guard<std::mutex> g(mu_);
  if (queue_.empty()) return false;
  *out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

void ReceivedLog::WaitForProgress(Scn min_watermark, int64_t timeout_us) const {
  std::unique_lock<std::mutex> g(mu_);
  cv_.wait_for(g, std::chrono::microseconds(timeout_us), [&] {
    return !queue_.empty() ||
           watermark_.load(std::memory_order_relaxed) > min_watermark ||
           closed_.load(std::memory_order_relaxed);
  });
}

void RedoStreamReceiver::OnFrame(const net::Frame& frame) {
  if (frame.type != net::FrameType::kRedoBatch) return;
  std::vector<RedoRecord> batch;
  Status s = net::DecodeRedoBatch(frame.payload, &batch);
  if (!s.ok()) {
    // The frame CRC passed but the payload is malformed — a codec bug, not a
    // wire fault. Count it and drop the batch rather than crash the standby.
    decode_failures_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Idempotent redelivery: the channel may replay whole batches after a
  // reconnect; anything at or below the stream's delivered watermark has
  // already landed. (kInvalidScn == 0 and real SCNs start at 1, so a fresh
  // stream keeps everything.)
  const Scn watermark = dest_->DeliveredWatermark();
  batch.erase(std::remove_if(batch.begin(), batch.end(),
                             [&](const RedoRecord& rec) {
                               return rec.scn <= watermark;
                             }),
              batch.end());
  if (!batch.empty()) dest_->Deliver(std::move(batch));
}

void RedoStreamReceiver::OnChannelClose() { dest_->Close(); }

namespace {

net::ChannelOptions ResolveChannelOptions(const ShipperOptions& options,
                                          RedoThreadId thread) {
  net::ChannelOptions channel = options.channel;
  if (channel.name.empty()) {
    channel.name = "redo-" + std::to_string(thread);
  }
  return channel;
}

}  // namespace

LogShipper::LogShipper(RedoLog* source, ReceivedLog* dest, uint64_t cursor_id,
                       const ShipperOptions& options)
    : source_(source),
      dest_(dest),
      options_(options),
      receiver_(dest),
      channel_(net::CreateChannel(ResolveChannelOptions(options, source->thread()),
                                  &receiver_)),
      cursor_id_(cursor_id) {}

LogShipper::~LogShipper() { Stop(); }

void LogShipper::Start() {
  stop_.store(false, std::memory_order_release);
  channel_->Start();
  thread_ = std::thread([this] { Run(); });
}

void LogShipper::Stop() {
  stop_.store(true, std::memory_order_release);
  source_->WakeWaiters();  // End any idle condvar wait immediately.
  if (thread_.joinable()) thread_.join();
  // Drains the wire (retransmitting as needed), then closes the stream via
  // RedoStreamReceiver::OnChannelClose. Idempotent.
  channel_->Stop();
}

void LogShipper::Run() {
  // Resume from the cursor: where it was registered, or wherever the
  // previous shipper on this (standby, thread) pair left it.
  uint64_t next_seq = source_->CursorSeq(cursor_id_);
  uint64_t last_heartbeat_us = NowMicros();
  auto advance = [this](uint64_t seq) {
    source_->AdvanceCursor(cursor_id_, seq);
    if (options_.cursor_note) options_.cursor_note(seq);
  };
  // Durability-gated cursor advancement: sent batches park here until the
  // standby reports their SCN durable; only then may the cursor pass them.
  std::deque<std::pair<uint64_t, Scn>> unacked;  // (seq_end, batch scn)
  auto advance_past_durable = [&] {
    const Scn floor = options_.durable_floor();
    uint64_t advance_to = 0;
    while (!unacked.empty() && unacked.front().second <= floor) {
      advance_to = unacked.front().first;
      unacked.pop_front();
    }
    if (advance_to != 0) advance(advance_to);
  };
  bool draining = false;
  // Once stop is requested we drain up to the tail observed AT THAT MOMENT,
  // not the live tail: under a hot appender the live tail recedes forever
  // and a Stop() could otherwise never return.
  uint64_t drain_target = 0;
  while (true) {
    if (!draining && stop_.load(std::memory_order_acquire)) {
      draining = true;
      drain_target = source_->NextSeq();
    }
    if (draining && next_seq >= drain_target) break;

    if (!draining && paused_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(options_.poll_interval_us));
      continue;
    }

    std::vector<RedoRecord> batch;
    next_seq = source_->ReadFrom(next_seq, options_.max_batch, &batch);

    if (batch.empty()) {
      if (draining) break;
      const uint64_t now = NowMicros();
      const uint64_t heartbeat_due =
          last_heartbeat_us + static_cast<uint64_t>(options_.heartbeat_interval_us);
      if (now >= heartbeat_due) {
        // Idle: tick the SCN so the standby merger / QuerySCN can advance.
        // With N shippers fanned out from this log, only one heartbeat per
        // quiet interval actually lands; the others see a non-quiet log
        // (something — possibly a sibling's heartbeat — arrived recently,
        // which also means there is a record for us to pull).
        const Scn hb =
            source_->AppendHeartbeatIfQuiet(options_.heartbeat_interval_us);
        last_heartbeat_us = now;
        if (hb != kInvalidScn) continue;  // Pull it on the next iteration.
      }
      // Sleep until the next heartbeat is due — or until Append wakes us,
      // which is what makes shipping latency independent of any poll
      // interval. poll_interval_us floors the wait as the fallback poll.
      // (last_heartbeat_us may have just advanced above; recompute the due
      // time so a suppressed heartbeat doesn't underflow the wait.)
      const uint64_t next_due =
          last_heartbeat_us + static_cast<uint64_t>(options_.heartbeat_interval_us);
      const int64_t until_due =
          next_due > now ? static_cast<int64_t>(next_due - now) : 0;
      const int64_t wait_us =
          std::max<int64_t>(options_.poll_interval_us, until_due);
      source_->WaitForAppend(next_seq, wait_us);
      continue;
    }

    // Serialize with the wire codec and hand the batch to the channel; Send
    // blocks when the send window is full, propagating wire backpressure
    // straight to the shipper (and, via the redo log, to the primary).
    STRATUS_SPAN(obs::Stage::kLogShip, batch.back().scn);
    std::string payload;
    net::EncodeRedoBatch(batch, &payload);
    const size_t batch_records = batch.size();
    const Scn batch_scn = batch.back().scn;
    Status s = channel_->Send(net::FrameType::kRedoBatch, source_->thread(),
                              batch_scn, std::move(payload));
    if (!s.ok()) break;  // Channel already stopped under us.
    records_shipped_.fetch_add(batch_records, std::memory_order_relaxed);
    last_shipped_scn_.store(batch_scn, std::memory_order_relaxed);
    // Advance our cursor; the log trims only what EVERY attached cursor has
    // passed, so a slow sibling shipper never loses records to a fast one.
    // With a durable floor configured, sent-but-not-yet-fsynced batches stay
    // behind the cursor: a standby crash between receive and archive only
    // costs a redelivery, never the redo itself.
    if (options_.durable_floor) {
      unacked.emplace_back(next_seq, batch_scn);
      advance_past_durable();
    } else {
      advance(next_seq);
    }
  }
  // Final gate check at drain: the standby may have archived everything
  // between our last send and now (the channel drain in Stop() happens after
  // this thread exits, so anything still unacked here stays retained).
  if (options_.durable_floor && !unacked.empty()) advance_past_durable();
}

}  // namespace stratus
