#include "rac/transport.h"

#include <chrono>
#include <string>
#include <utility>

namespace stratus {

void RemoteInstance::ApplyGroupsLocked(const std::vector<InvalidationGroup>& groups) {
  for (const InvalidationGroup& g : groups) {
    for (const auto& [dba, slot] : g.rows) {
      store_->MarkRowInvalid(dba, slot);
    }
  }
  groups_applied_.fetch_add(groups.size(), std::memory_order_relaxed);
}

void RemoteInstance::OnGroups(const std::vector<InvalidationGroup>& groups) {
  std::lock_guard<std::mutex> g(mu_);
  ApplyGroupsLocked(groups);
  // Retain for replay into SMUs registered before the next publish.
  pending_.insert(pending_.end(), groups.begin(), groups.end());
}

void RemoteInstance::OnCoarse(TenantId tenant) {
  std::lock_guard<std::mutex> g(mu_);
  store_->CoarseInvalidateTenant(tenant);
}

void RemoteInstance::OnPublish(Scn query_scn) {
  std::lock_guard<std::mutex> g(mu_);
  query_scn_.store(query_scn, std::memory_order_release);
  pending_.clear();  // Everything retained is now covered by the QuerySCN.
}

Scn RemoteInstance::CaptureSnapshot(const std::function<void(Scn)>& register_fn) {
  std::lock_guard<std::mutex> g(mu_);
  const Scn scn = query_scn_.load(std::memory_order_acquire);
  if (scn == kInvalidScn) return kInvalidScn;
  register_fn(scn);
  // Replay groups delivered since the last publish: their commits are beyond
  // `scn`, so the fresh SMU needs their bits (idempotent if re-marked later).
  ApplyGroupsLocked(pending_);
  return scn;
}

void InvalidationReceiver::OnFrame(const net::Frame& frame) {
  if (frame.type != net::FrameType::kInvalidation) return;
  net::InvalidationMessage msg;
  if (!net::DecodeInvalidationMessage(frame.payload, &msg).ok()) {
    decode_failures_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  switch (msg.kind) {
    case net::InvalKind::kGroups:
      remote_->OnGroups(msg.groups);
      break;
    case net::InvalKind::kCoarse:
      remote_->OnCoarse(msg.tenant);
      break;
    case net::InvalKind::kObjectDrop:
      remote_->store()->DropObject(msg.object_id);
      break;
    case net::InvalKind::kPublish:
      remote_->OnPublish(msg.scn);
      break;
  }
}

InvalidationChannel::InvalidationChannel(std::vector<RemoteInstance*> remotes,
                                         const TransportOptions& options)
    : remotes_(std::move(remotes)), options_(options) {
  receivers_.reserve(remotes_.size());
  wire_channels_.reserve(remotes_.size());
  for (RemoteInstance* remote : remotes_) {
    receivers_.push_back(std::make_unique<InvalidationReceiver>(remote));
    net::ChannelOptions copts = options_.channel;
    if (copts.name.empty()) {
      copts.name = "inval-" + std::to_string(remote->id());
    }
    wire_channels_.push_back(
        net::CreateChannel(copts, receivers_.back().get()));
  }
}

InvalidationChannel::~InvalidationChannel() {
  if (thread_.joinable()) Stop();
}

void InvalidationChannel::Start() {
  stop_.store(false, std::memory_order_release);
  for (auto& channel : wire_channels_) channel->Start();
  thread_ = std::thread([this] { Run(); });
}

void InvalidationChannel::Stop() {
  {
    std::lock_guard<std::mutex> g(mu_);
    stop_.store(true, std::memory_order_release);
    cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
  // Drain and close the wires (idempotent; no-op if never started).
  for (auto& channel : wire_channels_) channel->Stop();
}

void InvalidationChannel::Enqueue(net::InvalidationMessage msg) {
  std::lock_guard<std::mutex> g(mu_);
  queue_.push_back(std::move(msg));
  cv_.notify_one();
}

void InvalidationChannel::SendGroups(std::vector<InvalidationGroup> groups) {
  if (remotes_.empty() || groups.empty()) return;
  net::InvalidationMessage msg;
  msg.kind = net::InvalKind::kGroups;
  msg.groups = std::move(groups);
  Enqueue(std::move(msg));
}

void InvalidationChannel::SendCoarse(TenantId tenant) {
  if (remotes_.empty()) return;
  net::InvalidationMessage msg;
  msg.kind = net::InvalKind::kCoarse;
  msg.tenant = tenant;
  Enqueue(std::move(msg));
}

void InvalidationChannel::SendObjectDrop(ObjectId object_id) {
  if (remotes_.empty()) return;
  net::InvalidationMessage msg;
  msg.kind = net::InvalKind::kObjectDrop;
  msg.object_id = object_id;
  Enqueue(std::move(msg));
}

void InvalidationChannel::SendPublish(Scn query_scn) {
  if (remotes_.empty()) return;
  net::InvalidationMessage msg;
  msg.kind = net::InvalKind::kPublish;
  msg.scn = query_scn;
  Enqueue(std::move(msg));
}

bool InvalidationChannel::Drained() const {
  if (remotes_.empty()) return true;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (!queue_.empty() || in_flight_.load(std::memory_order_acquire) != 0) {
      return false;
    }
  }
  for (const auto& channel : wire_channels_) {
    if (!channel->Idle()) return false;
  }
  return true;
}

void InvalidationChannel::Run() {
  size_t window = 0;  // Messages sent since the last round-trip wait.
  while (true) {
    net::InvalidationMessage msg;
    {
      std::unique_lock<std::mutex> g(mu_);
      cv_.wait_for(g, std::chrono::milliseconds(1), [&] {
        return !queue_.empty() || stop_.load(std::memory_order_relaxed);
      });
      if (queue_.empty()) {
        if (stop_.load(std::memory_order_relaxed)) break;
        window = 0;  // Idle: the pipeline drains.
        continue;
      }
      msg = std::move(queue_.front());
      queue_.pop_front();
      // Batching: coalesce consecutive group messages up to the batch limit.
      while (msg.kind == net::InvalKind::kGroups && !queue_.empty() &&
             queue_.front().kind == net::InvalKind::kGroups &&
             msg.groups.size() + queue_.front().groups.size() <=
                 options_.max_batch_groups) {
        auto& next = queue_.front();
        msg.groups.insert(msg.groups.end(),
                          std::make_move_iterator(next.groups.begin()),
                          std::make_move_iterator(next.groups.end()));
        queue_.pop_front();
      }
      in_flight_.fetch_add(1, std::memory_order_acq_rel);
    }

    // Interconnect latency model: stop-and-wait pays one round trip per
    // message; pipelining amortizes the round trip over a window of
    // `pipeline_depth` in-flight messages.
    const bool pay_rtt =
        !options_.pipelined || (++window >= options_.pipeline_depth);
    if (pay_rtt) {
      window = 0;
      rtt_waits_.fetch_add(1, std::memory_order_relaxed);
      if (options_.latency_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(2 * options_.latency_us));
      }
    }

    // Encode once, ship a copy down every remote's wire. The channel (and
    // its receiver) preserves per-link order; the loopback wire delivers
    // synchronously right here, keeping the historical semantics.
    std::string payload;
    net::EncodeInvalidationMessage(msg, &payload);
    for (size_t i = 0; i < wire_channels_.size(); ++i) {
      std::string copy = payload;
      wire_channels_[i]->Send(net::FrameType::kInvalidation,
                              static_cast<uint32_t>(remotes_[i]->id()),
                              msg.scn, std::move(copy));
    }
    messages_sent_.fetch_add(1, std::memory_order_relaxed);
    if (msg.kind == net::InvalKind::kGroups) {
      groups_sent_.fetch_add(msg.groups.size(), std::memory_order_relaxed);
      uint64_t rows = 0;
      for (const auto& g : msg.groups) rows += g.rows.size();
      rows_sent_.fetch_add(rows, std::memory_order_relaxed);
    } else if (msg.kind == net::InvalKind::kCoarse) {
      coarse_sent_.fetch_add(1, std::memory_order_relaxed);
    } else if (msg.kind == net::InvalKind::kPublish) {
      publishes_sent_.fetch_add(1, std::memory_order_relaxed);
    }
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

TransportStats InvalidationChannel::stats() const {
  TransportStats s;
  s.messages_sent = messages_sent_.load(std::memory_order_relaxed);
  s.groups_sent = groups_sent_.load(std::memory_order_relaxed);
  s.rows_sent = rows_sent_.load(std::memory_order_relaxed);
  s.coarse_sent = coarse_sent_.load(std::memory_order_relaxed);
  s.publishes_sent = publishes_sent_.load(std::memory_order_relaxed);
  s.rtt_waits = rtt_waits_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace stratus
