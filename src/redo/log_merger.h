#ifndef STRATUS_REDO_LOG_MERGER_H_
#define STRATUS_REDO_LOG_MERGER_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "redo/log_shipping.h"

namespace stratus {

/// The standby Log Merger (Section II.A): re-establishes total SCN order over
/// the redo streams shipped from each primary instance. A record with SCN `s`
/// is emitted only once every other stream is known to have no pending record
/// with a smaller SCN (its delivered watermark has passed `s`); idle streams
/// advance via shipper heartbeats.
class LogMerger {
 public:
  explicit LogMerger(std::vector<ReceivedLog*> streams)
      : streams_(std::move(streams)), peeks_(streams_.size()) {}

  LogMerger(const LogMerger&) = delete;
  LogMerger& operator=(const LogMerger&) = delete;

  /// Produces the next record in global SCN order. On a stall, blocks up to
  /// `timeout_us` on the stream that blocks it (0 = do not wait). Returns
  /// false if nothing could be emitted (caller checks `Finished()` to
  /// distinguish end-of-stream from a stall). Single consumer.
  bool Next(RedoRecord* out, int64_t timeout_us);

  /// True when every stream is closed and drained.
  bool Finished() const;

  uint64_t emitted_records() const { return emitted_; }

 private:
  std::vector<ReceivedLog*> streams_;
  std::vector<ReceivedLog::PeekState> peeks_;  ///< Next()'s per-stream reads.
  uint64_t emitted_ = 0;
};

}  // namespace stratus

#endif  // STRATUS_REDO_LOG_MERGER_H_
