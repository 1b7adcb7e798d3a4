#ifndef STRATUS_PERSIST_REDO_ARCHIVE_H_
#define STRATUS_PERSIST_REDO_ARCHIVE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "persist/persist_io.h"
#include "persist/persist_options.h"
#include "redo/change_vector.h"

namespace stratus {
namespace persist {

/// The standby's archived redo for one shipped stream: CRC-checksummed,
/// length-prefixed batches appended to segment files. Each delivered batch is
/// stored as the wire carries it: one net::EncodeRedoBatch payload in the
/// same frame envelope (net::EncodeFrame, type kRedoBatch), so a torn tail on
/// disk is detected exactly the way a damaged frame is on the network:
/// kOutOfRange = clean truncation, kCorruption = damaged bytes or a payload
/// net::DecodeRedoBatch rejects — either way the scan truncates the tail and
/// recovery never replays it.
///
/// Invariants:
///  - appends are SCN-monotone (the shipped stream is);
///  - durable_scn() is the highest SCN an fsync has covered; with
///    SyncMode::kEveryBatch it equals the highest appended SCN;
///  - segments below a checkpoint's recovery floor are recyclable; the
///    active segment never is.
class RedoArchive {
 public:
  struct Options {
    std::string dir;
    uint32_t stream = 0;
    SyncMode sync = SyncMode::kEveryBatch;
    uint64_t segment_bytes = 4ull << 20;
    DiskFaultInjector* faults = nullptr;
  };

  /// Opens the archive, scanning existing segments: verifies every frame,
  /// truncates a torn/corrupt tail in the newest segment, and resumes the
  /// batch sequence and durable SCN from what survived.
  static StatusOr<std::unique_ptr<RedoArchive>> Open(const Options& options);

  RedoArchive(const RedoArchive&) = delete;
  RedoArchive& operator=(const RedoArchive&) = delete;

  /// Archives one delivered batch (called from the ReceivedLog tee, so the
  /// stream's delivery order is the archive order). Applies the configured
  /// sync mode; a batch carrying a commit CV forces fsync under
  /// kCommitBoundary.
  Status Append(const std::vector<RedoRecord>& records);

  /// Forces everything appended so far to stable storage.
  Status Sync();

  /// Deletes sealed segments whose highest SCN is <= `floor` (checkpoint
  /// progress made them dead weight). Returns the number recycled.
  StatusOr<size_t> Recycle(Scn floor);

  /// Reads every surviving record in SCN order (the scan re-verifies CRCs;
  /// damaged tails found here are truncated on disk too).
  Status ReadAll(std::vector<RedoRecord>* out);

  Scn durable_scn() const { return durable_scn_.load(std::memory_order_acquire); }
  Scn appended_scn() const { return appended_scn_.load(std::memory_order_acquire); }

  uint64_t archived_records() const { return archived_records_.load(std::memory_order_relaxed); }
  uint64_t archived_bytes() const { return archived_bytes_.load(std::memory_order_relaxed); }
  uint64_t fsyncs() const { return fsyncs_.load(std::memory_order_relaxed); }
  uint64_t truncated_tails() const { return truncated_tails_.load(std::memory_order_relaxed); }
  uint64_t segments_recycled() const { return segments_recycled_.load(std::memory_order_relaxed); }
  size_t segment_count() const;

 private:
  struct Segment {
    uint64_t index = 0;
    std::string path;
    Scn max_scn = kInvalidScn;
    uint64_t bytes = 0;
  };

  explicit RedoArchive(const Options& options) : options_(options) {}

  Status ScanExisting();
  Status RollLocked();
  std::string SegmentPath(uint64_t index) const;

  /// Scans one segment file: appends decoded records to `out` (if non-null),
  /// truncates a bad tail, and returns the segment's highest SCN.
  Status ScanSegment(Segment* seg, std::vector<RedoRecord>* out,
                     uint64_t* scanned_records = nullptr);

  Options options_;

  mutable std::mutex mu_;
  std::vector<Segment> segments_;       // Ordered; back() is active.
  std::unique_ptr<AppendFile> active_;  // Open handle for segments_.back().
  uint64_t next_seq_ = 1;               // Batch sequence (frame seq field).

  std::atomic<Scn> durable_scn_{kInvalidScn};
  std::atomic<Scn> appended_scn_{kInvalidScn};
  std::atomic<uint64_t> archived_records_{0};
  std::atomic<uint64_t> archived_bytes_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> truncated_tails_{0};
  std::atomic<uint64_t> segments_recycled_{0};
};

}  // namespace persist
}  // namespace stratus

#endif  // STRATUS_PERSIST_REDO_ARCHIVE_H_
