#include "persist/redo_archive.h"

#include <algorithm>
#include <cstdio>

#include "net/codec.h"
#include "net/wire.h"

namespace stratus {
namespace persist {

namespace {

bool HasCommit(const std::vector<RedoRecord>& records) {
  for (const RedoRecord& rec : records)
    for (const ChangeVector& cv : rec.cvs)
      if (cv.kind == CvKind::kTxnCommit) return true;
  return false;
}

}  // namespace

StatusOr<std::unique_ptr<RedoArchive>> RedoArchive::Open(const Options& options) {
  STRATUS_RETURN_IF_ERROR(EnsureDir(options.dir));
  std::unique_ptr<RedoArchive> archive(new RedoArchive(options));
  STRATUS_RETURN_IF_ERROR(archive->ScanExisting());
  return archive;
}

std::string RedoArchive::SegmentPath(uint64_t index) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%08llu.redo",
                static_cast<unsigned long long>(index));
  return options_.dir + "/" + name;
}

Status RedoArchive::ScanExisting() {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<std::string> names;
  Status s = ListDir(options_.dir, &names);
  if (!s.ok() && s.code() != Code::kNotFound) return s;
  for (const std::string& name : names) {
    unsigned long long index = 0;
    if (std::sscanf(name.c_str(), "seg-%08llu.redo", &index) != 1) continue;
    Segment seg;
    seg.index = index;
    seg.path = options_.dir + "/" + name;
    segments_.push_back(std::move(seg));
  }
  std::sort(segments_.begin(), segments_.end(),
            [](const Segment& a, const Segment& b) { return a.index < b.index; });
  uint64_t scanned_records = 0;
  uint64_t scanned_bytes = 0;
  for (Segment& seg : segments_) {
    STRATUS_RETURN_IF_ERROR(ScanSegment(&seg, nullptr, &scanned_records));
    scanned_bytes += seg.bytes;
  }
  // Counters reflect what the archive holds on disk, not just this
  // incarnation's appends, so a scrape right after restart tells the truth.
  archived_records_.store(scanned_records, std::memory_order_relaxed);
  archived_bytes_.store(scanned_bytes, std::memory_order_relaxed);
  if (segments_.empty()) {
    STRATUS_RETURN_IF_ERROR(RollLocked());
  } else {
    auto file = AppendFile::Open(segments_.back().path, options_.faults);
    STRATUS_RETURN_IF_ERROR(file.status());
    active_ = std::move(file).value();
  }
  // Everything that survived the scan is on stable storage by definition.
  durable_scn_.store(appended_scn_.load(std::memory_order_relaxed),
                     std::memory_order_release);
  return Status::OK();
}

Status RedoArchive::ScanSegment(Segment* seg, std::vector<RedoRecord>* out,
                                uint64_t* scanned_records) {
  std::string data;
  Status s = ReadFileFully(seg->path, &data, options_.faults);
  if (s.code() == Code::kNotFound) return Status::OK();
  STRATUS_RETURN_IF_ERROR(s);
  size_t pos = 0;
  while (pos < data.size()) {
    net::Frame frame;
    size_t consumed = 0;
    s = net::DecodeFrame(data.data() + pos, data.size() - pos, &frame, &consumed);
    if (!s.ok()) break;  // kOutOfRange (torn) or kCorruption — truncate here.
    // A frame that passes its CRC still guards against a decoder mismatch.
    std::vector<RedoRecord> records;
    s = net::DecodeRedoBatch(frame.payload, &records);
    if (!s.ok()) break;
    if (scanned_records != nullptr) *scanned_records += records.size();
    for (RedoRecord& rec : records) {
      if (rec.scn > appended_scn_.load(std::memory_order_relaxed))
        appended_scn_.store(rec.scn, std::memory_order_relaxed);
      if (rec.scn > seg->max_scn) seg->max_scn = rec.scn;
      if (out != nullptr) out->push_back(std::move(rec));
    }
    if (frame.seq >= next_seq_) next_seq_ = frame.seq + 1;
    pos += consumed;
  }
  if (pos < data.size()) {
    // Damaged or torn tail: cut it off so the bad bytes are gone for good
    // and a later scan cannot trip over them.
    STRATUS_RETURN_IF_ERROR(TruncateFile(seg->path, pos));
    truncated_tails_.fetch_add(1, std::memory_order_relaxed);
  }
  seg->bytes = pos;
  return Status::OK();
}

Status RedoArchive::RollLocked() {
  const uint64_t index = segments_.empty() ? 1 : segments_.back().index + 1;
  Segment seg;
  seg.index = index;
  seg.path = SegmentPath(index);
  auto file = AppendFile::Open(seg.path, options_.faults);
  STRATUS_RETURN_IF_ERROR(file.status());
  active_ = std::move(file).value();
  segments_.push_back(std::move(seg));
  return Status::OK();
}

Status RedoArchive::Append(const std::vector<RedoRecord>& records) {
  if (records.empty()) return Status::OK();
  net::Frame frame;
  frame.type = net::FrameType::kRedoBatch;
  frame.stream = options_.stream;
  frame.scn = records.back().scn;
  net::EncodeRedoBatch(records, &frame.payload);

  std::lock_guard<std::mutex> g(mu_);
  frame.seq = next_seq_++;
  std::string buf;
  net::EncodeFrame(frame, &buf);

  STRATUS_RETURN_IF_ERROR(active_->Append(buf));
  Segment& seg = segments_.back();
  seg.bytes += buf.size();
  if (frame.scn > seg.max_scn) seg.max_scn = frame.scn;
  archived_records_.fetch_add(records.size(), std::memory_order_relaxed);
  archived_bytes_.fetch_add(buf.size(), std::memory_order_relaxed);
  if (frame.scn > appended_scn_.load(std::memory_order_relaxed))
    appended_scn_.store(frame.scn, std::memory_order_release);

  const bool roll = seg.bytes >= options_.segment_bytes;
  const bool sync = options_.sync == SyncMode::kEveryBatch ||
                    (options_.sync == SyncMode::kCommitBoundary &&
                     (roll || HasCommit(records)));
  if (sync) {
    STRATUS_RETURN_IF_ERROR(active_->Sync());
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    durable_scn_.store(appended_scn_.load(std::memory_order_relaxed),
                       std::memory_order_release);
  }
  if (roll) STRATUS_RETURN_IF_ERROR(RollLocked());
  return Status::OK();
}

Status RedoArchive::Sync() {
  std::lock_guard<std::mutex> g(mu_);
  if (active_ != nullptr) {
    STRATUS_RETURN_IF_ERROR(active_->Sync());
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
  }
  durable_scn_.store(appended_scn_.load(std::memory_order_relaxed),
                     std::memory_order_release);
  return Status::OK();
}

StatusOr<size_t> RedoArchive::Recycle(Scn floor) {
  std::lock_guard<std::mutex> g(mu_);
  size_t recycled = 0;
  while (segments_.size() > 1 && segments_.front().max_scn != kInvalidScn &&
         segments_.front().max_scn <= floor) {
    STRATUS_RETURN_IF_ERROR(RemoveFile(segments_.front().path));
    segments_.erase(segments_.begin());
    ++recycled;
  }
  segments_recycled_.fetch_add(recycled, std::memory_order_relaxed);
  return recycled;
}

Status RedoArchive::ReadAll(std::vector<RedoRecord>* out) {
  std::lock_guard<std::mutex> g(mu_);
  out->clear();
  for (Segment& seg : segments_) STRATUS_RETURN_IF_ERROR(ScanSegment(&seg, out));
  return Status::OK();
}

size_t RedoArchive::segment_count() const {
  std::lock_guard<std::mutex> g(mu_);
  return segments_.size();
}

}  // namespace persist
}  // namespace stratus
