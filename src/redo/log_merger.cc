#include "redo/log_merger.h"

namespace stratus {

bool LogMerger::Next(RedoRecord* out, int64_t timeout_us) {
  // One locked read per stream, so each stream's head, watermark and
  // drained-ness are mutually consistent. The candidate is the smallest head.
  // It is emittable iff no open, empty stream has a watermark below it: a
  // stream with a head has nothing smaller to come (per-stream SCN order),
  // and a drained closed stream has nothing at all. `low` is the open, empty
  // stream with the lowest watermark; if anything blocks, it does.
  int best = -1;
  int low = -1;
  for (size_t i = 0; i < streams_.size(); ++i) {
    peeks_[i] = streams_[i]->Peek();
    const ReceivedLog::PeekState& p = peeks_[i];
    const int idx = static_cast<int>(i);
    if (p.head != kInvalidScn) {
      if (best < 0 || p.head < peeks_[best].head) best = idx;
    } else if (!p.finished) {
      if (low < 0 || p.watermark < peeks_[low].watermark) low = idx;
    }
  }
  // Only this merger pops, so the head it read is still the head.
  if (best >= 0 && (low < 0 || peeks_[low].watermark >= peeks_[best].head) &&
      streams_[best]->Pop(out)) {
    ++emitted_;
    return true;
  }
  // Stalled (or every stream finished). Only `low` moving can unblock: any
  // record another stream delivers lies above that stream's watermark, which
  // is at least `low`'s, so `low` blocks it too. Waiting from the watermark
  // read above makes a delivery in between wake the wait at once.
  if (low >= 0 && timeout_us > 0)
    streams_[low]->WaitForProgress(peeks_[low].watermark, timeout_us);
  return false;
}

bool LogMerger::Finished() const {
  for (ReceivedLog* s : streams_) {
    if (!s->Peek().finished) return false;
  }
  return true;
}

}  // namespace stratus
