#ifndef STRATUS_IMCS_SCAN_KERNELS_H_
#define STRATUS_IMCS_SCAN_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace stratus {

class BitPackedArray;

/// Which filter kernel evaluates predicates over bit-packed codes.
///
///   kScalar : per-row BitPackedArray::Get + compare — the seed behaviour,
///             kept as the baseline and the forced fallback.
///   kSwar   : portable 64-bit SWAR. Widths dividing 64 compare a whole
///             packed word of fields at once (Lamport's parallel unsigned
///             compare); other widths below 32 run a per-width 64-row group
///             kernel whose field extractions use constant word indexes and
///             shifts, and wider ones (and every tail group) a guarded
///             block kernel, all with branchless range checks.
///   kAvx2   : 256-bit specialization of the SWAR compare for byte-friendly
///             widths (4/8/16/32); other widths fall back to kSwar. Only
///             reachable on x86-64 builds whose CPU reports AVX2.
///
/// All three produce bit-identical match bitmaps; tests force each in turn.
enum class ScanKernel : uint8_t { kScalar = 0, kSwar = 1, kAvx2 = 2 };

const char* ScanKernelName(ScanKernel k);

/// True when this binary carries the AVX2 kernel and the CPU supports it.
bool Avx2Supported();

/// Kernel selection for this process: a test override (ForceScanKernel) wins,
/// then env STRATUS_FORCE_SCALAR=1 / STRATUS_SCAN_KERNEL=scalar|swar|avx2
/// (read once), then AVX2 if supported, else SWAR.
ScanKernel ActiveScanKernel();

/// Test hook: pin every subsequent ActiveScanKernel() to `k` (process-wide,
/// atomic — safe to flip between quiescent scans in multi-threaded tests).
void ForceScanKernel(ScanKernel k);
/// Test hook: drop the pin and return to env/CPU dispatch.
void ClearScanKernelOverride();

/// Per-scan attribution of which kernel actually did the work (a requested
/// AVX2 scan over an AVX2-unfriendly width is counted as SWAR, truthfully).
struct KernelCounters {
  uint64_t swar_words = 0;    ///< Output bitmap words built by SWAR compares.
  uint64_t avx2_words = 0;    ///< Output bitmap words built by AVX2 compares.
  uint64_t scalar_rows = 0;   ///< Rows evaluated one Get() at a time.

  void Add(const KernelCounters& o) {
    swar_words += o.swar_words;
    avx2_words += o.avx2_words;
    scalar_rows += o.scalar_rows;
  }
};

/// A predicate translated into code space, once per IMCU column: a code c
/// matches iff (lo <= c && c <= hi) XOR negate. `empty` short-circuits the
/// vector work entirely — no code matches (or, with negate, every code
/// matches; NULL masking still applies in the caller).
struct CodeRange {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool negate = false;
  bool empty = false;

  static CodeRange None() { return CodeRange{0, 0, false, true}; }
  static CodeRange All() { return CodeRange{0, 0, true, true}; }
  static CodeRange Exact(uint64_t c) { return CodeRange{c, c, false, false}; }
};

/// Evaluates `range` over the first `n` codes of `packed` with the requested
/// kernel, writing the match bitmap into `out` (BitmapWords(n) words, fully
/// overwritten, tail bits past n cleared). NULL masking is the caller's job.
/// `counters` may be null.
void FilterCodesBitmap(const BitPackedArray& packed, size_t n,
                       const CodeRange& range, ScanKernel kernel,
                       uint64_t* out, KernelCounters* counters);

// ---------------------------------------------------------------------------
// Bitmap helpers shared by the kernels and the scan engine's AND-combining.

inline size_t BitmapWords(size_t n) { return (n + 63) / 64; }

/// Zeroes the bits at positions >= n in the last word.
inline void BitmapClearTail(uint64_t* bm, size_t n) {
  if ((n & 63) != 0) bm[n >> 6] &= (uint64_t{1} << (n & 63)) - 1;
}

void BitmapFill(uint64_t* bm, size_t n, bool value);
void BitmapAnd(uint64_t* dst, const uint64_t* src, size_t words);
void BitmapAndNot(uint64_t* dst, const uint64_t* src, size_t words);
bool BitmapAny(const uint64_t* bm, size_t words);
uint64_t BitmapCount(const uint64_t* bm, size_t words);

/// Appends the positions of set bits, ascending.
void BitmapToRows(const uint64_t* bm, size_t words, std::vector<uint32_t>* out);

/// Calls f(position) for every set bit, ascending.
template <typename F>
inline void ForEachSetBit(const uint64_t* bm, size_t words, F&& f) {
  for (size_t w = 0; w < words; ++w) {
    uint64_t word = bm[w];
    while (word != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(word));
      word &= word - 1;
      f(static_cast<uint32_t>(w * 64 + bit));
    }
  }
}

}  // namespace stratus

#endif  // STRATUS_IMCS_SCAN_KERNELS_H_
