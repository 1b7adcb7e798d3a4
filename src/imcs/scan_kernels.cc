#include "imcs/scan_kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <utility>

#include "imcs/column_vector.h"

// The AVX2 specialization is compile-time gated to x86-64 GCC/Clang (the
// target attribute + runtime __builtin_cpu_supports check); everything else
// builds only the portable SWAR path.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define STRATUS_SCAN_AVX2 1
#include <immintrin.h>
#else
#define STRATUS_SCAN_AVX2 0
#endif

namespace stratus {

const char* ScanKernelName(ScanKernel k) {
  switch (k) {
    case ScanKernel::kScalar: return "scalar";
    case ScanKernel::kSwar: return "swar";
    case ScanKernel::kAvx2: return "avx2";
  }
  return "unknown";
}

bool Avx2Supported() {
#if STRATUS_SCAN_AVX2
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

namespace {

std::atomic<int> g_kernel_override{-1};

ScanKernel DispatchFromEnv() {
  const char* force = std::getenv("STRATUS_FORCE_SCALAR");
  if (force != nullptr && force[0] == '1') return ScanKernel::kScalar;
  const char* sel = std::getenv("STRATUS_SCAN_KERNEL");
  if (sel != nullptr) {
    const std::string s(sel);
    if (s == "scalar") return ScanKernel::kScalar;
    if (s == "swar") return ScanKernel::kSwar;
    if (s == "avx2") return Avx2Supported() ? ScanKernel::kAvx2 : ScanKernel::kSwar;
  }
  return Avx2Supported() ? ScanKernel::kAvx2 : ScanKernel::kSwar;
}

}  // namespace

ScanKernel ActiveScanKernel() {
  const int ov = g_kernel_override.load(std::memory_order_relaxed);
  if (ov >= 0) return static_cast<ScanKernel>(ov);
  static const ScanKernel env_kernel = DispatchFromEnv();
  return env_kernel;
}

void ForceScanKernel(ScanKernel k) {
  g_kernel_override.store(static_cast<int>(k), std::memory_order_relaxed);
}

void ClearScanKernelOverride() {
  g_kernel_override.store(-1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Bitmap helpers.

void BitmapFill(uint64_t* bm, size_t n, bool value) {
  std::fill(bm, bm + BitmapWords(n), value ? ~uint64_t{0} : uint64_t{0});
  if (value) BitmapClearTail(bm, n);
}

void BitmapAnd(uint64_t* dst, const uint64_t* src, size_t words) {
  for (size_t i = 0; i < words; ++i) dst[i] &= src[i];
}

void BitmapAndNot(uint64_t* dst, const uint64_t* src, size_t words) {
  for (size_t i = 0; i < words; ++i) dst[i] &= ~src[i];
}

bool BitmapAny(const uint64_t* bm, size_t words) {
  for (size_t i = 0; i < words; ++i) {
    if (bm[i] != 0) return true;
  }
  return false;
}

uint64_t BitmapCount(const uint64_t* bm, size_t words) {
  uint64_t c = 0;
  for (size_t i = 0; i < words; ++i) {
    c += static_cast<uint64_t>(__builtin_popcountll(bm[i]));
  }
  return c;
}

void BitmapToRows(const uint64_t* bm, size_t words, std::vector<uint32_t>* out) {
  ForEachSetBit(bm, words, [out](uint32_t r) { out->push_back(r); });
}

// ---------------------------------------------------------------------------
// Kernels. All compute, for each of the first n codes c, the bit
// (lo <= c && c <= hi) — callers express this as the branchless unsigned
// check (c - lo) <= (hi - lo). Negation and NULL masking happen above.

namespace {

/// Match bits for one group of up to 64 rows starting at `row0`, any width.
/// The cursor extraction reads two words per field: the straddle term is
/// written `(p[1] << 1) << (63 - sh)` because `p[1] << (64 - sh)` is UB at
/// sh == 0; BitPackedArray::Pack allocates a trailing guard word so p[1] is
/// always readable, including for the very last field.
template <unsigned W>
uint64_t BlockMatch64T(const uint64_t* words, size_t row0, unsigned count,
                       uint64_t lo, uint64_t span) {
  constexpr uint64_t kMask =
      W >= 64 ? ~uint64_t{0} : ((uint64_t{1} << W) - 1);
  uint64_t bm = 0;
  size_t bit = row0 * W;
  for (unsigned i = 0; i < count; ++i, bit += W) {
    const uint64_t* p = words + (bit >> 6);
    const unsigned sh = static_cast<unsigned>(bit & 63);
    const uint64_t v = ((p[0] >> sh) | ((p[1] << 1) << (63 - sh))) & kMask;
    bm |= static_cast<uint64_t>((v - lo) <= span) << i;
  }
  return bm;
}

uint64_t BlockMatch64Rt(unsigned w, const uint64_t* words, size_t row0,
                        unsigned count, uint64_t lo, uint64_t span) {
  const uint64_t mask = w >= 64 ? ~uint64_t{0} : ((uint64_t{1} << w) - 1);
  uint64_t bm = 0;
  size_t bit = row0 * w;
  for (unsigned i = 0; i < count; ++i, bit += w) {
    const uint64_t* p = words + (bit >> 6);
    const unsigned sh = static_cast<unsigned>(bit & 63);
    const uint64_t v = ((p[0] >> sh) | ((p[1] << 1) << (63 - sh))) & mask;
    bm |= static_cast<uint64_t>((v - lo) <= span) << i;
  }
  return bm;
}

uint64_t BlockMatch64(unsigned w, const uint64_t* words, size_t row0,
                      unsigned count, uint64_t lo, uint64_t span) {
  switch (w) {
#define STRATUS_BM_CASE(W) \
  case W:                  \
    return BlockMatch64T<W>(words, row0, count, lo, span);
    STRATUS_BM_CASE(1)
    STRATUS_BM_CASE(2)
    STRATUS_BM_CASE(3)
    STRATUS_BM_CASE(4)
    STRATUS_BM_CASE(5)
    STRATUS_BM_CASE(6)
    STRATUS_BM_CASE(7)
    STRATUS_BM_CASE(8)
    STRATUS_BM_CASE(9)
    STRATUS_BM_CASE(10)
    STRATUS_BM_CASE(11)
    STRATUS_BM_CASE(12)
    STRATUS_BM_CASE(13)
    STRATUS_BM_CASE(14)
    STRATUS_BM_CASE(15)
    STRATUS_BM_CASE(16)
    STRATUS_BM_CASE(17)
    STRATUS_BM_CASE(18)
    STRATUS_BM_CASE(19)
    STRATUS_BM_CASE(20)
    STRATUS_BM_CASE(21)
    STRATUS_BM_CASE(22)
    STRATUS_BM_CASE(23)
    STRATUS_BM_CASE(24)
    STRATUS_BM_CASE(25)
    STRATUS_BM_CASE(26)
    STRATUS_BM_CASE(27)
    STRATUS_BM_CASE(28)
    STRATUS_BM_CASE(29)
    STRATUS_BM_CASE(30)
    STRATUS_BM_CASE(31)
    STRATUS_BM_CASE(32)
#undef STRATUS_BM_CASE
    default:
      return BlockMatch64Rt(w, words, row0, count, lo, span);
  }
}

/// Match bit of field I in a full 64-row group of width W starting at `p`:
/// the field's word index and shift are compile-time constants, so the
/// extraction is one shift and mask, plus a second word only where the field
/// straddles one.
template <unsigned W, size_t I>
inline uint64_t FieldMatch64(const uint64_t* p, uint64_t lo, uint64_t span) {
  constexpr size_t kBit = I * W;
  constexpr unsigned kShift = kBit % 64;
  constexpr uint64_t kMask = (uint64_t{1} << W) - 1;
  uint64_t v = p[kBit / 64] >> kShift;
  if constexpr (kShift + W > 64) v |= p[kBit / 64 + 1] << (64 - kShift);
  return static_cast<uint64_t>(((v & kMask) - lo) <= span) << I;
}

template <unsigned W, size_t... I>
void SwarFilterUnalignedT(const uint64_t* words, size_t full_groups,
                          uint64_t lo, uint64_t span, uint64_t* out,
                          std::index_sequence<I...>) {
  for (size_t g = 0; g < full_groups; ++g) {
    const uint64_t* p = words + g * W;  // A 64-row group is exactly W words.
    out[g] = (FieldMatch64<W, I>(p, lo, span) | ...);
  }
}

/// Full 64-row groups of a width below 32 that does not divide 64: one
/// kernel per width, with all 64 extractions at constant word indexes and
/// shifts, so no field offset is computed at run time.
void SwarFilterUnaligned(unsigned w, const uint64_t* words, size_t full_groups,
                         uint64_t lo, uint64_t span, uint64_t* out) {
  switch (w) {
#define STRATUS_UNALIGNED_CASE(W)                                      \
  case W:                                                              \
    return SwarFilterUnalignedT<W>(words, full_groups, lo, span, out, \
                                   std::make_index_sequence<64>{});
    STRATUS_UNALIGNED_CASE(3)
    STRATUS_UNALIGNED_CASE(5)
    STRATUS_UNALIGNED_CASE(6)
    STRATUS_UNALIGNED_CASE(7)
    STRATUS_UNALIGNED_CASE(9)
    STRATUS_UNALIGNED_CASE(10)
    STRATUS_UNALIGNED_CASE(11)
    STRATUS_UNALIGNED_CASE(12)
    STRATUS_UNALIGNED_CASE(13)
    STRATUS_UNALIGNED_CASE(14)
    STRATUS_UNALIGNED_CASE(15)
    STRATUS_UNALIGNED_CASE(17)
    STRATUS_UNALIGNED_CASE(18)
    STRATUS_UNALIGNED_CASE(19)
    STRATUS_UNALIGNED_CASE(20)
    STRATUS_UNALIGNED_CASE(21)
    STRATUS_UNALIGNED_CASE(22)
    STRATUS_UNALIGNED_CASE(23)
    STRATUS_UNALIGNED_CASE(24)
    STRATUS_UNALIGNED_CASE(25)
    STRATUS_UNALIGNED_CASE(26)
    STRATUS_UNALIGNED_CASE(27)
    STRATUS_UNALIGNED_CASE(28)
    STRATUS_UNALIGNED_CASE(29)
    STRATUS_UNALIGNED_CASE(30)
    STRATUS_UNALIGNED_CASE(31)
#undef STRATUS_UNALIGNED_CASE
    default:
      for (size_t g = 0; g < full_groups; ++g)
        out[g] = BlockMatch64(w, words, g * 64, 64, lo, span);
  }
}

/// Extracts bits at even positions into the low 32 bits.
inline uint64_t CompactEven(uint64_t x) {
  x &= 0x5555555555555555ull;
  x = (x | (x >> 1)) & 0x3333333333333333ull;
  x = (x | (x >> 2)) & 0x0F0F0F0F0F0F0F0Full;
  x = (x | (x >> 4)) & 0x00FF00FF00FF00FFull;
  x = (x | (x >> 8)) & 0x0000FFFF0000FFFFull;
  x = (x | (x >> 16)) & 0x00000000FFFFFFFFull;
  return x;
}

/// Compacts the per-field top bits (positions k*w + w-1) of one packed word
/// into the low 64/w bits, field order preserved. w ∈ {2, 4, 8, 16, 32}.
/// The w=8/16 multipliers place top bit k at output position k with all
/// cross products landing at distinct positions (no carries).
inline uint64_t CompactTop(uint64_t t, unsigned w) {
  switch (w) {
    case 2:
      return CompactEven(t >> 1);
    case 4:
      return CompactEven(CompactEven(t >> 3));
    case 8:
      return (t * 0x0002040810204081ull) >> 56;
    case 16:
      return (t * 0x0000200040008001ull) >> 60;
    default:  // 32
      return ((t >> 31) & 1) | ((t >> 62) & 2);
  }
}

/// Width-1 fast path: each packed word IS 64 codes in {0, 1}.
void SwarFilterWidth1(const uint64_t* words, size_t full_groups, uint64_t lo,
                      uint64_t hi, uint64_t* out) {
  const uint64_t if0 = lo == 0 ? ~uint64_t{0} : 0;       // 0 in [lo, hi]
  const uint64_t if1 = (lo <= 1 && hi >= 1) ? ~uint64_t{0} : 0;
  for (size_t g = 0; g < full_groups; ++g) {
    const uint64_t x = words[g];
    out[g] = (if0 & ~x) | (if1 & x);
  }
}

/// Lamport's word-parallel unsigned compare for widths dividing 64
/// (w ∈ {2, 4, 8, 16, 32}): one packed word holds 64/w complete fields, a
/// 64-row group is exactly w words, and the in-range top bits of each word
/// compact into 64/w output bits — no field ever straddles a word.
void SwarFilterAligned(const uint64_t* words, size_t full_groups, unsigned w,
                       uint64_t lo, uint64_t hi, uint64_t* out) {
  const uint64_t mask = (uint64_t{1} << w) - 1;
  const uint64_t mult = ~uint64_t{0} / mask;           // broadcast multiplier
  const uint64_t H = (uint64_t{1} << (w - 1)) * mult;  // per-field top bits
  const uint64_t LO = lo * mult;
  const uint64_t HI = hi * mult;
  const uint64_t lo_low = LO & ~H;  // LO with top bits cleared
  const uint64_t hi_top = HI | H;   // HI with top bits forced
  const unsigned f = 64 / w;
  for (size_t g = 0; g < full_groups; ++g) {
    const uint64_t* p = words + g * w;
    uint64_t res = 0;
    for (unsigned s = 0; s < w; ++s) {
      const uint64_t x = p[s];
      // ge(x, LO): subtract low halves with the top bit forced so no borrow
      // crosses fields; combine with the top-bit comparison.
      const uint64_t d1 = (x | H) - lo_low;
      const uint64_t ge = ((x & ~LO) | (d1 & ~(x ^ LO))) & H;
      // ge(HI, x), i.e. x <= hi, same identity with the operands swapped.
      const uint64_t d2 = hi_top - (x & ~H);
      const uint64_t le = ((HI & ~x) | (d2 & ~(x ^ HI))) & H;
      res |= CompactTop(ge & le, w) << (s * f);
    }
    out[g] = res;
  }
}

void SwarFilter(const BitPackedArray& packed, size_t n, uint64_t lo,
                uint64_t hi, uint64_t* out) {
  const unsigned w = packed.width();
  const uint64_t* words = packed.words();
  const uint64_t span = hi - lo;
  const size_t full = n >> 6;
  if (w == 1) {
    SwarFilterWidth1(words, full, lo, hi, out);
  } else if (w <= 32 && 64 % w == 0) {
    SwarFilterAligned(words, full, w, lo, hi, out);
  } else if (w < 32) {
    SwarFilterUnaligned(w, words, full, lo, span, out);
  } else {
    for (size_t g = 0; g < full; ++g) {
      out[g] = BlockMatch64(w, words, g * 64, 64, lo, span);
    }
  }
  const unsigned tail = static_cast<unsigned>(n & 63);
  // The tail group always runs the guarded block kernel: a full-group
  // word-parallel pass would read packed words past the last row.
  if (tail != 0) out[full] = BlockMatch64(w, words, full * 64, tail, lo, span);
}

#if STRATUS_SCAN_AVX2

/// 256-bit version of SwarFilterAligned for w ∈ {4, 8, 16, 32}: the field
/// arithmetic stays inside 64-bit lanes (w divides 64), so epi64 adds give
/// the same bits as the scalar SWAR. w is a multiple of 4, so the 4-word
/// loads never cross a 64-row group boundary.
__attribute__((target("avx2"))) void Avx2FilterAligned(
    const uint64_t* words, size_t full_groups, unsigned w, uint64_t lo,
    uint64_t hi, uint64_t* out) {
  const uint64_t mask = (uint64_t{1} << w) - 1;
  const uint64_t mult = ~uint64_t{0} / mask;
  const uint64_t H = (uint64_t{1} << (w - 1)) * mult;
  const uint64_t LO = lo * mult;
  const uint64_t HI = hi * mult;
  const __m256i vH = _mm256_set1_epi64x(static_cast<long long>(H));
  const __m256i vLO = _mm256_set1_epi64x(static_cast<long long>(LO));
  const __m256i vHI = _mm256_set1_epi64x(static_cast<long long>(HI));
  const __m256i vLoLow = _mm256_set1_epi64x(static_cast<long long>(LO & ~H));
  const __m256i vHiTop = _mm256_set1_epi64x(static_cast<long long>(HI | H));
  const unsigned f = 64 / w;
  for (size_t g = 0; g < full_groups; ++g) {
    const uint64_t* p = words + g * w;
    uint64_t res = 0;
    unsigned outsh = 0;
    for (unsigned s = 0; s < w; s += 4, outsh += 4 * f) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + s));
      const __m256i d1 = _mm256_sub_epi64(_mm256_or_si256(x, vH), vLoLow);
      const __m256i ge = _mm256_and_si256(
          _mm256_or_si256(_mm256_andnot_si256(vLO, x),
                          _mm256_andnot_si256(_mm256_xor_si256(x, vLO), d1)),
          vH);
      const __m256i d2 = _mm256_sub_epi64(vHiTop, _mm256_andnot_si256(vH, x));
      const __m256i le = _mm256_and_si256(
          _mm256_or_si256(_mm256_andnot_si256(x, vHI),
                          _mm256_andnot_si256(_mm256_xor_si256(x, vHI), d2)),
          vH);
      const __m256i in = _mm256_and_si256(ge, le);
      if (w == 8) {
        // Top bits sit at byte MSBs: movemask compacts all 32 rows at once.
        res |= static_cast<uint64_t>(static_cast<uint32_t>(
                   _mm256_movemask_epi8(in)))
               << outsh;
      } else {
        const __m128i lo128 = _mm256_castsi256_si128(in);
        const __m128i hi128 = _mm256_extracti128_si256(in, 1);
        const uint64_t l0 = static_cast<uint64_t>(_mm_cvtsi128_si64(lo128));
        const uint64_t l1 =
            static_cast<uint64_t>(_mm_extract_epi64(lo128, 1));
        const uint64_t l2 = static_cast<uint64_t>(_mm_cvtsi128_si64(hi128));
        const uint64_t l3 =
            static_cast<uint64_t>(_mm_extract_epi64(hi128, 1));
        res |= CompactTop(l0, w) << outsh;
        res |= CompactTop(l1, w) << (outsh + f);
        res |= CompactTop(l2, w) << (outsh + 2 * f);
        res |= CompactTop(l3, w) << (outsh + 3 * f);
      }
    }
    out[g] = res;
  }
}

#endif  // STRATUS_SCAN_AVX2

/// True if the AVX2 kernel handled this (compiled in, CPU support, friendly
/// width); false sends the caller to SWAR.
bool Avx2FilterCodes(const BitPackedArray& packed, size_t n, uint64_t lo,
                     uint64_t hi, uint64_t* out) {
#if STRATUS_SCAN_AVX2
  const unsigned w = packed.width();
  if (!(w == 4 || w == 8 || w == 16 || w == 32)) return false;
  if (!Avx2Supported()) return false;
  const uint64_t* words = packed.words();
  const size_t full = n >> 6;
  Avx2FilterAligned(words, full, w, lo, hi, out);
  const unsigned tail = static_cast<unsigned>(n & 63);
  if (tail != 0) {
    out[full] = BlockMatch64(w, words, full * 64, tail, lo, hi - lo);
  }
  return true;
#else
  (void)packed;
  (void)n;
  (void)lo;
  (void)hi;
  (void)out;
  return false;
#endif
}

}  // namespace

void FilterCodesBitmap(const BitPackedArray& packed, size_t n,
                       const CodeRange& range, ScanKernel kernel,
                       uint64_t* out, KernelCounters* counters) {
  if (n == 0) return;
  const size_t nwords = BitmapWords(n);
  if (range.empty) {
    BitmapFill(out, n, range.negate);
    return;
  }
  if (packed.width() == 0) {
    // Constant column: every code is 0.
    BitmapFill(out, n, (range.lo == 0) != range.negate);
    return;
  }
  std::fill(out, out + nwords, uint64_t{0});
  switch (kernel) {
    case ScanKernel::kScalar: {
      const uint64_t span = range.hi - range.lo;
      for (size_t i = 0; i < n; ++i) {
        out[i >> 6] |=
            static_cast<uint64_t>((packed.Get(i) - range.lo) <= span)
            << (i & 63);
      }
      if (counters != nullptr) counters->scalar_rows += n;
      break;
    }
    case ScanKernel::kAvx2:
      if (Avx2FilterCodes(packed, n, range.lo, range.hi, out)) {
        if (counters != nullptr) counters->avx2_words += nwords;
        break;
      }
      [[fallthrough]];
    case ScanKernel::kSwar:
      SwarFilter(packed, n, range.lo, range.hi, out);
      if (counters != nullptr) counters->swar_words += nwords;
      break;
  }
  if (range.negate) {
    for (size_t i = 0; i < nwords; ++i) out[i] = ~out[i];
  }
  BitmapClearTail(out, n);
}

}  // namespace stratus
