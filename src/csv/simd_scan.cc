#include "csv/simd_scan.h"

#include <atomic>
#include <bit>
#include <cstring>
#include <utility>
#include <vector>

#include "common/thread_pool.h"

#if defined(__x86_64__) || defined(__i386__)
#define STRUDEL_SCAN_X86 1
#include <immintrin.h>
// The AVX-512 kernel needs compiler support for the avx512f/avx512bw
// target attributes; CMake probes for it and defines
// STRUDEL_HAVE_AVX512_TARGET (see the check_cxx_source_compiles block in
// the top-level CMakeLists.txt).
#if defined(STRUDEL_HAVE_AVX512_TARGET)
#define STRUDEL_SCAN_AVX512 1
#endif
#endif

#if defined(__aarch64__)
#define STRUDEL_SCAN_NEON 1
#include <arm_neon.h>
#endif

namespace strudel::csv {

namespace {

constexpr uint64_t kLowBytes = 0x0101010101010101ull;
constexpr uint64_t kHighBytes = 0x8080808080808080ull;

/// Loads 8 bytes as a little-endian word so that memory byte j is bit
/// range [8j, 8j+8) regardless of host endianness.
inline uint64_t LoadLe64(const char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

/// High bit of every byte of `word` equal to the broadcast `pattern`
/// byte. Branchless zero-byte test on `word ^ pattern`. The `x | high`
/// form keeps every byte of the minuend >= 0x80, so the per-byte
/// subtraction never borrows across byte lanes — the bare
/// `(x - kLow) & ~x & kHigh` variant reports a false positive in the
/// lane after a true match when that lane's xor is 0x01 (e.g. ',' at
/// byte j makes '-' at byte j+1 look like a delimiter).
inline uint64_t EqHighBits(uint64_t word, uint64_t pattern) {
  const uint64_t x = word ^ pattern;
  return ~(x | ((x | kHighBytes) - kLowBytes)) & kHighBytes;
}

/// Gathers the per-byte high bits into one 8-bit mask (bit j = byte j).
/// Each (source byte, magic bit) product lands on a distinct bit, so the
/// multiply is carry-free and exact.
inline uint64_t CollapseHighBits(uint64_t high) {
  return ((high >> 7) * 0x0102040810204080ull) >> 56;
}

}  // namespace

BlockBitmaps ScanBlockSwar(const char* block, char delimiter, char quote) {
  BlockBitmaps out;
  const uint64_t dpat = kLowBytes * static_cast<uint8_t>(delimiter);
  const uint64_t qpat = kLowBytes * static_cast<uint8_t>(quote);
  const uint64_t npat = kLowBytes * static_cast<uint8_t>('\n');
  const uint64_t rpat = kLowBytes * static_cast<uint8_t>('\r');
  for (int w = 0; w < 8; ++w) {
    const uint64_t word = LoadLe64(block + w * 8);
    const int shift = w * 8;
    out.delim |= CollapseHighBits(EqHighBits(word, dpat)) << shift;
    out.lf |= CollapseHighBits(EqHighBits(word, npat)) << shift;
    out.cr |= CollapseHighBits(EqHighBits(word, rpat)) << shift;
    if (quote != '\0') {
      out.quote |= CollapseHighBits(EqHighBits(word, qpat)) << shift;
    }
  }
  return out;
}

namespace {

#if STRUDEL_SCAN_X86

__attribute__((target("avx2"))) uint64_t Avx2EqMask(__m256i lo, __m256i hi,
                                                    char pattern) {
  const __m256i pat = _mm256_set1_epi8(pattern);
  const uint64_t lo_bits = static_cast<uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, pat)));
  const uint64_t hi_bits = static_cast<uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, pat)));
  return lo_bits | (hi_bits << 32);
}

__attribute__((target("avx2"))) BlockBitmaps ScanBlockAvx2(const char* block,
                                                           char delimiter,
                                                           char quote) {
  const __m256i lo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block));
  const __m256i hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 32));
  BlockBitmaps out;
  out.delim = Avx2EqMask(lo, hi, delimiter);
  out.lf = Avx2EqMask(lo, hi, '\n');
  out.cr = Avx2EqMask(lo, hi, '\r');
  if (quote != '\0') {
    out.quote = Avx2EqMask(lo, hi, quote);
  }
  return out;
}

#if STRUDEL_SCAN_AVX512

/// One masked compare per pattern: AVX-512BW's byte-equality compare
/// returns a 64-bit mask register, which *is* the block bitmap — no
/// movemask narrowing step at all.
__attribute__((target("avx512f,avx512bw"))) BlockBitmaps ScanBlockAvx512(
    const char* block, char delimiter, char quote) {
  const __m512i x = _mm512_loadu_si512(block);
  BlockBitmaps out;
  out.delim = _mm512_cmpeq_epi8_mask(x, _mm512_set1_epi8(delimiter));
  out.lf = _mm512_cmpeq_epi8_mask(x, _mm512_set1_epi8('\n'));
  out.cr = _mm512_cmpeq_epi8_mask(x, _mm512_set1_epi8('\r'));
  if (quote != '\0') {
    out.quote = _mm512_cmpeq_epi8_mask(x, _mm512_set1_epi8(quote));
  }
  return out;
}

#endif  // STRUDEL_SCAN_AVX512

#endif  // STRUDEL_SCAN_X86

#if STRUDEL_SCAN_NEON

/// NEON has no movemask instruction; narrow four 16-byte compare results
/// (each lane 0x00 or 0xFF) into one 64-bit mask by keeping one bit per
/// lane and folding pairwise. AND-ing with {0x01,0x02,...,0x80} leaves
/// lane j of each half holding its destination bit; three pairwise adds
/// collapse the four vectors into 8 bytes whose byte k is the mask byte
/// for input bytes [8k, 8k+8). (The simdjson aarch64 kernel uses the
/// same narrowing.)
inline uint64_t NeonMoveMask64(uint8x16_t m0, uint8x16_t m1, uint8x16_t m2,
                               uint8x16_t m3) {
  const uint8x16_t bit_mask = {0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40,
                               0x80, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20,
                               0x40, 0x80};
  const uint8x16_t t0 = vandq_u8(m0, bit_mask);
  const uint8x16_t t1 = vandq_u8(m1, bit_mask);
  const uint8x16_t t2 = vandq_u8(m2, bit_mask);
  const uint8x16_t t3 = vandq_u8(m3, bit_mask);
  const uint8x16_t sum0 = vpaddq_u8(t0, t1);
  const uint8x16_t sum1 = vpaddq_u8(t2, t3);
  const uint8x16_t sum = vpaddq_u8(vpaddq_u8(sum0, sum1), vdupq_n_u8(0));
  return vgetq_lane_u64(vreinterpretq_u64_u8(sum), 0);
}

inline uint64_t NeonEqMask64(uint8x16_t b0, uint8x16_t b1, uint8x16_t b2,
                             uint8x16_t b3, char pattern) {
  const uint8x16_t pat = vdupq_n_u8(static_cast<uint8_t>(pattern));
  return NeonMoveMask64(vceqq_u8(b0, pat), vceqq_u8(b1, pat),
                        vceqq_u8(b2, pat), vceqq_u8(b3, pat));
}

BlockBitmaps ScanBlockNeon(const char* block, char delimiter, char quote) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(block);
  const uint8x16_t b0 = vld1q_u8(p);
  const uint8x16_t b1 = vld1q_u8(p + 16);
  const uint8x16_t b2 = vld1q_u8(p + 32);
  const uint8x16_t b3 = vld1q_u8(p + 48);
  BlockBitmaps out;
  out.delim = NeonEqMask64(b0, b1, b2, b3, delimiter);
  out.lf = NeonEqMask64(b0, b1, b2, b3, '\n');
  out.cr = NeonEqMask64(b0, b1, b2, b3, '\r');
  if (quote != '\0') {
    out.quote = NeonEqMask64(b0, b1, b2, b3, quote);
  }
  return out;
}

#endif  // STRUDEL_SCAN_NEON

/// The kernel table, indexed by the integer value of SimdLevel. A null
/// entry means "not compiled into this binary" (the arch gate above
/// excluded it); a non-null entry may still need a CPUID check before it
/// is runnable (HostSupports below).
constexpr ScanBlockFn kKernelTable[] = {
    /*kSwar=*/&ScanBlockSwar,
#if STRUDEL_SCAN_X86
    /*kAvx2=*/&ScanBlockAvx2,
#else
    /*kAvx2=*/nullptr,
#endif
#if STRUDEL_SCAN_NEON
    /*kNeon=*/&ScanBlockNeon,
#else
    /*kNeon=*/nullptr,
#endif
#if STRUDEL_SCAN_AVX512
    /*kAvx512=*/&ScanBlockAvx512,
#else
    /*kAvx512=*/nullptr,
#endif
};
constexpr int kNumSimdLevels =
    static_cast<int>(sizeof(kKernelTable) / sizeof(kKernelTable[0]));

/// Whether the host CPU can execute `level`'s instructions (independent
/// of whether the kernel was compiled in). NEON is architecturally
/// mandatory on aarch64, so compiled-in implies supported.
bool HostSupports(SimdLevel level) {
  switch (level) {
    case SimdLevel::kSwar:
      return true;
    case SimdLevel::kAvx2:
#if STRUDEL_SCAN_X86
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case SimdLevel::kNeon:
#if STRUDEL_SCAN_NEON
      return true;
#else
      return false;
#endif
    case SimdLevel::kAvx512:
#if STRUDEL_SCAN_X86
      return __builtin_cpu_supports("avx512bw") != 0;
#else
      return false;
#endif
  }
  return false;
}

SimdLevel DetectSimdLevelUncached() {
  // Best runnable level per arch: AVX-512 beats AVX2 beats SWAR on x86
  // (one compare per pattern vs two-plus-movemask vs eight SWAR words);
  // NEON is the only vector level on aarch64.
  for (const SimdLevel level :
       {SimdLevel::kAvx512, SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (IsRunnable(level)) return level;
  }
  return SimdLevel::kSwar;
}

/// -1 = not forced; otherwise the int value of the forced SimdLevel.
std::atomic<int> g_forced_level{-1};

SimdLevel CurrentSimdLevel() {
  const int forced = g_forced_level.load(std::memory_order_relaxed);
  if (forced >= 0) {
    const SimdLevel level = static_cast<SimdLevel>(forced);
    // Forcing a kernel this build/host cannot run degrades to the
    // portable kernel, never to an illegal instruction. One predicate
    // covers every level — not an AVX2 special case — so a forced
    // kNeon on x86 or kAvx512 on an AVX2-only host behaves the same way.
    return IsRunnable(level) ? level : SimdLevel::kSwar;
  }
  return DetectSimdLevel();
}

}  // namespace

std::string_view ScanModeName(ScanMode mode) {
  switch (mode) {
    case ScanMode::kScalar:
      return "scalar";
    case ScanMode::kSwar:
      return "swar";
    case ScanMode::kAuto:
      return "auto";
  }
  return "unknown";
}

bool ParseScanMode(std::string_view name, ScanMode* mode) {
  if (name == "scalar") {
    *mode = ScanMode::kScalar;
  } else if (name == "swar") {
    *mode = ScanMode::kSwar;
  } else if (name == "auto") {
    *mode = ScanMode::kAuto;
  } else {
    return false;
  }
  return true;
}

std::string_view SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kSwar:
      return "swar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNeon:
      return "neon";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool ParseSimdLevel(std::string_view name, SimdLevel* level) {
  if (name == "swar") {
    *level = SimdLevel::kSwar;
  } else if (name == "avx2") {
    *level = SimdLevel::kAvx2;
  } else if (name == "neon") {
    *level = SimdLevel::kNeon;
  } else if (name == "avx512") {
    *level = SimdLevel::kAvx512;
  } else {
    return false;
  }
  return true;
}

bool IsRunnable(SimdLevel level) {
  const int i = static_cast<int>(level);
  if (i < 0 || i >= kNumSimdLevels) return false;
  return kKernelTable[i] != nullptr && HostSupports(level);
}

std::vector<SimdLevel> RunnableSimdLevels() {
  std::vector<SimdLevel> levels;
  for (int i = 0; i < kNumSimdLevels; ++i) {
    const SimdLevel level = static_cast<SimdLevel>(i);
    if (IsRunnable(level)) levels.push_back(level);
  }
  return levels;
}

SimdLevel DetectSimdLevel() {
  static const SimdLevel level = DetectSimdLevelUncached();
  return level;
}

void ForceSimdLevel(SimdLevel level) {
  g_forced_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void ResetSimdLevel() {
  g_forced_level.store(-1, std::memory_order_relaxed);
}

SimdLevel EffectiveSimdLevel() { return CurrentSimdLevel(); }

std::string_view ScanFallbackReasonName(ScanFallbackReason reason) {
  switch (reason) {
    case ScanFallbackReason::kNone:
      return "none";
    case ScanFallbackReason::kMultiCharDelimiter:
      return "multichar_delimiter";
    case ScanFallbackReason::kEscapeDialect:
      return "escape_dialect";
    case ScanFallbackReason::kDegenerateDialect:
      return "degenerate_dialect";
    case ScanFallbackReason::kRecoveryForced:
      return "recovery_forced";
  }
  return "unknown";
}

ScanFallbackReason IndexerFallbackReason(const Dialect& dialect) {
  if (dialect.has_multichar_delimiter()) {
    return ScanFallbackReason::kMultiCharDelimiter;
  }
  if (dialect.escape != '\0') {
    return ScanFallbackReason::kEscapeDialect;
  }
  const char delim = dialect.delimiter_text.empty()
                         ? dialect.delimiter
                         : dialect.delimiter_text[0];
  if (delim == '\0' || delim == '\n' || delim == '\r') {
    return ScanFallbackReason::kDegenerateDialect;
  }
  if (dialect.quote != '\0' &&
      (dialect.quote == delim || dialect.quote == '\n' ||
       dialect.quote == '\r')) {
    return ScanFallbackReason::kDegenerateDialect;
  }
  return ScanFallbackReason::kNone;
}

ScanBlockFn ResolveScanBlockFn(SimdLevel level) {
  if (!IsRunnable(level)) return &ScanBlockSwar;
  return kKernelTable[static_cast<int>(level)];
}

BlockBitmaps ScanBlock(const char* block, char delimiter, char quote,
                       SimdLevel level) {
  return ResolveScanBlockFn(level)(block, delimiter, quote);
}

uint64_t PrefixXor(uint64_t bits) {
  bits ^= bits << 1;
  bits ^= bits << 2;
  bits ^= bits << 4;
  bits ^= bits << 8;
  bits ^= bits << 16;
  bits ^= bits << 32;
  return bits;
}

namespace {

/// Whether `c` is a byte a well-placed quote may legally touch — the
/// byte-local component of the adjacency certificate. Must match the
/// `boundary` bitmap in ScanRange exactly: chunk entries use it to
/// compute prev_byte_is_boundary without scanning the previous chunk.
inline bool IsBoundaryByte(char c, char delim, char quote) {
  return c == delim || c == '\n' || c == '\r' ||
         (quote != '\0' && c == quote);
}

/// The pass-1 block loop over the half-open byte range [begin, end),
/// threading `entry` in and returning the state at `end`. `begin` must
/// be block-aligned (a multiple of 64); `end` is the range's exclusive
/// limit and may be unaligned only for the final chunk of the input.
/// Structural offsets are appended to *positions in ascending order.
/// This is the single scan implementation: the serial build runs it once
/// over [0, n) and the parallel build runs it per chunk, so the two
/// cannot drift apart.
ScanCarry ScanRange(std::string_view text, size_t begin, size_t end,
                    char delim, char quote, SimdLevel level,
                    bool prune_quoted_delimiters, ScanCarry entry,
                    std::vector<uint64_t>* positions) {
  uint64_t carry = entry.in_quote ? ~uint64_t{0} : 0;  // parity: 0 or ~0ull
  bool prev_last_is_boundary = entry.prev_byte_is_boundary;
  bool pending_close_check = entry.pending_close_check;
  bool clean = entry.clean;

  // Resolve the kernel once per range; the block loop pays one indirect
  // call per 64 bytes (the bench gates that overhead under 5%).
  const ScanBlockFn scan_block = ResolveScanBlockFn(level);

  for (size_t off = begin; off < end; off += 64) {
    const size_t len = end - off < 64 ? end - off : 64;
    BlockBitmaps bm;
    if (len == 64) {
      bm = scan_block(text.data() + off, delim, quote);
    } else {
      char buf[64] = {0};
      std::memcpy(buf, text.data() + off, len);
      bm = scan_block(buf, delim, quote);
      const uint64_t valid = (uint64_t{1} << len) - 1;
      bm.quote &= valid;
      bm.delim &= valid;
      bm.lf &= valid;
      bm.cr &= valid;
    }

    // Bytes a well-placed quote may legally touch: delimiters, line ends
    // and other quotes (quote doubling).
    const uint64_t boundary = bm.delim | bm.lf | bm.cr | bm.quote;

    // Carry-propagated quoted regions: inside_before bit i is the parity
    // of quote bits strictly before byte i, across all previous blocks.
    const uint64_t prefix_incl = PrefixXor(bm.quote) ^ carry;
    const uint64_t inside_before = (prefix_incl << 1) | (carry & 1);
    const uint64_t opening = bm.quote & ~inside_before;
    const uint64_t closing = bm.quote & inside_before;

    // Adjacency certificate. An opening quote must follow a boundary (or
    // start of input); a closing quote must precede one (or EOF). The
    // final-bit successor is unknowable until the next block, so it is
    // checked one iteration late.
    uint64_t anomalies = 0;
    if (pending_close_check) {
      if ((boundary & 1) == 0) anomalies |= 1;
      pending_close_check = false;
    }
    const uint64_t pred_ok =
        (boundary << 1) | (prev_last_is_boundary ? 1 : 0);
    anomalies |= opening & ~pred_ok;
    anomalies |= closing & ~(boundary >> 1) & ~(uint64_t{1} << 63);
    if (closing >> 63) pending_close_check = true;
    if (anomalies != 0) clean = false;

    // While the certificate holds, the parity regions coincide with the
    // reader's quoted state, so in-quote delimiters are field content and
    // can be pruned. The first anomalous block (and everything after it)
    // keeps every delimiter — pass 2 resolves them exactly.
    const uint64_t structural =
        bm.quote | bm.lf | bm.cr |
        ((clean && prune_quoted_delimiters) ? (bm.delim & ~inside_before)
                                            : bm.delim);

    uint64_t bits = structural;
    while (bits != 0) {
      positions->push_back(off +
                           static_cast<uint64_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }

    if (std::popcount(bm.quote) & 1) carry = ~carry;
    prev_last_is_boundary = (boundary >> 63) & 1;
  }

  ScanCarry exit;
  exit.in_quote = carry != 0;
  exit.prev_byte_is_boundary = prev_last_is_boundary;
  exit.pending_close_check = pending_close_check;
  exit.clean = clean;
  return exit;
}

}  // namespace

void BuildStructuralIndex(std::string_view text, const Dialect& dialect,
                          StructuralIndex* index,
                          bool prune_quoted_delimiters) {
  index->Clear();
  const SimdLevel level = CurrentSimdLevel();
  index->level = level;

  const size_t n = text.size();
  const char delim = dialect.delimiter_text.empty()
                         ? dialect.delimiter
                         : dialect.delimiter_text[0];
  const char quote = dialect.quote;
  index->num_blocks = (n + 63) / 64;
  // Typical verbose CSV runs 10-25% structural bytes; reserving for 1-in-8
  // avoids the early doubling churn without overcommitting on huge files.
  index->positions.reserve(n / 8 + 4);

  const ScanCarry exit = ScanRange(text, 0, n, delim, quote, level,
                                   prune_quoted_delimiters, ScanCarry{},
                                   &index->positions);
  // Odd quote parity at EOF: an unterminated quoted field. The pruning
  // already applied stays valid (the reader was genuinely inside the
  // quote), but the input is not certificate-clean.
  index->clean_quoting = exit.clean && !exit.in_quote;
}

void BuildStructuralIndexParallel(std::string_view text,
                                  const Dialect& dialect,
                                  const ParallelScanOptions& options,
                                  StructuralIndex* index) {
  const size_t n = text.size();
  size_t chunk = options.chunk_bytes < 64 ? 64 : options.chunk_bytes;
  chunk = (chunk + 63) & ~size_t{63};  // block-aligned chunk starts
  const size_t num_chunks = n == 0 ? 0 : (n + chunk - 1) / chunk;
  if (num_chunks <= 1) {
    BuildStructuralIndex(text, dialect, index,
                         options.prune_quoted_delimiters);
    return;
  }

  index->Clear();
  const SimdLevel level = CurrentSimdLevel();
  index->level = level;
  index->num_blocks = (n + 63) / 64;
  index->chunks = num_chunks;
  const char delim = dialect.delimiter_text.empty()
                         ? dialect.delimiter
                         : dialect.delimiter_text[0];
  const char quote = dialect.quote;
  const bool prune = options.prune_quoted_delimiters;

  std::vector<std::vector<uint64_t>> chunk_positions(num_chunks);
  std::vector<ScanCarry> entries(num_chunks);
  std::vector<ScanCarry> exits(num_chunks);

  const auto scan_chunk = [&](size_t i, const ScanCarry& entry) {
    const size_t begin = i * chunk;
    const size_t chunk_end = begin + chunk < n ? begin + chunk : n;
    chunk_positions[i].clear();
    chunk_positions[i].reserve((chunk_end - begin) / 8 + 4);
    exits[i] = ScanRange(text, begin, chunk_end, delim, quote, level, prune,
                         entry, &chunk_positions[i]);
  };

  // Phase 1 — speculative fan-out. Every chunk is scanned as if it
  // started outside any quote with a clean certificate and nothing
  // pending; only prev_byte_is_boundary is exact (it is byte-local).
  // Real-world files open and close quotes within a field, so the
  // guess holds for almost every boundary (Chang et al., SIGMOD 2019
  // measure >98%).
  (void)ParallelFor(
      options.num_threads, 0, num_chunks, /*grain=*/1,
      [&](size_t chunk_begin, size_t chunk_end_idx) {
        for (size_t i = chunk_begin; i < chunk_end_idx; ++i) {
          ScanCarry entry;  // the speculation
          if (i > 0) {
            entry.prev_byte_is_boundary =
                IsBoundaryByte(text[i * chunk - 1], delim, quote);
          }
          entries[i] = entry;
          scan_chunk(i, entry);
        }
        return Status::OK();
      });

  // Phase 2 — serial stitch. Fold the true carry left to right; any
  // chunk whose speculated entry differs from the true one is re-scanned
  // with the true entry (a "repair"). A repair can change that chunk's
  // exit and cascade into the next comparison, so in the worst case
  // (pathological quoting everywhere) this degrades to one serial scan —
  // time, never correctness. After the stitch every chunk was produced
  // from its true entry state, so the concatenation below is exactly
  // what the serial scan would have emitted.
  uint64_t repairs = 0;
  ScanCarry truth;  // defaults are the start-of-input state
  for (size_t i = 0; i < num_chunks; ++i) {
    // The exact prev-byte flag the chunk already used; a correct exit
    // from chunk i-1 always agrees with it, so only the speculated
    // bits (in_quote / pending_close_check / clean) can differ.
    truth.prev_byte_is_boundary = entries[i].prev_byte_is_boundary;
    if (!(truth == entries[i])) {
      ++repairs;
      scan_chunk(i, truth);
    }
    truth = exits[i];
  }
  index->speculation_repairs = repairs;
  index->clean_quoting = truth.clean && !truth.in_quote;

  // Concatenate the per-chunk offset runs (already globally ascending:
  // chunk i's offsets all precede chunk i+1's).
  std::vector<size_t> starts(num_chunks + 1, 0);
  for (size_t i = 0; i < num_chunks; ++i) {
    starts[i + 1] = starts[i] + chunk_positions[i].size();
  }
  index->positions.resize(starts[num_chunks]);
  (void)ParallelFor(options.num_threads, 0, num_chunks, /*grain=*/1,
                    [&](size_t chunk_begin, size_t chunk_end_idx) {
                      for (size_t i = chunk_begin; i < chunk_end_idx; ++i) {
                        if (chunk_positions[i].empty()) continue;
                        std::memcpy(index->positions.data() + starts[i],
                                    chunk_positions[i].data(),
                                    chunk_positions[i].size() *
                                        sizeof(uint64_t));
                      }
                      return Status::OK();
                    });
}

}  // namespace strudel::csv
