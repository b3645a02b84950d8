// Branchless two-pass CSV structural indexing (pass 1 of the accelerated
// scan path).
//
// Pass 1 walks the input in 64-byte blocks and builds one bitmap per
// structural byte class (quote, delimiter, LF, CR) per block, using either
// a portable 64-bit SWAR kernel or an AVX2 kernel selected by runtime
// dispatch. Quoted regions are resolved across block boundaries with a
// carry-propagated prefix-XOR of the quote bitmap, and a cheap adjacency
// certificate ("clean quoting") is computed at the same time: every quote
// must open at a field boundary and close into a field boundary, and the
// quote parity must return to zero at EOF. While the certificate holds,
// delimiters inside quoted regions are provably field *content* under the
// reader's state machine and are pruned from the index; the moment a block
// trips the certificate, pruning stops and every delimiter from that block
// on is kept, so messy real-world files degrade to a denser index, never
// to a wrong one.
//
// The output is a StructuralIndex: the ascending byte offsets of every
// byte the reader's state machine branches on. Pass 2 (csv/reader.cc)
// replays the exact scalar state machine over just those offsets,
// bulk-appending the ordinary byte runs in between, which makes it
// byte-equivalent to the scalar reader by construction — same cells, same
// diagnostics, same statuses. The differential suite
// (tests/csv/differential_reader_test.cc) enforces that equivalence over
// the fault-injection corpus and tens of thousands of generated files.
//
// Dialects the indexer cannot express (multi-character delimiters,
// backslash-style escape characters, degenerate combinations) are
// reported through IndexerFallbackReason; ScanMode::kAuto then routes to
// the scalar reader and ScanMode::kSwar fails with kUnsupportedDialect.

#ifndef STRUDEL_CSV_SIMD_SCAN_H_
#define STRUDEL_CSV_SIMD_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "csv/dialect.h"
#include "csv/mmap_source.h"

namespace strudel::csv {

/// How ParseCsv scans the input. kAuto (the default) uses the structural
/// indexer whenever the dialect supports it and falls back to the scalar
/// state machine otherwise; kSwar demands the indexer (kUnsupportedDialect
/// when the dialect cannot be expressed); kScalar forces the byte-at-a-time
/// reference reader.
enum class ScanMode {
  kScalar = 0,
  kSwar = 1,
  kAuto = 2,
};

std::string_view ScanModeName(ScanMode mode);
/// Parses "scalar" / "swar" / "auto" (as typed at the CLI). Returns false
/// on anything else, leaving *mode untouched.
bool ParseScanMode(std::string_view name, ScanMode* mode);

/// Which pass-1 kernel is in use. kSwar is the portable 64-bit fallback
/// and is always runnable; the vector levels are compiled in per-arch
/// (AVX2/AVX-512 behind per-function target attributes on x86, NEON on
/// aarch64) and selected by runtime dispatch. The numeric values are
/// stored in the forced-level atomic.
enum class SimdLevel {
  kSwar = 0,
  kAvx2 = 1,
  kNeon = 2,
  kAvx512 = 3,
};

std::string_view SimdLevelName(SimdLevel level);
/// Parses "swar" / "avx2" / "neon" / "avx512". Returns false on anything
/// else, leaving *level untouched.
bool ParseSimdLevel(std::string_view name, SimdLevel* level);

/// Whether `level`'s kernel is compiled into this binary AND the host CPU
/// can execute it. kSwar is always runnable; kNeon requires an aarch64
/// build; kAvx2/kAvx512 require an x86 build plus the matching CPUID
/// feature (avx2 / avx512bw). Dispatch, the forced-level guard, tests and
/// benches all consult this one predicate, so "runnable" cannot drift
/// between them.
bool IsRunnable(SimdLevel level);

/// Every runnable level, ascending (kSwar first). The sweep domain for
/// differential tests and per-level bench timings.
std::vector<SimdLevel> RunnableSimdLevels();

/// The best kernel the host supports (cached after the first call).
SimdLevel DetectSimdLevel();

/// Test/bench hook: pin the pass-1 kernel (e.g. to compare levels head to
/// head). Forcing a level that is not runnable on this build/host is not
/// fatal: dispatch degrades to kSwar (see IsRunnable).
void ForceSimdLevel(SimdLevel level);
/// Undo ForceSimdLevel and return to runtime detection.
void ResetSimdLevel();

/// The level kernels actually run at right now: the forced level when one
/// is pinned (and runnable), otherwise DetectSimdLevel(). Every SIMD call
/// site outside pass 1 (e.g. the feature-text kernels) dispatches on this
/// so ForceSimdLevel keeps governing the whole kernel surface.
SimdLevel EffectiveSimdLevel();

/// Why a dialect is routed to the scalar reader (the fallback matrix).
/// The first four are dialect-shaped and decided inside ParseCsv;
/// kRecoveryForced is decided one layer up, by ingestion's recovery
/// retry, which re-parses conservatively on the scalar path after the
/// primary parse fails. Doctor reports the distinction: an unsupported
/// dialect is a capability gap, a recovery-forced fallback is a damaged
/// input.
enum class ScanFallbackReason {
  kNone = 0,             // indexer supports this dialect
  kMultiCharDelimiter,   // delimiter_text longer than one byte
  kEscapeDialect,        // escape character set (backslash-style quoting)
  kDegenerateDialect,    // delimiter collides with quote / newline / NUL
  kRecoveryForced,       // ingest retried in recovery mode on the scalar path
};

std::string_view ScanFallbackReasonName(ScanFallbackReason reason);

/// kNone when the structural indexer can express `dialect`.
ScanFallbackReason IndexerFallbackReason(const Dialect& dialect);
inline bool IndexerSupportsDialect(const Dialect& dialect) {
  return IndexerFallbackReason(dialect) == ScanFallbackReason::kNone;
}

/// Pass-1 output: the ascending offsets of every structural byte, plus
/// what the scan learned about the input on the way.
struct StructuralIndex {
  /// Offsets of quote / delimiter / LF / CR bytes, ascending. Delimiters
  /// provably inside quoted fields are pruned while `clean_quoting`
  /// holds (see file comment).
  std::vector<uint64_t> positions;
  /// True when every quote satisfied the adjacency certificate and the
  /// quote parity closed at EOF. On such inputs the lenient parse is
  /// guaranteed diagnostic-free for quote anomalies.
  bool clean_quoting = true;
  /// Number of 64-byte blocks scanned (including the final partial one).
  uint64_t num_blocks = 0;
  /// Kernel that produced the bitmaps.
  SimdLevel level = SimdLevel::kSwar;
  /// Chunks the speculative parallel build split the input into (1 for a
  /// serial build).
  uint64_t chunks = 1;
  /// Chunks whose speculated entry state was wrong and had to be
  /// re-scanned during the stitch (0 for a serial build).
  uint64_t speculation_repairs = 0;

  void Clear() {
    positions.clear();
    clean_quoting = true;
    num_blocks = 0;
    level = SimdLevel::kSwar;
    chunks = 1;
    speculation_repairs = 0;
  }
};

/// Pass 1: scans `text` under `dialect` and fills `*index`. The dialect
/// must be indexer-supported (IndexerSupportsDialect). Deterministic:
/// identical input and dialect yield identical indexes at every SimdLevel.
///
/// `prune_quoted_delimiters` = false keeps every delimiter in the index
/// even while the certificate holds. Pass 2 needs that whenever its replay
/// can reset quote state mid-stream — oversize-line recovery force-closes
/// an open quote and resyncs at the next newline, at which point bytes the
/// parity scan proved "inside a quote" become structural again. The
/// certificate itself is still computed and reported.
void BuildStructuralIndex(std::string_view text, const Dialect& dialect,
                          StructuralIndex* index,
                          bool prune_quoted_delimiters = true);

/// The cross-block scan state threaded through pass 1: everything the
/// per-64-byte-block loop carries from one block to the next. A chunk of
/// the input can be scanned independently given the ScanCarry at its
/// entry — that is the whole basis of the speculative parallel build,
/// which guesses the entry state (not-in-quote, nothing pending, clean)
/// and repairs chunks whose guess the left-to-right stitch disproves.
struct ScanCarry {
  /// Quote parity: true when the byte before the chunk lies inside a
  /// quoted region. The one bit speculation can get wrong.
  bool in_quote = false;
  /// Whether the byte immediately before the chunk is a boundary byte
  /// (delimiter / LF / CR / quote). Byte-local, so chunk entries compute
  /// it exactly — it is never speculated.
  bool prev_byte_is_boundary = true;  // start-of-input is a boundary
  /// A closing quote sat on the last bit of the previous block; its
  /// successor-boundary check is owed by the next block scanned.
  bool pending_close_check = false;
  /// The adjacency certificate has held so far; while true (and pruning
  /// is on) in-quote delimiters are dropped from the index.
  bool clean = true;

  friend bool operator==(const ScanCarry&, const ScanCarry&) = default;
};

/// Production chunk size for the speculative parallel build: large
/// enough that per-chunk setup and the serial stitch are noise, small
/// enough that a 1 GB file fans out across a pool. (Chang et al.,
/// SIGMOD 2019 use the same order of magnitude.)
inline constexpr size_t kDefaultScanChunkBytes = size_t{32} << 20;

struct ParallelScanOptions {
  /// Worker threads for the chunk fan-out: 0 = hardware concurrency,
  /// 1 = scan chunks serially (still exercising speculation + stitch).
  int num_threads = 0;
  /// Chunk size in bytes; rounded up to a multiple of 64 (the block
  /// size) with a floor of 64. Production callers keep the default;
  /// tests shrink it to force many boundaries on tiny inputs.
  size_t chunk_bytes = kDefaultScanChunkBytes;
  bool prune_quoted_delimiters = true;
};

/// Pass 1, chunk-parallel: splits `text` into chunks, scans each with a
/// speculated entry ScanCarry in parallel (common/thread_pool.h), then
/// stitches left to right, re-scanning any chunk whose actual entry
/// state differs from the speculation. The output StructuralIndex is
/// bit-identical to BuildStructuralIndex on the same input at any thread
/// count and chunk size — misprediction costs one extra scan of the
/// affected chunks, never correctness — which the differential suite
/// enforces over the fault + boundary-adversarial corpora. Inputs that
/// fit in a single chunk take the serial path unchanged.
void BuildStructuralIndexParallel(std::string_view text,
                                  const Dialect& dialect,
                                  const ParallelScanOptions& options,
                                  StructuralIndex* index);

/// One 64-byte block's structural bitmaps; bit i = byte i of the block.
/// Exposed for the kernel unit tests and the bitmap documentation in
/// DESIGN.md — production callers use BuildStructuralIndex.
struct BlockBitmaps {
  uint64_t quote = 0;
  uint64_t delim = 0;
  uint64_t lf = 0;
  uint64_t cr = 0;
};

/// One per-block kernel: scans exactly 64 bytes at `block` into the four
/// structural bitmaps. Every backend (SWAR, AVX2, NEON, AVX-512) has this
/// signature; a table indexed by SimdLevel maps levels to kernels.
using ScanBlockFn = BlockBitmaps (*)(const char* block, char delimiter,
                                     char quote);

/// The kernel for `level`, degraded to the SWAR kernel when `level` is
/// not runnable on this build/host (never null). The scan loop resolves
/// this once per range, not per block, so dispatch costs one indirect
/// call per 64 bytes — the bench's dispatch-overhead metric holds that
/// under 5% of the SWAR kernel's own cost.
ScanBlockFn ResolveScanBlockFn(SimdLevel level);

/// The portable SWAR kernel, exposed directly so the bench can measure
/// dispatch overhead (direct call vs through ResolveScanBlockFn).
BlockBitmaps ScanBlockSwar(const char* block, char delimiter, char quote);

/// Scans exactly 64 bytes at `block` with the requested kernel. `quote`
/// may be '\0' (no quoting), which leaves the quote bitmap empty.
/// Convenience wrapper over ResolveScanBlockFn for one-shot callers.
BlockBitmaps ScanBlock(const char* block, char delimiter, char quote,
                       SimdLevel level);

/// Prefix XOR over the 64 bits of `bits`: result bit i is the XOR of bits
/// 0..i. The carry-propagation primitive for quoted-region resolution.
uint64_t PrefixXor(uint64_t bits);

/// Telemetry sink for one ParseCsv call (set ReaderOptions::scan_telemetry
/// to observe which path actually ran — the fallback decisions are
/// otherwise invisible by design, since results are identical).
struct ScanTelemetry {
  ScanMode requested = ScanMode::kAuto;
  /// True when the structural-index path produced the result.
  bool used_index = false;
  SimdLevel level = SimdLevel::kSwar;
  ScanFallbackReason fallback = ScanFallbackReason::kNone;
  /// Structural bytes indexed (0 on the scalar path).
  size_t structural_count = 0;
  bool clean_quoting = false;
  /// Chunks the speculative parallel build used (1 = serial build).
  size_t parallel_chunks = 1;
  /// Chunks re-scanned because their speculated entry state was wrong.
  size_t speculation_repairs = 0;
  /// How the input bytes were loaded (filled by file-backed callers;
  /// in-memory parses keep the default with from_file = false).
  IoTelemetry io;
};

}  // namespace strudel::csv

#endif  // STRUDEL_CSV_SIMD_SCAN_H_
