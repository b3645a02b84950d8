// CSV reading: raw text -> rows of cells -> Table, under a given Dialect.
//
// The parser is a state machine handling quoted fields, quote doubling, an
// optional escape character, multi-character delimiters, embedded newlines
// inside quoted fields, and both \n and \r\n line endings. Two scan paths
// drive the same state machine (ReaderOptions::scan_mode):
//
//  - scalar: the byte-at-a-time reference loop.
//  - swar:   a branchless two-pass structural indexer (csv/simd_scan.h)
//    finds every byte the state machine branches on, then the machine is
//    replayed over just those offsets with the ordinary runs in between
//    bulk-appended. Byte-equivalent to scalar by construction and enforced
//    by tests/csv/differential_reader_test.cc.
//  - auto (default): swar when the dialect supports it, scalar otherwise.
//
// Malformed structure is governed by a RecoveryPolicy: strict mode turns
// the first anomaly into a ParseError, lenient mode (the default) keeps
// the bytes verbatim, and recover mode additionally force-closes
// unterminated quotes, normalizes ragged rows against the modal width and
// enforces size budgets by truncating instead of failing. Every tolerated
// anomaly can be observed through an optional ParseDiagnostics sink.

#ifndef STRUDEL_CSV_READER_H_
#define STRUDEL_CSV_READER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "csv/dialect.h"
#include "csv/diagnostics.h"
#include "csv/mmap_source.h"
#include "csv/simd_scan.h"
#include "csv/table.h"

namespace strudel {
class ExecutionBudget;
}  // namespace strudel

namespace strudel::csv {

enum class RecoveryPolicy {
  /// Any structural anomaly is a ParseError.
  kStrict = 0,
  /// Anomalous bytes are kept verbatim (mid-field quotes, text after a
  /// closing quote, unterminated quote at EOF). Budget overruns still
  /// fail. This matches real-world verbose files and is the default.
  kLenient = 1,
  /// Never fails on content: like lenient, plus budget overruns truncate
  /// instead of erroring, parsing stops gracefully at max_cells, and
  /// ragged rows are padded/truncated against the modal row width.
  kRecover = 2,
};

std::string_view RecoveryPolicyName(RecoveryPolicy policy);

struct ReaderOptions {
  Dialect dialect = Rfc4180Dialect();
  RecoveryPolicy policy = RecoveryPolicy::kLenient;
  /// Hard cap against pathological inputs.
  size_t max_cells = 100'000'000;
  /// Budget for a single physical line (bytes between newlines). Guards
  /// against a dropped quote swallowing the rest of the file into one
  /// cell. 0 disables the check.
  size_t max_line_bytes = 16u << 20;
  /// Budget for the whole input. 0 disables the check.
  size_t max_total_bytes = size_t{1} << 30;
  /// Which scan path parses the input. Both paths produce bit-identical
  /// results; kAuto routes dialects the indexer cannot express (see
  /// csv/simd_scan.h) to the scalar loop, while kSwar makes that an
  /// kUnsupportedDialect error.
  ScanMode scan_mode = ScanMode::kAuto;
  /// Optional diagnostics sink (not owned). Populated in lenient and
  /// recover mode with every tolerated anomaly.
  ParseDiagnostics* diagnostics = nullptr;
  /// Optional execution budget (not owned). Checked when parsing starts
  /// and charged one unit per emitted row, in 1024-row batches, at the
  /// same points on both scan paths. Exhaustion fails the parse in strict
  /// and lenient mode; recover mode stops gracefully with a
  /// kBudgetExhausted diagnostic, keeping complete rows.
  ExecutionBudget* budget = nullptr;
  /// Optional telemetry sink (not owned). Records which scan path ran and
  /// why, since fallbacks are invisible in the (identical) results.
  ScanTelemetry* scan_telemetry = nullptr;
  /// Threads for the speculative chunk-parallel structural index (0 =
  /// hardware concurrency, 1 = serial). Results are bit-identical at any
  /// count; inputs smaller than one chunk always build serially.
  int num_threads = 0;
  /// Chunk size for the parallel index build. Production callers keep
  /// the default (~32 MB); tests shrink it to force chunk boundaries
  /// inside small inputs.
  size_t parallel_chunk_bytes = kDefaultScanChunkBytes;
  /// How the file-backed entry points (ReadTableFromFile, IngestFile)
  /// load the bytes. Ignored by the in-memory entry points.
  IoMode io_mode = IoMode::kAuto;
  /// How the input bytes were loaded; set by the file-backed entry
  /// points and copied into ScanTelemetry so doctor can attribute I/O
  /// routing the same way it attributes scan fallbacks.
  IoTelemetry io;
};

/// Parses CSV text into rows of cell values. Under
/// RecoveryPolicy::kRecover this never returns an error for content;
/// scan_mode=swar on an unsupported dialect and I/O-level failures are
/// configuration errors and still surface.
Result<std::vector<std::vector<std::string>>> ParseCsv(
    std::string_view text, const ReaderOptions& options = {});

/// Parses CSV text directly into a Table.
Result<Table> ReadTable(std::string_view text,
                        const ReaderOptions& options = {});

/// Reads a file from disk and parses it.
Result<Table> ReadTableFromFile(const std::string& path,
                                const ReaderOptions& options = {});

/// Reads a whole file into memory. Rejects directories, distinguishes
/// open failures from mid-read I/O errors, and verifies the byte count
/// against the file size so short reads surface as IOError instead of
/// silently parsing a truncated buffer.
Result<std::string> ReadFileToString(const std::string& path);

}  // namespace strudel::csv

#endif  // STRUDEL_CSV_READER_H_
