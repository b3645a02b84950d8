#include "csv/reader.h"

#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>

#include "common/execution_budget.h"
#include "common/io_retry.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "csv/simd_scan.h"

namespace strudel::csv {

namespace {

// Recover-mode post-pass: pad/truncate ragged rows against the modal row
// width so a corrupted file still yields a coherent grid. Each adjusted
// row is reported; padding is lossless (Table reads missing cells as
// empty anyway), truncation drops cells and is flagged as a warning.
void NormalizeRaggedRows(std::vector<std::vector<std::string>>& rows,
                         ParseDiagnostics* diags) {
  if (rows.size() < 2) return;
  std::map<size_t, size_t> width_counts;
  for (const auto& row : rows) ++width_counts[row.size()];
  if (width_counts.size() < 2) return;
  size_t modal_width = 0, modal_count = 0;
  for (const auto& [width, count] : width_counts) {
    // >= prefers the wider pattern on ties: padding beats truncation.
    if (count >= modal_count) {
      modal_width = width;
      modal_count = count;
    }
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    auto& row = rows[r];
    if (row.size() == modal_width) continue;
    if (row.size() < modal_width) {
      if (diags != nullptr) {
        diags->Add(DiagnosticSeverity::kInfo, DiagnosticCategory::kRaggedRow,
                   r + 1, 0,
                   StrFormat("row padded from %zu to the modal %zu cells",
                             row.size(), modal_width));
      }
      row.resize(modal_width);
    } else {
      // Only non-empty dropped cells constitute data loss.
      size_t dropped = 0;
      for (size_t c = modal_width; c < row.size(); ++c) {
        if (!TrimView(row[c]).empty()) ++dropped;
      }
      if (diags != nullptr) {
        diags->Add(dropped > 0 ? DiagnosticSeverity::kWarning
                               : DiagnosticSeverity::kInfo,
                   DiagnosticCategory::kRaggedRow, r + 1, 0,
                   StrFormat("row truncated from %zu to the modal %zu cells "
                             "(%zu non-empty cells dropped)",
                             row.size(), modal_width, dropped));
      }
      row.resize(modal_width);
    }
  }
}

/// Budget granularity: one unit per emitted row, charged in batches so the
/// budget's atomics stay off the per-row hot path. Both scan paths charge
/// at exactly the same row counts, so they exhaust identically.
constexpr size_t kRowsPerBudgetCharge = 1024;

/// The CSV state machine, shared by both scan paths. RunScalar() drives it
/// byte by byte; RunIndexed() replays it over the structural offsets from
/// pass 1 (csv/simd_scan.h) and bulk-appends the ordinary runs in between.
/// Every transition, diagnostic and budget charge lives in one method used
/// by both paths, so they cannot drift apart.
class ParseEngine {
 public:
  using Rows = std::vector<std::vector<std::string>>;

  ParseEngine(std::string_view text, const ReaderOptions& options)
      : text_(text),
        n_(text.size()),
        options_(options),
        quote_(options.dialect.quote),
        escape_(options.dialect.escape),
        delim_(options.dialect.effective_delimiter()),
        delim0_(delim_[0]),
        strict_(options.policy == RecoveryPolicy::kStrict),
        recover_(options.policy == RecoveryPolicy::kRecover),
        diags_(options.diagnostics),
        budget_(options.budget) {}

  /// The byte-at-a-time reference loop.
  Result<Rows> RunScalar() {
    STRUDEL_RETURN_IF_ERROR(StartBudget());
    size_t i = 0;
    while (i < n_ && !stopped_) {
      if (options_.max_line_bytes > 0 &&
          i - line_start_ > options_.max_line_bytes) {
        STRUDEL_RETURN_IF_ERROR(HandleOversizeLine(i));
        continue;
      }
      STRUDEL_RETURN_IF_ERROR(HandleByte(i));
      ++i;
    }
    return Finish();
  }

  /// Replays the state machine over the structural offsets only. All state
  /// transitions happen at quote/delimiter/LF/CR bytes — exactly the bytes
  /// pass 1 indexed — so visiting only those and bulk-appending the runs
  /// in between reproduces the scalar loop byte for byte.
  Result<Rows> RunIndexed(const StructuralIndex& index) {
    STRUDEL_RETURN_IF_ERROR(StartBudget());
    const std::vector<uint64_t>& pos = index.positions;
    size_t pi = 0;      // next structural offset not yet consumed
    size_t cursor = 0;  // next byte not yet consumed
    while (cursor < n_ && !stopped_) {
      // Offsets already consumed (e.g. the \n of a \r\n pair, or a line
      // skipped by the oversize handler) are dropped here.
      while (pi < pos.size() && pos[pi] < cursor) ++pi;
      const size_t p = pi < pos.size() ? static_cast<size_t>(pos[pi]) : n_;
      // The scalar loop's line-budget check fires first at `trip`, the
      // first byte putting the line over max_line_bytes. Every byte in
      // [cursor, p) is ordinary, so nothing can end the line earlier.
      const size_t limit = options_.max_line_bytes;
      if (limit > 0 && limit < n_ - line_start_) {
        const size_t trip = line_start_ + limit + 1;
        if (trip < n_ && trip <= p) {
          STRUDEL_RETURN_IF_ERROR(AppendRun(cursor, trip));
          size_t i = trip;
          STRUDEL_RETURN_IF_ERROR(HandleOversizeLine(i));
          cursor = i;
          continue;
        }
      }
      if (p >= n_) {
        STRUDEL_RETURN_IF_ERROR(AppendRun(cursor, n_));
        break;
      }
      // Fast path for the dominant transitions: an ordinary field ending
      // at a delimiter or newline. Exactly mirrors the kFieldStart /
      // kUnquoted branches of HandleByte (which the differential suite
      // holds it to); quotes and every rarer byte take the shared slow
      // path below. Indexed dialects always have a one-byte delimiter.
      const char c = text_[p];
      if (state_ == State::kFieldStart || state_ == State::kUnquoted) {
        if (c == delim0_) {
          STRUDEL_RETURN_IF_ERROR(EmitField(cursor, p));
          state_ = State::kFieldStart;
          cursor = p + 1;
          continue;
        }
        if (c == '\n' || c == '\r') {
          size_t i = p;
          if (c == '\r' && i + 1 < n_ && text_[i + 1] == '\n') ++i;
          STRUDEL_RETURN_IF_ERROR(EmitField(cursor, p));
          if (!stopped_) STRUDEL_RETURN_IF_ERROR(EndRowTail());
          state_ = State::kFieldStart;
          ++line_;
          line_start_ = i + 1;
          cursor = i + 1;
          continue;
        }
      }
      STRUDEL_RETURN_IF_ERROR(AppendRun(cursor, p));
      size_t i = p;
      STRUDEL_RETURN_IF_ERROR(HandleByte(i));
      cursor = i + 1;
    }
    return Finish();
  }

 private:
  enum class State { kFieldStart, kUnquoted, kQuoted, kQuoteInQuoted };

  bool IsDelimiterAt(size_t i) const {
    if (text_[i] != delim0_) return false;
    if (delim_.size() == 1) return true;
    return text_.compare(i, delim_.size(), delim_) == 0;
  }

  /// The max_cells overflow path, shared by EndField and EmitField so the
  /// two cannot diverge.
  Status CellBudgetExceeded() {
    if (!recover_) {
      return Status::OutOfRange(
          StrFormat("csv input exceeds ReaderOptions::max_cells limit "
                    "(%zu cells)",
                    options_.max_cells));
    }
    stopped_ = true;
    if (diags_ != nullptr) {
      diags_->Add(DiagnosticSeverity::kError,
                  DiagnosticCategory::kCellBudget, line_, 0,
                  StrFormat("parsing stopped at the ReaderOptions::max_cells "
                            "limit (%zu cells); complete rows are kept",
                            options_.max_cells));
    }
    return Status::OK();
  }

  Status EndField() {
    if (++cell_count_ > options_.max_cells) return CellBudgetExceeded();
    row_.push_back(std::move(field_));
    field_.clear();
    return Status::OK();
  }

  /// EndField for the indexed fast path: the cell is field_ plus the
  /// ordinary bytes [begin, end). When the buffer is empty (the common
  /// case — the whole field is one contiguous run) the cell is built
  /// straight from the input, skipping the append-then-move round trip.
  Status EmitField(size_t begin, size_t end) {
    if (++cell_count_ > options_.max_cells) return CellBudgetExceeded();
    if (field_.empty()) {
      row_.emplace_back(text_.data() + begin, end - begin);
    } else {
      field_.append(text_.data() + begin, end - begin);
      row_.push_back(std::move(field_));
      field_.clear();
    }
    return Status::OK();
  }

  Status EndRow() {
    STRUDEL_RETURN_IF_ERROR(EndField());
    if (stopped_) return Status::OK();
    return EndRowTail();
  }

  /// Everything EndRow does after the final cell is emitted.
  Status EndRowTail() {
    const size_t width = row_.size();
    rows_.push_back(std::move(row_));
    row_.clear();
    // One exact-size allocation for the next row instead of doubling from
    // scratch; rectangular files (the common case) regrow every row.
    row_.reserve(width);
    if (budget_ != nullptr && rows_.size() % kRowsPerBudgetCharge == 0) {
      const Status status = budget_->Charge("csv_parse", kRowsPerBudgetCharge);
      if (!status.ok()) {
        if (!recover_) return status;
        stopped_ = true;
        if (diags_ != nullptr) {
          // Fixed message: the budget's own rendering includes elapsed
          // times, which would make reruns non-deterministic.
          diags_->Add(DiagnosticSeverity::kError,
                      DiagnosticCategory::kBudgetExhausted, line_, 0,
                      "parsing stopped: execution budget exhausted; "
                      "complete rows are kept");
        }
      }
    }
    return Status::OK();
  }

  Status StartBudget() {
    if (budget_ == nullptr) return Status::OK();
    const Status status = budget_->Check("csv_parse");
    if (status.ok()) return status;
    if (!recover_) return status;
    stopped_ = true;
    if (diags_ != nullptr) {
      diags_->Add(DiagnosticSeverity::kError,
                  DiagnosticCategory::kBudgetExhausted, 0, 0,
                  "parsing stopped before scanning: execution budget "
                  "exhausted");
    }
    return Status::OK();
  }

  /// Recover-mode handling of a line over max_line_bytes: close the row,
  /// drop bytes up to and including the next newline. `i` is advanced to
  /// the first byte of the next line.
  Status HandleOversizeLine(size_t& i) {
    if (!recover_) {
      return Status::OutOfRange(
          StrFormat("line %zu exceeds ReaderOptions::max_line_bytes limit "
                    "(%zu)",
                    line_, options_.max_line_bytes));
    }
    if (diags_ != nullptr) {
      diags_->Add(DiagnosticSeverity::kError,
                  DiagnosticCategory::kOversizeLine, line_, 0,
                  StrFormat("line exceeds ReaderOptions::max_line_bytes "
                            "limit (%zu); rest of line dropped",
                            options_.max_line_bytes));
    }
    STRUDEL_RETURN_IF_ERROR(EndRow());
    while (i < n_ && text_[i] != '\n') ++i;
    if (i < n_) ++i;  // consume the newline itself
    ++line_;
    line_start_ = i;
    state_ = State::kFieldStart;
    return Status::OK();
  }

  /// One state-machine step at byte `i`. Advances `i` past any extra
  /// consumed bytes (the \n of \r\n, the escaped byte, the tail of a
  /// multi-character delimiter); the caller advances past `i` itself.
  Status HandleByte(size_t& i) {
    const char c = text_[i];
    const size_t col = i - line_start_ + 1;
    switch (state_) {
      case State::kFieldStart:
        if (quote_ != '\0' && c == quote_) {
          state_ = State::kQuoted;
          // Remember where the quote opened: anomalies inside multi-line
          // quoted fields are attributed to this position.
          open_line_ = line_;
          open_col_ = col;
          open_offset_ = i;
        } else if (IsDelimiterAt(i)) {
          STRUDEL_RETURN_IF_ERROR(EndField());
          i += delim_.size() - 1;
        } else if (c == '\n') {
          STRUDEL_RETURN_IF_ERROR(EndRow());
          ++line_;
          line_start_ = i + 1;
        } else if (c == '\r') {
          if (i + 1 < n_ && text_[i + 1] == '\n') ++i;
          STRUDEL_RETURN_IF_ERROR(EndRow());
          ++line_;
          line_start_ = i + 1;
        } else {
          field_ += c;
          state_ = State::kUnquoted;
        }
        break;
      case State::kUnquoted:
        if (IsDelimiterAt(i)) {
          STRUDEL_RETURN_IF_ERROR(EndField());
          i += delim_.size() - 1;
          state_ = State::kFieldStart;
        } else if (c == '\n') {
          STRUDEL_RETURN_IF_ERROR(EndRow());
          state_ = State::kFieldStart;
          ++line_;
          line_start_ = i + 1;
        } else if (c == '\r') {
          if (i + 1 < n_ && text_[i + 1] == '\n') ++i;
          STRUDEL_RETURN_IF_ERROR(EndRow());
          state_ = State::kFieldStart;
          ++line_;
          line_start_ = i + 1;
        } else if (quote_ != '\0' && c == quote_) {
          if (strict_) {
            return Status::ParseError(StrFormat(
                "quote character inside unquoted field at %zu:%zu", line_,
                col));
          }
          // Real-world verbose files are full of such lines; keep the
          // quote verbatim.
          if (diags_ != nullptr) {
            diags_->AddAt(DiagnosticSeverity::kWarning,
                          DiagnosticCategory::kStrayQuote, line_, col, i,
                          "quote character inside unquoted field kept "
                          "verbatim");
          }
          field_ += c;
        } else {
          field_ += c;
        }
        break;
      case State::kQuoted:
        if (escape_ != '\0' && c == escape_ && i + 1 < n_) {
          field_ += text_[i + 1];
          ++i;
        } else if (c == quote_) {
          state_ = State::kQuoteInQuoted;
        } else {
          if (c == '\n') {
            ++line_;
            line_start_ = i + 1;
          }
          field_ += c;
        }
        break;
      case State::kQuoteInQuoted:
        if (c == quote_) {
          // Doubled quote: literal quote character.
          field_ += quote_;
          state_ = State::kQuoted;
        } else if (IsDelimiterAt(i)) {
          STRUDEL_RETURN_IF_ERROR(EndField());
          i += delim_.size() - 1;
          state_ = State::kFieldStart;
        } else if (c == '\n') {
          STRUDEL_RETURN_IF_ERROR(EndRow());
          state_ = State::kFieldStart;
          ++line_;
          line_start_ = i + 1;
        } else if (c == '\r') {
          if (i + 1 < n_ && text_[i + 1] == '\n') ++i;
          STRUDEL_RETURN_IF_ERROR(EndRow());
          state_ = State::kFieldStart;
          ++line_;
          line_start_ = i + 1;
        } else if (!strict_) {
          // Text after a closing quote: keep it verbatim.
          if (diags_ != nullptr) {
            diags_->AddAt(DiagnosticSeverity::kWarning,
                          DiagnosticCategory::kStrayQuote, line_, col, i,
                          "text after closing quote kept verbatim");
          }
          field_ += c;
          state_ = State::kUnquoted;
        } else {
          return Status::ParseError(StrFormat(
              "unexpected character after closing quote at %zu:%zu", line_,
              col));
        }
        break;
    }
    return Status::OK();
  }

  /// Appends the ordinary bytes [begin, end) to the current field. The
  /// bytes carry no structural characters (pass 1 indexed those), so the
  /// only possible state effects are leaving kFieldStart and the
  /// stray-text-after-closing-quote diagnostic; everything else is a
  /// straight bulk append. Escape dialects never reach this path.
  Status AppendRun(size_t begin, size_t end) {
    if (begin >= end) return Status::OK();
    switch (state_) {
      case State::kFieldStart:
        state_ = State::kUnquoted;
        [[fallthrough]];
      case State::kUnquoted:
      case State::kQuoted:
        // No newline in an ordinary run, so no line tracking needed even
        // inside quotes.
        field_.append(text_.data() + begin, end - begin);
        return Status::OK();
      case State::kQuoteInQuoted: {
        size_t i = begin;
        STRUDEL_RETURN_IF_ERROR(HandleByte(i));
        field_.append(text_.data() + begin + 1, end - begin - 1);
        return Status::OK();
      }
    }
    return Status::OK();
  }

  /// EOF flush plus the recover-mode ragged-row normalization.
  Result<Rows> Finish() {
    // Flush the trailing record (no newline at EOF). An input ending in a
    // newline has already flushed; avoid emitting a phantom empty row.
    if (stopped_) {
      row_.clear();
      field_.clear();
    } else if (state_ == State::kQuoted) {
      if (strict_) {
        return Status::ParseError("unterminated quoted field at end of input");
      }
      // Attributed to the opening quote: inputs whose unterminated field
      // spans many lines would otherwise report the (meaningless) last
      // line of the file.
      if (diags_ != nullptr) {
        diags_->AddAt(DiagnosticSeverity::kWarning,
                      DiagnosticCategory::kUnterminatedQuote, open_line_,
                      open_col_, open_offset_,
                      "unterminated quoted field force-closed at end of "
                      "input");
      }
      STRUDEL_RETURN_IF_ERROR(EndRow());
    } else if (!field_.empty() || !row_.empty() ||
               (n_ > 0 && text_[n_ - 1] != '\n' && text_[n_ - 1] != '\r')) {
      if (n_ > 0) STRUDEL_RETURN_IF_ERROR(EndRow());
    }
    if (recover_) NormalizeRaggedRows(rows_, diags_);
    return std::move(rows_);
  }

  const std::string_view text_;
  const size_t n_;
  const ReaderOptions& options_;
  const char quote_;
  const char escape_;
  const std::string delim_;
  const char delim0_;
  const bool strict_;
  const bool recover_;
  ParseDiagnostics* const diags_;
  ExecutionBudget* const budget_;

  Rows rows_;
  std::vector<std::string> row_;
  std::string field_;
  size_t cell_count_ = 0;
  size_t line_ = 1;        // 1-based physical line for diagnostics
  size_t line_start_ = 0;  // byte offset where the current line begins
  bool stopped_ = false;   // recover mode hit a budget; keep what we have
  State state_ = State::kFieldStart;
  // Where the current quoted field opened (valid while state_ is kQuoted
  // or kQuoteInQuoted).
  size_t open_line_ = 0;
  size_t open_col_ = 0;
  size_t open_offset_ = 0;
};

}  // namespace

std::string_view RecoveryPolicyName(RecoveryPolicy policy) {
  switch (policy) {
    case RecoveryPolicy::kStrict:
      return "strict";
    case RecoveryPolicy::kLenient:
      return "lenient";
    case RecoveryPolicy::kRecover:
      return "recover";
  }
  return "unknown";
}

Result<std::vector<std::vector<std::string>>> ParseCsv(
    std::string_view text, const ReaderOptions& options) {
  ParseDiagnostics* diags = options.diagnostics;
  const bool recover = options.policy == RecoveryPolicy::kRecover;

  if (options.max_total_bytes > 0 && text.size() > options.max_total_bytes) {
    if (!recover) {
      return Status::OutOfRange(StrFormat(
          "input size %zu exceeds ReaderOptions::max_total_bytes limit (%zu)",
          text.size(), options.max_total_bytes));
    }
    if (diags != nullptr) {
      diags->Add(DiagnosticSeverity::kError,
                 DiagnosticCategory::kTruncatedInput, 0, 0,
                 StrFormat("input truncated from %zu to the "
                           "ReaderOptions::max_total_bytes limit (%zu)",
                           text.size(), options.max_total_bytes));
    }
    text = text.substr(0, options.max_total_bytes);
  }

  ScanTelemetry telemetry;
  telemetry.requested = options.scan_mode;
  telemetry.io = options.io;
  const auto publish = [&telemetry, &options] {
    if (options.scan_telemetry != nullptr) *options.scan_telemetry = telemetry;
  };

  ScanMode mode = options.scan_mode;
  if (mode != ScanMode::kScalar) {
    const ScanFallbackReason reason = IndexerFallbackReason(options.dialect);
    if (reason != ScanFallbackReason::kNone) {
      telemetry.fallback = reason;
      if (mode == ScanMode::kSwar) {
        publish();
        return Status::UnsupportedDialect(StrFormat(
            "scan_mode=swar cannot express this dialect (%s): %s",
            std::string(ScanFallbackReasonName(reason)).c_str(),
            options.dialect.ToString().c_str()));
      }
      // Dialect-driven fallback, not a per-reason static: rare enough
      // that a registry lookup per event is fine.
      metrics::GetCounter("csv.scan.fallbacks").Increment();
      metrics::GetCounter(std::string("csv.scan.fallback.") +
                          std::string(ScanFallbackReasonName(reason)))
          .Increment();
      mode = ScanMode::kScalar;
    }
  }

  static metrics::Counter& bytes_scanned =
      metrics::GetCounter("csv.bytes_scanned");
  static metrics::Counter& rows_scanned =
      metrics::GetCounter("csv.rows_scanned");
  bytes_scanned.Add(text.size());

  ParseEngine engine(text, options);
  if (mode == ScanMode::kScalar) {
    publish();
    STRUDEL_TRACE_SPAN("csv.scan.scalar");
    auto rows = engine.RunScalar();
    if (rows.ok()) rows_scanned.Add(rows->size());
    return rows;
  }
  // Oversize-line recovery force-closes open quotes and resyncs at the
  // next newline, so quote parity no longer predicts the replay's state.
  // Whenever that recovery can fire for this input, keep every delimiter
  // in the index; the replay machine resolves them exactly.
  const bool line_limit_can_trip =
      options.max_line_bytes > 0 && options.max_line_bytes < text.size();
  const bool prune = !line_limit_can_trip;

  StructuralIndex index;
  {
    STRUDEL_TRACE_SPAN("csv.scan.build_index");
    BuildStructuralIndexParallel(
        text, options.dialect,
        {options.num_threads, options.parallel_chunk_bytes, prune}, &index);
  }
  if (index.speculation_repairs > 0) {
    metrics::GetCounter("csv.scan.speculation_repairs")
        .Add(index.speculation_repairs);
  }
  telemetry.used_index = true;
  telemetry.level = index.level;
  telemetry.structural_count = index.positions.size();
  telemetry.clean_quoting = index.clean_quoting;
  telemetry.parallel_chunks = index.chunks;
  telemetry.speculation_repairs = index.speculation_repairs;
  publish();
  STRUDEL_TRACE_SPAN("csv.scan.index");
  auto rows = engine.RunIndexed(index);
  if (rows.ok()) rows_scanned.Add(rows->size());
  return rows;
}

Result<Table> ReadTable(std::string_view text, const ReaderOptions& options) {
  STRUDEL_ASSIGN_OR_RETURN(auto rows, ParseCsv(text, options));
  return Table(std::move(rows));
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::error_code ec;
  const std::filesystem::file_status file_status =
      std::filesystem::status(path, ec);
  if (!ec && std::filesystem::is_directory(file_status)) {
    return Status::IOError("is a directory, not a file: " + path);
  }
  // Raw POSIX read through the transient-I/O helper: a signal landing
  // mid-read (the batch interrupt handler, a profiler) retries instead of
  // surfacing as a spurious failure, and short reads keep transferring.
  int fd;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return Status::IOError("cannot open file: " + path + ": " +
                           ::strerror(errno));
  }
  std::string data;
  char buffer[1 << 16];
  while (true) {
    auto got = ReadSome(fd, buffer, sizeof(buffer));
    if (!got.ok()) {
      ::close(fd);
      return Status::IOError("I/O error while reading file: " + path + ": " +
                             std::string(got.status().message()));
    }
    if (*got == 0) break;  // end of file
    data.append(buffer, *got);
  }
  ::close(fd);
  // A short read (device error, concurrent truncation) must not be
  // silently parsed as a complete file.
  if (!ec && std::filesystem::is_regular_file(file_status)) {
    const auto expected = std::filesystem::file_size(path, ec);
    if (!ec && expected != data.size()) {
      return Status::IOError(
          StrFormat("short read: got %zu of %zu bytes from %s", data.size(),
                    static_cast<size_t>(expected), path.c_str()));
    }
  }
  return data;
}

Result<Table> ReadTableFromFile(const std::string& path,
                                const ReaderOptions& options) {
  STRUDEL_ASSIGN_OR_RETURN(MmapSource source,
                           MmapSource::Open(path, options.io_mode));
  ReaderOptions file_options = options;
  file_options.io = source.telemetry();
  auto table = ReadTable(source.view(), file_options);
  if (table.ok()) {
    // Mirror of the buffered path's short-read guard: a concurrent
    // truncation or in-place rewrite of the mapped file means the table
    // was parsed from torn bytes.
    const Status unchanged = source.VerifyUnchanged();
    if (!unchanged.ok()) return unchanged;
  }
  return table;
}

}  // namespace strudel::csv
