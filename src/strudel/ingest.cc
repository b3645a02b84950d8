#include "strudel/ingest.h"

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "csv/mmap_source.h"

namespace strudel {

using csv::DiagnosticCategory;
using csv::DiagnosticSeverity;

std::string IngestResult::Report() const {
  std::string out;
  out += "encoding: " + sanitize.Summary() + "\n";
  out += StrFormat("dialect:  %s (source=%s, confidence=%.2f)\n",
                   dialect.ToString().c_str(),
                   std::string(csv::DialectSourceName(dialect_source)).c_str(),
                   dialect_confidence);
  out += StrFormat("shape:    %d x %d (%d non-empty cells)%s\n",
                   table.num_rows(), table.num_cols(),
                   table.non_empty_count(),
                   recovered ? ", via recovery mode" : "");
  // I/O routing, attributed exactly like scan fallbacks below: the parse
  // is identical either way, so doctor is the only place the decision
  // (and why mmap was not used) is visible.
  const char* io_reason = "";
  switch (scan.io.fallback) {
    case csv::IoFallbackReason::kNone:
      break;
    case csv::IoFallbackReason::kNotRegularFile:
      io_reason = "not a regular file (pipe/stdin); cannot be mapped";
      break;
    case csv::IoFallbackReason::kFileTooSmall:
      io_reason = "below the mmap threshold; one buffered read is cheaper";
      break;
    case csv::IoFallbackReason::kMmapFailed:
      io_reason = "mmap(2) failed; fell back to a buffered read";
      break;
  }
  out += StrFormat(
      "io:       %s%s\n",
      !scan.io.from_file ? "in-memory"
      : scan.io.used_mmap
          ? StrFormat("mmap (%llu bytes)",
                      static_cast<unsigned long long>(scan.io.bytes))
                .c_str()
          : "buffered",
      scan.io.from_file && scan.io.fallback != csv::IoFallbackReason::kNone
          ? StrFormat(" (fallback: %s — %s)",
                      std::string(
                          csv::IoFallbackReasonName(scan.io.fallback))
                          .c_str(),
                      io_reason)
                .c_str()
          : "");
  out += StrFormat(
      "scan:     %s%s\n",
      scan.used_index
          ? StrFormat("structural-index (%s, %zu structural bytes%s%s)",
                      std::string(csv::SimdLevelName(scan.level)).c_str(),
                      scan.structural_count,
                      scan.clean_quoting ? ", clean quoting" : "",
                      scan.parallel_chunks > 1
                          ? StrFormat(", %zu chunks, %zu speculation "
                                      "repairs",
                                      scan.parallel_chunks,
                                      scan.speculation_repairs)
                                .c_str()
                          : "")
                .c_str()
          : "scalar",
      !scan.used_index && scan.fallback != csv::ScanFallbackReason::kNone
          ? StrFormat(" (fallback: %s — %s)",
                      std::string(csv::ScanFallbackReasonName(scan.fallback))
                          .c_str(),
                      scan.fallback == csv::ScanFallbackReason::kRecoveryForced
                          ? "damaged input reparsed conservatively"
                          : "dialect unsupported by the indexer")
                .c_str()
          : "");
  out += "diagnostics: " + diagnostics.Report();
  return out;
}

Result<IngestResult> IngestText(std::string_view bytes,
                                const IngestOptions& options) {
  STRUDEL_TRACE_SPAN("ingest");
  static metrics::Counter& files = metrics::GetCounter("ingest.files");
  files.Increment();
  IngestResult result;
  result.diagnostics = csv::ParseDiagnostics(options.max_diagnostics);

  const std::string text = csv::Sanitize(bytes, options.sanitizer,
                                         &result.sanitize,
                                         &result.diagnostics);

  csv::DialectDetection detection =
      csv::DetectDialectWithFallback(text, options.detector);
  result.dialect = detection.dialect;
  result.dialect_confidence = detection.confidence;
  result.dialect_source = detection.source;
  if (detection.source != csv::DialectSource::kConsistency) {
    result.diagnostics.Add(
        DiagnosticSeverity::kWarning, DiagnosticCategory::kDialectFallback, 0,
        0,
        StrFormat("dialect detection fell back to %s (confidence %.2f)",
                  std::string(csv::DialectSourceName(detection.source))
                      .c_str(),
                  detection.confidence));
  }

  csv::ReaderOptions reader = options.reader;
  reader.dialect = detection.dialect;
  reader.diagnostics = &result.diagnostics;
  // Both attempts publish here; a recovery retry overwrites, so the
  // telemetry always describes the parse that produced the table.
  reader.scan_telemetry = &result.scan;
  auto table = csv::ReadTable(text, reader);
  if (!table.ok()) {
    if (!options.fallback_to_recover) return table.status();
    result.diagnostics.Add(
        DiagnosticSeverity::kError, DiagnosticCategory::kRecoveryFallback, 0,
        0,
        StrFormat("%s parse failed (%s); retrying in recovery mode",
                  std::string(RecoveryPolicyName(reader.policy)).c_str(),
                  table.status().ToString().c_str()));
    const csv::ScanMode requested_mode = reader.scan_mode;
    const csv::ScanFallbackReason primary_fallback = result.scan.fallback;
    reader.policy = csv::RecoveryPolicy::kRecover;
    // Recovery re-parses conservatively on the scalar path: the input
    // already defeated one parse, so prefer the reference state machine
    // over the structural index. Only under kAuto — an explicit
    // scan_mode=swar keeps its config-error semantics.
    if (requested_mode == csv::ScanMode::kAuto) {
      reader.scan_mode = csv::ScanMode::kScalar;
    }
    table = csv::ReadTable(text, reader);
    if (!table.ok()) return table.status();  // cannot happen by contract
    result.recovered = true;
    if (requested_mode == csv::ScanMode::kAuto && !result.scan.used_index) {
      // The retry ran with scan_mode forced to scalar, which the reader
      // reports as "as requested, no fallback". Restore the caller's
      // view: mode auto fell back to scalar — either for the dialect
      // reason the primary parse already found, or because recovery
      // forced it. Doctor tells these apart: the former is a capability
      // gap, the latter a damaged input.
      result.scan.requested = requested_mode;
      result.scan.fallback =
          primary_fallback != csv::ScanFallbackReason::kNone
              ? primary_fallback
              : csv::ScanFallbackReason::kRecoveryForced;
      if (result.scan.fallback == csv::ScanFallbackReason::kRecoveryForced) {
        metrics::GetCounter("csv.scan.fallbacks").Increment();
        metrics::GetCounter("csv.scan.fallback.recovery_forced").Increment();
      }
    }
  }
  result.table = *std::move(table);
  return result;
}

Result<IngestResult> IngestFile(const std::string& path,
                                const IngestOptions& options) {
  STRUDEL_ASSIGN_OR_RETURN(
      csv::MmapSource source,
      csv::MmapSource::Open(path, options.reader.io_mode));
  IngestOptions file_options = options;
  file_options.reader.io = source.telemetry();
  auto result = IngestText(source.view(), file_options);
  if (result.ok()) {
    // A mapped file is not a snapshot: if a writer truncated or rewrote
    // it mid-parse, the table was built from torn bytes — discard it.
    const Status unchanged = source.VerifyUnchanged();
    if (!unchanged.ok()) return unchanged;
  }
  return result;
}

}  // namespace strudel
