// Memory-mapped input source for file-backed parsing.
//
// MmapSource::Open stats the path once and decides how the bytes reach
// the parser: a read-only MAP_PRIVATE mapping for regular files large
// enough to amortize the page-table setup, or a buffered read through
// the transient-I/O helpers (common/io_retry.h) for everything else —
// pipes, FIFOs, stdin, devices, tiny files, and hosts where mmap(2)
// itself fails. The decision is driven by IoMode (ReaderOptions::io_mode)
// and every fallback is attributed with an IoFallbackReason, mirroring
// how the scan layer attributes ScanFallbackReason: the parse result is
// identical either way, so the routing would otherwise be invisible.
//
// The mapped (or buffered) bytes are exposed as one string_view; the
// mapping lives exactly as long as the MmapSource, so callers must keep
// the source alive while any view into it is parsed. For mapped files
// the source also keeps the (size, mtime_ns) pair it opened, so
// VerifyUnchanged can detect a writer that changed the file mid-parse.

#ifndef STRUDEL_CSV_MMAP_SOURCE_H_
#define STRUDEL_CSV_MMAP_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace strudel::csv {

/// How file-backed callers (ReadTableFromFile, IngestFile) load input
/// bytes. kAuto (the default) maps regular files of at least
/// kMmapMinBytes and buffers everything else; kMmap maps whenever the
/// kernel allows it (still degrading gracefully on pipes and empty
/// files); kBuffered always reads into an owned buffer.
enum class IoMode {
  kBuffered = 0,
  kMmap = 1,
  kAuto = 2,
};

std::string_view IoModeName(IoMode mode);
/// Parses "buffered" / "mmap" / "auto" (as typed at the CLI). Returns
/// false on anything else, leaving *mode untouched.
bool ParseIoMode(std::string_view name, IoMode* mode);

/// Why a requested (or auto-selected) mmap was routed to the buffered
/// path instead. Reported through IoTelemetry and `strudel doctor` the
/// same way ScanFallbackReason attributes scalar-scan fallbacks.
enum class IoFallbackReason {
  kNone = 0,         // loaded as requested
  kNotRegularFile,   // pipe / FIFO / stdin / device: not mappable
  kFileTooSmall,     // under kAuto, below kMmapMinBytes (or empty)
  kMmapFailed,       // mmap(2) refused; the buffered read succeeded
};

std::string_view IoFallbackReasonName(IoFallbackReason reason);

/// kAuto maps only files at least this large: below it one buffered read
/// is cheaper than building and tearing down a mapping.
inline constexpr uint64_t kMmapMinBytes = 64 * 1024;

/// How the input bytes were actually loaded for one parse. Embedded in
/// ScanTelemetry so doctor reports I/O routing beside scan routing.
struct IoTelemetry {
  IoMode requested = IoMode::kAuto;
  /// False for in-memory inputs (IngestText, ParseCsv on a string),
  /// where no I/O decision was ever made.
  bool from_file = false;
  bool used_mmap = false;
  IoFallbackReason fallback = IoFallbackReason::kNone;
  /// Bytes made visible to the parser.
  uint64_t bytes = 0;
};

/// One opened input: either a read-only mapping or an owned buffer.
/// Move-only; the view() is invalidated by destruction or move.
class MmapSource {
 public:
  MmapSource() = default;
  ~MmapSource();
  MmapSource(MmapSource&& other) noexcept;
  MmapSource& operator=(MmapSource&& other) noexcept;
  MmapSource(const MmapSource&) = delete;
  MmapSource& operator=(const MmapSource&) = delete;

  /// Opens `path` under `mode`. Directories and open failures are
  /// kIOError; everything the kernel can read succeeds, with the routing
  /// decision recorded in telemetry() (and copied to *telemetry when
  /// non-null). Increments the csv.io.* metrics.
  static Result<MmapSource> Open(const std::string& path, IoMode mode,
                                 IoTelemetry* telemetry = nullptr);

  /// The input bytes. Valid while this source is alive and unmoved.
  std::string_view view() const {
    return map_ != nullptr
               ? std::string_view(static_cast<const char*>(map_), map_len_)
               : std::string_view(buffer_);
  }

  bool used_mmap() const { return map_ != nullptr; }
  const IoTelemetry& telemetry() const { return telemetry_; }

  /// Re-fstats a mapped regular file and fails with kIOError when its
  /// size or mtime changed since Open — the mmap counterpart of the
  /// buffered path's short-read guard. A MAP_PRIVATE mapping is not a
  /// snapshot: a writer truncating the file mid-scan makes the tail pages
  /// SIGBUS, and an in-place rewrite tears the bytes under the parser, so
  /// file-backed callers verify after the parse and discard the result on
  /// failure. A no-op (always OK) for buffered sources — their bytes were
  /// copied out under the short-read guard — and for sources whose
  /// descriptor is gone (moved-from). Note the check is by descriptor,
  /// not path: replacing the file via rename(2) leaves the mapped inode
  /// untouched and is correctly not an error.
  Status VerifyUnchanged() const;

 private:
  void Reset();

  void* map_ = nullptr;
  size_t map_len_ = 0;
  std::string buffer_;
  /// Kept open for mapped regular files so VerifyUnchanged can re-fstat
  /// the exact inode that was mapped; -1 for buffered sources.
  int fd_ = -1;
  std::string path_;
  uint64_t mtime_ns_ = 0;
  uint64_t size_ = 0;
  IoTelemetry telemetry_;
};

}  // namespace strudel::csv

#endif  // STRUDEL_CSV_MMAP_SOURCE_H_
