#include "csv/mmap_source.h"

#include <fcntl.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <utility>

#include "common/io_retry.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace strudel::csv {

namespace {

/// Slurps the rest of `fd` into `out` through the transient-I/O helper
/// (EINTR retries, short-read continuation). `expected` > 0 pre-sizes the
/// buffer so regular files land in one allocation.
Status ReadAll(int fd, const std::string& path, uint64_t expected,
               std::string* out) {
  out->clear();
  if (expected > 0) out->reserve(expected);
  char buffer[1 << 16];
  while (true) {
    auto got = ReadSome(fd, buffer, sizeof(buffer));
    if (!got.ok()) {
      return Status::IOError("I/O error while reading file: " + path + ": " +
                             std::string(got.status().message()));
    }
    if (*got == 0) break;  // end of stream
    out->append(buffer, *got);
  }
  return Status::OK();
}

}  // namespace

std::string_view IoModeName(IoMode mode) {
  switch (mode) {
    case IoMode::kBuffered:
      return "buffered";
    case IoMode::kMmap:
      return "mmap";
    case IoMode::kAuto:
      return "auto";
  }
  return "unknown";
}

bool ParseIoMode(std::string_view name, IoMode* mode) {
  if (name == "buffered") {
    *mode = IoMode::kBuffered;
  } else if (name == "mmap") {
    *mode = IoMode::kMmap;
  } else if (name == "auto") {
    *mode = IoMode::kAuto;
  } else {
    return false;
  }
  return true;
}

std::string_view IoFallbackReasonName(IoFallbackReason reason) {
  switch (reason) {
    case IoFallbackReason::kNone:
      return "none";
    case IoFallbackReason::kNotRegularFile:
      return "not_regular_file";
    case IoFallbackReason::kFileTooSmall:
      return "file_too_small";
    case IoFallbackReason::kMmapFailed:
      return "mmap_failed";
  }
  return "unknown";
}

MmapSource::~MmapSource() { Reset(); }

void MmapSource::Reset() {
  if (map_ != nullptr) {
    ::munmap(map_, map_len_);
    map_ = nullptr;
    map_len_ = 0;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

MmapSource::MmapSource(MmapSource&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_len_(std::exchange(other.map_len_, 0)),
      buffer_(std::move(other.buffer_)),
      fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      mtime_ns_(other.mtime_ns_),
      size_(other.size_),
      telemetry_(other.telemetry_) {}

MmapSource& MmapSource::operator=(MmapSource&& other) noexcept {
  if (this != &other) {
    Reset();
    map_ = std::exchange(other.map_, nullptr);
    map_len_ = std::exchange(other.map_len_, 0);
    buffer_ = std::move(other.buffer_);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    mtime_ns_ = other.mtime_ns_;
    size_ = other.size_;
    telemetry_ = other.telemetry_;
  }
  return *this;
}

Status MmapSource::VerifyUnchanged() const {
  if (fd_ < 0) return Status::OK();
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::IOError("cannot re-stat file after scan: " + path_ + ": " +
                           ::strerror(errno));
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  const uint64_t mtime_ns =
      static_cast<uint64_t>(st.st_mtim.tv_sec) * 1'000'000'000ull +
      static_cast<uint64_t>(st.st_mtim.tv_nsec);
  if (size != size_ || mtime_ns != mtime_ns_) {
    metrics::GetCounter("csv.io.changed_mid_ingest").Increment();
    return Status::IOError(StrFormat(
        "file changed while being ingested (mapped %llu bytes, now %llu%s): "
        "%s",
        static_cast<unsigned long long>(size_),
        static_cast<unsigned long long>(size),
        size == size_ ? ", rewritten in place" : "", path_.c_str()));
  }
  return Status::OK();
}

Result<MmapSource> MmapSource::Open(const std::string& path, IoMode mode,
                                    IoTelemetry* telemetry) {
  MmapSource source;
  source.telemetry_.requested = mode;
  source.telemetry_.from_file = true;

  int fd;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return Status::IOError("cannot open file: " + path + ": " +
                           ::strerror(errno));
  }

  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string detail = ::strerror(errno);
    ::close(fd);
    return Status::IOError("cannot stat file: " + path + ": " + detail);
  }
  if (S_ISDIR(st.st_mode)) {
    ::close(fd);
    return Status::IOError("is a directory, not a file: " + path);
  }

  const bool regular = S_ISREG(st.st_mode);
  if (regular) {
    source.size_ = static_cast<uint64_t>(st.st_size);
    source.mtime_ns_ = static_cast<uint64_t>(st.st_mtim.tv_sec) *
                           1'000'000'000ull +
                       static_cast<uint64_t>(st.st_mtim.tv_nsec);
  }

  IoFallbackReason fallback = IoFallbackReason::kNone;
  bool try_map = mode != IoMode::kBuffered;
  if (try_map && !regular) {
    fallback = IoFallbackReason::kNotRegularFile;
    try_map = false;
  }
  if (try_map && source.size_ == 0) {
    // mmap(2) rejects zero-length mappings; an empty file is the
    // degenerate too-small case under either mapping mode.
    fallback = IoFallbackReason::kFileTooSmall;
    try_map = false;
  }
  if (try_map && mode == IoMode::kAuto && source.size_ < kMmapMinBytes) {
    fallback = IoFallbackReason::kFileTooSmall;
    try_map = false;
  }

  if (try_map) {
    void* map = ::mmap(nullptr, static_cast<size_t>(source.size_), PROT_READ,
                       MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      fallback = IoFallbackReason::kMmapFailed;
    } else {
      source.map_ = map;
      source.map_len_ = static_cast<size_t>(source.size_);
      // The scan passes walk the file front to back; tell the kernel so
      // readahead stays aggressive.
      ::posix_madvise(map, source.map_len_, POSIX_MADV_SEQUENTIAL);
    }
  }

  if (source.map_ == nullptr) {
    const Status read = ReadAll(fd, path, source.size_, &source.buffer_);
    if (!read.ok()) {
      ::close(fd);
      return read;
    }
    // A short read of a regular file (device error, concurrent truncation)
    // must not be silently parsed as a complete file.
    if (regular && source.buffer_.size() != source.size_) {
      ::close(fd);
      return Status::IOError(StrFormat(
          "short read: got %zu of %zu bytes from %s", source.buffer_.size(),
          static_cast<size_t>(source.size_), path.c_str()));
    }
    if (!regular) source.size_ = source.buffer_.size();
  }
  if (source.map_ != nullptr) {
    // Keep the descriptor so VerifyUnchanged can re-fstat the mapped
    // inode after the scan (truncation / in-place rewrite detection).
    source.fd_ = fd;
    source.path_ = path;
  } else {
    ::close(fd);  // buffered bytes are owned; nothing left to guard
  }

  source.telemetry_.used_mmap = source.map_ != nullptr;
  source.telemetry_.fallback = fallback;
  source.telemetry_.bytes = source.view().size();

  metrics::GetCounter(source.telemetry_.used_mmap ? "csv.io.mmap"
                                                  : "csv.io.buffered")
      .Increment();
  if (fallback != IoFallbackReason::kNone) {
    metrics::GetCounter("csv.io.fallbacks").Increment();
    metrics::GetCounter(std::string("csv.io.fallback.") +
                        std::string(IoFallbackReasonName(fallback)))
        .Increment();
  }
  if (telemetry != nullptr) *telemetry = source.telemetry_;
  return source;
}

}  // namespace strudel::csv
