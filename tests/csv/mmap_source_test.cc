// MmapSource: the routing matrix (mode x file kind) and its telemetry.
// The parse-visible bytes must be identical on every route; these tests
// pin the routing decisions and fallback attributions themselves.

#include "csv/mmap_source.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "common/metrics.h"

namespace strudel::csv {
namespace {

std::string WriteTemp(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  return path;
}

TEST(MmapSourceTest, AutoBuffersSmallFilesWithTooSmallAttribution) {
  const std::string path = WriteTemp("mmap_small.csv", "a,b\nc,d\n");
  auto source = MmapSource::Open(path, IoMode::kAuto);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(source->view(), "a,b\nc,d\n");
  EXPECT_FALSE(source->used_mmap());
  EXPECT_EQ(source->telemetry().requested, IoMode::kAuto);
  EXPECT_TRUE(source->telemetry().from_file);
  EXPECT_EQ(source->telemetry().fallback, IoFallbackReason::kFileTooSmall);
  EXPECT_EQ(source->telemetry().bytes, 8u);
}

TEST(MmapSourceTest, ExplicitMmapMapsEvenSmallFiles) {
  const std::string path = WriteTemp("mmap_forced.csv", "a,b\n");
  auto source = MmapSource::Open(path, IoMode::kMmap);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_TRUE(source->used_mmap());
  EXPECT_EQ(source->view(), "a,b\n");
  EXPECT_EQ(source->telemetry().fallback, IoFallbackReason::kNone);
}

TEST(MmapSourceTest, AutoMapsFilesAtTheThreshold) {
  std::string big;
  while (big.size() < kMmapMinBytes) big += "col1,col2,col3\n";
  const std::string path = WriteTemp("mmap_big.csv", big);
  auto source = MmapSource::Open(path, IoMode::kAuto);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_TRUE(source->used_mmap());
  EXPECT_EQ(source->view(), big);
  EXPECT_EQ(source->telemetry().fallback, IoFallbackReason::kNone);
}

TEST(MmapSourceTest, BufferedModeNeverMaps) {
  std::string big;
  while (big.size() < kMmapMinBytes) big += "col1,col2,col3\n";
  const std::string path = WriteTemp("mmap_buffered.csv", big);
  auto source = MmapSource::Open(path, IoMode::kBuffered);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_FALSE(source->used_mmap());
  EXPECT_EQ(source->view(), big);
  // An honored request is not a fallback.
  EXPECT_EQ(source->telemetry().fallback, IoFallbackReason::kNone);
}

TEST(MmapSourceTest, EmptyFileIsBufferedNotMapped) {
  const std::string path = WriteTemp("mmap_empty.csv", "");
  auto source = MmapSource::Open(path, IoMode::kMmap);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_FALSE(source->used_mmap());
  EXPECT_EQ(source->view(), "");
  EXPECT_EQ(source->telemetry().fallback, IoFallbackReason::kFileTooSmall);
}

TEST(MmapSourceTest, MissingFileAndDirectoryAreErrors) {
  auto missing =
      MmapSource::Open(::testing::TempDir() + "/definitely_absent.csv",
                       IoMode::kAuto);
  EXPECT_FALSE(missing.ok());
  auto dir = MmapSource::Open(::testing::TempDir(), IoMode::kAuto);
  ASSERT_FALSE(dir.ok());
  EXPECT_NE(dir.status().message().find("directory"), std::string::npos)
      << dir.status().message();
}

TEST(MmapSourceTest, MoveTransfersTheView) {
  const std::string path = WriteTemp("mmap_move.csv", "a,b\n");
  auto source = MmapSource::Open(path, IoMode::kMmap);
  ASSERT_TRUE(source.ok());
  MmapSource moved = std::move(*source);
  EXPECT_EQ(moved.view(), "a,b\n");
  EXPECT_TRUE(moved.used_mmap());
  // The truncation guard moved with the mapping; the moved-from source
  // holds nothing to verify.
  EXPECT_TRUE(moved.VerifyUnchanged().ok());
  EXPECT_TRUE(source->VerifyUnchanged().ok());
}

// Regression for the mmap truncation window: the buffered path has
// always rejected short reads of regular files, but a file truncated
// *after* Open left the mapped scan to SIGBUS or read zero pages with no
// error at all. VerifyUnchanged is the mirror guard: re-fstat after the
// scan, and fail the parse when the bytes under the mapping changed.
TEST(MmapSourceTest, TruncationBetweenOpenAndVerifyIsAnIOError) {
  std::string big;
  while (big.size() < kMmapMinBytes) big += "col1,col2,col3\n";
  const std::string path = WriteTemp("mmap_truncated.csv", big);
  auto source = MmapSource::Open(path, IoMode::kMmap);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ASSERT_TRUE(source->used_mmap());
  EXPECT_TRUE(source->VerifyUnchanged().ok());

  // A writer truncates the file while we hold the mapping — the tail
  // pages of the view are now beyond EOF.
  std::filesystem::resize_file(path, big.size() / 2);

  const Status changed = source->VerifyUnchanged();
  ASSERT_FALSE(changed.ok());
  EXPECT_EQ(changed.code(), StatusCode::kIOError);
  EXPECT_NE(changed.message().find("changed while being ingested"),
            std::string::npos)
      << changed.message();
}

TEST(MmapSourceTest, InPlaceRewriteBetweenOpenAndVerifyIsAnIOError) {
  const std::string path = WriteTemp("mmap_rewritten.csv", "a,b\nc,d\n");
  auto source = MmapSource::Open(path, IoMode::kMmap);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ASSERT_TRUE(source->used_mmap());

  // Same size, different bytes and mtime: a torn read the size check
  // alone cannot see.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "x,y\nz,w\n";
  }
  const auto now = std::filesystem::last_write_time(path);
  std::filesystem::last_write_time(path, now + std::chrono::seconds(2));

  const Status changed = source->VerifyUnchanged();
  ASSERT_FALSE(changed.ok());
  EXPECT_EQ(changed.code(), StatusCode::kIOError);
  EXPECT_NE(changed.message().find("rewritten in place"), std::string::npos)
      << changed.message();
}

TEST(MmapSourceTest, BufferedSourcesHaveNothingToVerify) {
  // Buffered bytes were copied out under the short-read guard; a later
  // truncation cannot retroactively tear them.
  const std::string path = WriteTemp("mmap_buffered_verify.csv", "a,b\n");
  auto source = MmapSource::Open(path, IoMode::kBuffered);
  ASSERT_TRUE(source.ok());
  ASSERT_FALSE(source->used_mmap());
  std::filesystem::resize_file(path, 2);
  EXPECT_TRUE(source->VerifyUnchanged().ok());
}

TEST(IoModeTest, NamesAndParsingRoundTrip) {
  for (const IoMode mode : {IoMode::kBuffered, IoMode::kMmap, IoMode::kAuto}) {
    IoMode parsed = IoMode::kBuffered;
    EXPECT_TRUE(ParseIoMode(IoModeName(mode), &parsed));
    EXPECT_EQ(parsed, mode);
  }
  IoMode untouched = IoMode::kMmap;
  EXPECT_FALSE(ParseIoMode("bogus", &untouched));
  EXPECT_EQ(untouched, IoMode::kMmap);
  EXPECT_EQ(IoFallbackReasonName(IoFallbackReason::kNotRegularFile),
            "not_regular_file");
  EXPECT_EQ(IoFallbackReasonName(IoFallbackReason::kFileTooSmall),
            "file_too_small");
  EXPECT_EQ(IoFallbackReasonName(IoFallbackReason::kMmapFailed),
            "mmap_failed");
}

TEST(MmapSourceTest, RoutingPublishesIoMetrics) {
  const uint64_t mmap_before = metrics::GetCounter("csv.io.mmap").Value();
  const uint64_t buffered_before =
      metrics::GetCounter("csv.io.buffered").Value();
  const std::string path = WriteTemp("mmap_metrics.csv", "a,b\n");
  ASSERT_TRUE(MmapSource::Open(path, IoMode::kMmap).ok());
  ASSERT_TRUE(MmapSource::Open(path, IoMode::kBuffered).ok());
  EXPECT_GT(metrics::GetCounter("csv.io.mmap").Value(), mmap_before);
  EXPECT_GT(metrics::GetCounter("csv.io.buffered").Value(), buffered_before);
}

}  // namespace
}  // namespace strudel::csv
