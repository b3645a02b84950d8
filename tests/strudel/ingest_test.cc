#include "strudel/ingest.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <thread>

#include "csv/simd_scan.h"
#include "csv/writer.h"
#include "testing/test_tables.h"

namespace strudel {
namespace {

TEST(IngestTest, CleanFilePassesThroughWithConsistencyDialect) {
  auto result = IngestText("id,name,value\n1,alpha,10.5\n2,beta,11.5\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->clean());
  EXPECT_FALSE(result->recovered);
  EXPECT_EQ(result->dialect.delimiter, ',');
  EXPECT_EQ(result->dialect_source, csv::DialectSource::kConsistency);
  EXPECT_GT(result->dialect_confidence, 0.0);
  EXPECT_EQ(result->table.num_rows(), 3);
  EXPECT_EQ(result->table.num_cols(), 3);
}

TEST(IngestTest, BomNulAndBrokenUtf8AreRepairedNotFatal) {
  const std::string bytes(
      "\xEF\xBB\xBF" "id;na\0me;value\n1;al\xFFpha;10\n2;beta;11\n", 40);
  auto result = IngestText(bytes);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->clean());
  EXPECT_TRUE(result->sanitize.bom_stripped);
  EXPECT_EQ(result->sanitize.nul_replaced, 1u);
  EXPECT_EQ(result->sanitize.invalid_utf8_repairs, 1u);
  EXPECT_EQ(result->dialect.delimiter, ';');
  EXPECT_EQ(result->table.num_rows(), 3);
}

TEST(IngestTest, Utf16FileIngestsLikeItsUtf8Twin) {
  const std::string utf8 = "a,b\n1,2\n3,4\n";
  std::string utf16le = "\xFF\xFE";
  for (char c : utf8) {
    utf16le += c;
    utf16le += '\0';
  }
  auto result = IngestText(utf16le);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->sanitize.source_encoding, "utf-16le");
  EXPECT_EQ(result->table.num_rows(), 3);
  EXPECT_EQ(result->table.num_cols(), 2);
  EXPECT_EQ(result->table.cell(2, 1), "4");
}

TEST(IngestTest, BudgetOverrunFallsBackToRecovery) {
  IngestOptions options;
  options.reader.max_cells = 4;
  auto result = IngestText("a,b\nc,d\ne,f\ng,h\n", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->recovered);
  EXPECT_GE(result->diagnostics.count(
                csv::DiagnosticCategory::kRecoveryFallback),
            1u);
  EXPECT_GE(result->table.num_rows(), 1);
}

TEST(IngestTest, RecoveryRetryRecordsForcedScalarFallbackReason) {
  IngestOptions options;
  options.reader.max_cells = 4;
  auto result = IngestText("a,b\nc,d\ne,f\ng,h\n", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->recovered);
  // The recovery retry forced the conservative scalar path; telemetry must
  // say why, and distinguish it from an indexer capability gap.
  EXPECT_EQ(result->scan.requested, csv::ScanMode::kAuto);
  EXPECT_FALSE(result->scan.used_index);
  EXPECT_EQ(result->scan.fallback, csv::ScanFallbackReason::kRecoveryForced);
  const std::string report = result->Report();
  EXPECT_NE(report.find("recovery_forced"), std::string::npos) << report;
  EXPECT_NE(report.find("damaged input"), std::string::npos) << report;
}

TEST(IngestTest, RecoveryFallbackCanBeDisabled) {
  IngestOptions options;
  options.reader.max_cells = 4;
  options.fallback_to_recover = false;
  auto result = IngestText("a,b\nc,d\ne,f\ng,h\n", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(IngestTest, EmptyInputYieldsEmptyTableWithDefaultDialect) {
  auto result = IngestText("");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.num_rows(), 0);
  EXPECT_EQ(result->dialect_source, csv::DialectSource::kDefault);
}

TEST(IngestTest, FigureOneFileSurvivesIngestionUnchanged) {
  const AnnotatedFile file = testing::Figure1File();
  const std::string text = csv::WriteTable(file.table);
  auto result = IngestText(text);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_rows(), file.table.num_rows());
  for (int r = 0; r < file.table.num_rows(); ++r) {
    for (int c = 0; c < file.table.num_cols(); ++c) {
      EXPECT_EQ(result->table.cell(r, c), file.table.cell(r, c))
          << "(" << r << "," << c << ")";
    }
  }
}

TEST(IngestTest, IngestFileReadsFromDiskAndRejectsDirectories) {
  const std::string path = ::testing::TempDir() + "/ingest_test.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "x,y\n1,2\n";
  }
  auto result = IngestFile(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.num_rows(), 2);
  std::remove(path.c_str());

  auto dir = IngestFile(::testing::TempDir());
  ASSERT_FALSE(dir.ok());
  EXPECT_EQ(dir.status().code(), StatusCode::kIOError);
}

TEST(IngestTest, ReportMentionsEncodingDialectAndDiagnostics) {
  auto result = IngestText("a,b\n1,2\n");
  ASSERT_TRUE(result.ok());
  const std::string report = result->Report();
  EXPECT_NE(report.find("encoding:"), std::string::npos);
  EXPECT_NE(report.find("dialect:"), std::string::npos);
  EXPECT_NE(report.find("diagnostics:"), std::string::npos);
}

TEST(IngestTest, ScanTelemetryReportsTheIndexedPath) {
  auto result = IngestText("a,b\n\"1,5\",2\n");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->scan.used_index);
  EXPECT_EQ(result->scan.fallback, csv::ScanFallbackReason::kNone);
  EXPECT_GT(result->scan.structural_count, 0u);
  const std::string report = result->Report();
  EXPECT_NE(report.find("scan:"), std::string::npos);
  EXPECT_NE(report.find("structural-index"), std::string::npos);
}

TEST(IngestTest, IoFallbacksAreAttributedLikeScanFallbacks) {
  // A small file under kAuto routes to the buffered read; doctor must say
  // so and say why, exactly as it attributes scalar-scan fallbacks.
  const std::string path = ::testing::TempDir() + "/ingest_io_auto.csv";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "a,b\n1,2\n";
  }
  auto result = IngestFile(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->scan.io.from_file);
  EXPECT_FALSE(result->scan.io.used_mmap);
  EXPECT_EQ(result->scan.io.fallback, csv::IoFallbackReason::kFileTooSmall);
  EXPECT_EQ(result->scan.io.bytes, 8u);
  const std::string report = result->Report();
  EXPECT_NE(report.find("io:       buffered"), std::string::npos) << report;
  EXPECT_NE(report.find("file_too_small"), std::string::npos) << report;
  EXPECT_NE(report.find("below the mmap threshold"), std::string::npos)
      << report;
  std::remove(path.c_str());
}

TEST(IngestTest, ForcedMmapIsReportedWithoutAFallback) {
  const std::string path = ::testing::TempDir() + "/ingest_io_mmap.csv";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "a,b\n1,2\n";
  }
  IngestOptions options;
  options.reader.io_mode = csv::IoMode::kMmap;
  auto result = IngestFile(path, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->scan.io.used_mmap);
  EXPECT_EQ(result->scan.io.fallback, csv::IoFallbackReason::kNone);
  const std::string report = result->Report();
  EXPECT_NE(report.find("io:       mmap (8 bytes)"), std::string::npos)
      << report;
  EXPECT_EQ(report.find("fallback: not_regular_file"), std::string::npos)
      << report;
  // And the parse is byte-identical to the in-memory route.
  auto in_memory = IngestText("a,b\n1,2\n");
  ASSERT_TRUE(in_memory.ok());
  EXPECT_EQ(csv::WriteTable(result->table),
            csv::WriteTable(in_memory->table));
  std::remove(path.c_str());
}

TEST(IngestTest, FifoInputIsReadBufferedAndAttributed) {
  // A FIFO has no size to map, so kAuto must read it buffered and doctor
  // must name the reason.
  const std::string path = ::testing::TempDir() + "/ingest_fifo.csv";
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream out(path, std::ios::binary);
    out << "a,b\n\"c,d\",e\n";
  });
  auto result = IngestFile(path);
  writer.join();
  std::remove(path.c_str());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->scan.io.used_mmap);
  EXPECT_EQ(result->scan.io.fallback, csv::IoFallbackReason::kNotRegularFile);
  EXPECT_NE(result->Report().find("not_regular_file"), std::string::npos)
      << result->Report();
  EXPECT_EQ(result->table.num_rows(), 2);
}

TEST(IngestTest, InMemoryIngestReportsInMemoryIo) {
  auto result = IngestText("a,b\n1,2\n");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->scan.io.from_file);
  EXPECT_NE(result->Report().find("io:       in-memory"), std::string::npos)
      << result->Report();
}

TEST(IngestTest, ParallelChunkScanIsReportedInDoctor) {
  // Shrink the chunk size so even this small input spans chunks; the
  // scan line must then carry the chunk and repair counts.
  std::string text;
  for (int i = 0; i < 40; ++i) text += "alpha,beta,gamma\n";
  IngestOptions options;
  options.reader.num_threads = 2;
  options.reader.parallel_chunk_bytes = 64;
  auto result = IngestText(text, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->scan.parallel_chunks, 1u);
  const std::string report = result->Report();
  EXPECT_NE(report.find("chunks"), std::string::npos) << report;
  EXPECT_NE(report.find("speculation repairs"), std::string::npos) << report;
}

TEST(IngestTest, ScanModeScalarIsHonoredThroughIngestion) {
  IngestOptions options;
  options.reader.scan_mode = csv::ScanMode::kScalar;
  auto result = IngestText("a,b\n1,2\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->scan.used_index);
  EXPECT_NE(result->Report().find("scan:     scalar"), std::string::npos);
}

}  // namespace
}  // namespace strudel
