// Internal checksummed section framing for the v2 model persistence
// format (strudel/model_io.h). Each section is one header line
//
//   section <name> <payload-bytes> <fnv1a64-hex>\n
//
// followed by exactly <payload-bytes> bytes of payload and a trailing
// newline. Readers validate the name, enforce a per-section size cap
// (so an inflated byte count cannot force a huge allocation), read the
// exact payload and verify the FNV-1a 64 checksum before any parsing
// happens. Every failure is a Status::CorruptModel naming the section.
// Not part of the public API.

#ifndef STRUDEL_STRUDEL_SECTION_IO_H_
#define STRUDEL_STRUDEL_SECTION_IO_H_

#include <charconv>
#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace strudel::internal_model_io {

/// Per-section size caps: options are a handful of numbers, normalizers
/// hold two doubles per feature, forests (and the nested line model of a
/// cell model) dominate the file.
inline constexpr size_t kOptionsSectionCap = 64ull * 1024;
inline constexpr size_t kNormalizerSectionCap = 16ull * 1024 * 1024;
inline constexpr size_t kForestSectionCap = 1ull << 30;

inline uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

inline void WriteSection(std::ostream& out, std::string_view name,
                         const std::string& payload) {
  char hex[17];
  const uint64_t hash = Fnv1a64(payload);
  auto [end, ec] = std::to_chars(hex, hex + sizeof(hex) - 1, hash, 16);
  (void)ec;
  *end = '\0';
  out << "section " << name << ' ' << payload.size() << ' ' << hex << '\n';
  out << payload << '\n';
}

/// Reads the section named `name`, enforcing `max_bytes`, and returns the
/// checksum-verified payload.
inline Result<std::string> ReadSection(std::istream& in,
                                       std::string_view name,
                                       size_t max_bytes) {
  const std::string where = "section '" + std::string(name) + "'";
  std::string keyword, got_name, hash_hex;
  uint64_t declared_size = 0;
  if (!(in >> keyword >> got_name >> declared_size >> hash_hex)) {
    return Status::CorruptModel("missing or truncated header for " + where);
  }
  if (keyword != "section" || got_name != name) {
    return Status::CorruptModel("expected " + where + ", found '" + keyword +
                                " " + got_name + "'");
  }
  if (declared_size > max_bytes) {
    return Status::CorruptModel(where + " claims " +
                                std::to_string(declared_size) +
                                " bytes, cap is " + std::to_string(max_bytes));
  }
  uint64_t expected_hash = 0;
  const auto [ptr, ec] = std::from_chars(
      hash_hex.data(), hash_hex.data() + hash_hex.size(), expected_hash, 16);
  if (ec != std::errc() || ptr != hash_hex.data() + hash_hex.size()) {
    return Status::CorruptModel("malformed checksum in " + where);
  }
  if (in.get() != '\n') {
    return Status::CorruptModel("malformed header for " + where);
  }
  std::string payload(static_cast<size_t>(declared_size), '\0');
  in.read(payload.data(), static_cast<std::streamsize>(declared_size));
  if (static_cast<uint64_t>(in.gcount()) != declared_size) {
    return Status::CorruptModel("truncated payload in " + where);
  }
  if (in.get() != '\n') {
    return Status::CorruptModel("missing payload terminator in " + where);
  }
  if (Fnv1a64(payload) != expected_hash) {
    return Status::CorruptModel("checksum mismatch in " + where);
  }
  return payload;
}

/// Reads a trailing optional section: clean end-of-stream means the
/// section is absent (nullopt), but any remaining content must parse as
/// a full valid section named `name`. Partial or foreign trailing data is
/// kCorruptModel, never silently ignored.
inline Result<std::optional<std::string>> ReadOptionalSection(
    std::istream& in, std::string_view name, size_t max_bytes) {
  in >> std::ws;
  if (!in.good() || in.peek() == std::char_traits<char>::eof()) {
    return std::optional<std::string>();
  }
  Result<std::string> section = ReadSection(in, name, max_bytes);
  if (!section.ok()) return section.status();
  return std::optional<std::string>(std::move(section).value());
}

/// Reads the end of a model after its last section. Files written while
/// models carried the flat inference layout end with one more
/// `flat_forest` section; it is still framed, capped and checksum-verified
/// like any section, then discarded, since loaders rebuild the layout
/// from the trees. After that only whitespace may follow: model files end
/// where their last section ends.
inline Status ReadModelEnd(std::istream& in) {
  Result<std::optional<std::string>> legacy =
      ReadOptionalSection(in, "flat_forest", kForestSectionCap);
  if (!legacy.ok()) {
    return Status::CorruptModel("after the last section: " +
                                std::string(legacy.status().message()));
  }
  in >> std::ws;
  if (in.peek() != std::char_traits<char>::eof()) {
    return Status::CorruptModel("trailing data after the last section");
  }
  return Status::OK();
}

}  // namespace strudel::internal_model_io

#endif  // STRUDEL_STRUDEL_SECTION_IO_H_
