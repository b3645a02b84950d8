#include "testing/model_corruptor.h"

#include <cctype>
#include <charconv>
#include <sstream>
#include <utility>
#include <vector>

#include "strudel/section_io.h"

namespace strudel::testing {

namespace {

struct Token {
  size_t begin = 0;
  size_t size = 0;
};

// Whitespace-separated token spans, the atoms of the text model format.
std::vector<Token> Tokenize(std::string_view text) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    const size_t begin = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > begin) tokens.push_back({begin, i - begin});
  }
  return tokens;
}

bool IsIntegerToken(std::string_view text, const Token& token) {
  if (token.size == 0) return false;
  for (size_t i = 0; i < token.size; ++i) {
    if (!std::isdigit(static_cast<unsigned char>(text[token.begin + i]))) {
      return false;
    }
  }
  return true;
}

std::string Truncate(std::string input, Rng& rng) {
  if (input.empty()) return input;
  input.resize(rng.UniformInt(static_cast<uint64_t>(input.size())));
  return input;
}

std::string ByteFlip(std::string input, Rng& rng) {
  if (input.empty()) return input;
  const int hits = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{4}));
  for (int i = 0; i < hits; ++i) {
    const size_t at = rng.UniformInt(static_cast<uint64_t>(input.size()));
    input[at] = static_cast<char>('!' + rng.UniformInt(uint64_t{93}));
  }
  return input;
}

std::string FieldSwap(std::string input, Rng& rng) {
  const std::vector<Token> tokens = Tokenize(input);
  if (tokens.size() < 2) return input;
  const size_t a = rng.UniformInt(static_cast<uint64_t>(tokens.size()));
  size_t b = rng.UniformInt(static_cast<uint64_t>(tokens.size()));
  if (a == b) b = (b + 1) % tokens.size();
  const Token& first = tokens[std::min(a, b)];
  const Token& second = tokens[std::max(a, b)];
  const std::string first_text = input.substr(first.begin, first.size);
  const std::string second_text = input.substr(second.begin, second.size);
  // Replace back-to-front so the earlier offset stays valid.
  input.replace(second.begin, second.size, first_text);
  input.replace(first.begin, first.size, second_text);
  return input;
}

std::string CountInflate(std::string input, Rng& rng) {
  const std::vector<Token> tokens = Tokenize(input);
  std::vector<Token> integers;
  for (const Token& token : tokens) {
    if (IsIntegerToken(input, token)) integers.push_back(token);
  }
  if (integers.empty()) return input;
  const Token& victim =
      integers[rng.UniformInt(static_cast<uint64_t>(integers.size()))];
  // Turn an innocuous count into a multi-billion one; hardened loaders
  // must refuse it without attempting the allocation.
  input.replace(victim.begin, victim.size,
                input.substr(victim.begin, victim.size) + "9999999");
  return input;
}

std::string ChecksumDamage(std::string input, Rng& rng) {
  // Section headers look like "section <name> <bytes> <hex>\n"; damage a
  // digit of the final hex token of one of them.
  std::vector<std::pair<size_t, size_t>> checksums;  // (begin, size)
  size_t line_start = 0;
  while (line_start < input.size()) {
    size_t line_end = input.find('\n', line_start);
    if (line_end == std::string::npos) line_end = input.size();
    const std::string_view line(input.data() + line_start,
                                line_end - line_start);
    if (line.rfind("section ", 0) == 0) {
      const size_t hex_begin = line.find_last_of(' ');
      if (hex_begin != std::string_view::npos && hex_begin + 1 < line.size()) {
        checksums.emplace_back(line_start + hex_begin + 1,
                               line.size() - hex_begin - 1);
      }
    }
    line_start = line_end + 1;
  }
  if (checksums.empty()) return ByteFlip(std::move(input), rng);
  const auto [begin, size] =
      checksums[rng.UniformInt(static_cast<uint64_t>(checksums.size()))];
  const size_t at = begin + rng.UniformInt(static_cast<uint64_t>(size));
  input[at] = input[at] == 'f' ? '0' : 'f';
  return input;
}

std::string TokenDelete(std::string input, Rng& rng) {
  const std::vector<Token> tokens = Tokenize(input);
  if (tokens.empty()) return input;
  const Token& victim =
      tokens[rng.UniformInt(static_cast<uint64_t>(tokens.size()))];
  input.erase(victim.begin, victim.size);
  return input;
}

std::string GarbageInsert(std::string input, Rng& rng) {
  const size_t at = rng.UniformInt(static_cast<uint64_t>(input.size() + 1));
  const int length = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{16}));
  std::string garbage;
  for (int i = 0; i < length; ++i) {
    garbage += static_cast<char>(rng.UniformInt(uint64_t{256}));
  }
  input.insert(at, garbage);
  return input;
}

// Targets a legacy flat_forest section (the inference layout older
// models carried). Three escalating variants: a truncation inside the
// payload, a payload byte flip the section checksum catches, and a
// payload byte flip with the FNV checksum recomputed — the hardest case,
// where only the loader's discarding of the payload stands between a
// damaged layout and a misprediction.
std::string FlatSection(std::string input, Rng& rng) {
  constexpr std::string_view kNeedle = "section flat_forest ";
  // A cell model nests a line model, so there can be several flat
  // sections; pick the last (the outer model's own).
  const size_t header_begin = input.rfind(kNeedle);
  if (header_begin == std::string::npos) {
    return ByteFlip(std::move(input), rng);
  }
  size_t i = header_begin + kNeedle.size();
  uint64_t payload_bytes = 0;
  while (i < input.size() &&
         std::isdigit(static_cast<unsigned char>(input[i]))) {
    payload_bytes = payload_bytes * 10 + static_cast<uint64_t>(input[i] - '0');
    ++i;
  }
  if (i >= input.size() || input[i] != ' ') {
    return ByteFlip(std::move(input), rng);
  }
  const size_t hex_begin = i + 1;
  const size_t header_end = input.find('\n', hex_begin);
  if (header_end == std::string::npos) {
    return ByteFlip(std::move(input), rng);
  }
  const size_t hex_size = header_end - hex_begin;
  const size_t payload_begin = header_end + 1;
  if (payload_bytes == 0 ||
      payload_begin + payload_bytes > input.size()) {
    return ByteFlip(std::move(input), rng);
  }

  const uint64_t variant = rng.UniformInt(uint64_t{3});
  if (variant == 0) {
    input.resize(payload_begin + rng.UniformInt(payload_bytes));
    return input;
  }
  const size_t at = payload_begin + rng.UniformInt(payload_bytes);
  char replacement = static_cast<char>('!' + rng.UniformInt(uint64_t{93}));
  if (replacement == input[at]) {
    replacement = replacement == '!' ? '"' : '!';
  }
  input[at] = replacement;
  if (variant == 2) {
    const uint64_t hash = internal_model_io::Fnv1a64(
        std::string_view(input).substr(payload_begin, payload_bytes));
    char hex[17];
    auto [end, ec] = std::to_chars(hex, hex + sizeof(hex) - 1, hash, 16);
    (void)ec;
    input.replace(hex_begin, hex_size,
                  std::string(hex, static_cast<size_t>(end - hex)));
  }
  return input;
}

}  // namespace

std::string_view ModelCorruptionKindName(ModelCorruptionKind kind) {
  switch (kind) {
    case ModelCorruptionKind::kTruncate:
      return "truncate";
    case ModelCorruptionKind::kByteFlip:
      return "byte_flip";
    case ModelCorruptionKind::kFieldSwap:
      return "field_swap";
    case ModelCorruptionKind::kCountInflate:
      return "count_inflate";
    case ModelCorruptionKind::kChecksumDamage:
      return "checksum_damage";
    case ModelCorruptionKind::kTokenDelete:
      return "token_delete";
    case ModelCorruptionKind::kGarbageInsert:
      return "garbage_insert";
    case ModelCorruptionKind::kFlatSection:
      return "flat_section";
  }
  return "unknown";
}

std::string AppendLegacyFlatSection(std::string model_bytes) {
  std::ostringstream section;
  internal_model_io::WriteSection(section, "flat_forest",
                                  "flat v1 2 2 1 1 2\n0\n"
                                  "0 0.5 -1 -2\n1 0\n0 1\n");
  return std::move(model_bytes) + section.str();
}

std::string CorruptModelBytes(std::string input, ModelCorruptionKind kind,
                              Rng& rng) {
  switch (kind) {
    case ModelCorruptionKind::kTruncate:
      return Truncate(std::move(input), rng);
    case ModelCorruptionKind::kByteFlip:
      return ByteFlip(std::move(input), rng);
    case ModelCorruptionKind::kFieldSwap:
      return FieldSwap(std::move(input), rng);
    case ModelCorruptionKind::kCountInflate:
      return CountInflate(std::move(input), rng);
    case ModelCorruptionKind::kChecksumDamage:
      return ChecksumDamage(std::move(input), rng);
    case ModelCorruptionKind::kTokenDelete:
      return TokenDelete(std::move(input), rng);
    case ModelCorruptionKind::kGarbageInsert:
      return GarbageInsert(std::move(input), rng);
    case ModelCorruptionKind::kFlatSection:
      return FlatSection(std::move(input), rng);
  }
  return input;
}

}  // namespace strudel::testing
