// Deterministic byte-level fault injection for serialised models.
//
// Mirrors tests/testing/corruptor.h but targets the model persistence
// format instead of CSV input: truncated writes, flipped bytes, swapped
// fields, inflated node/tree counts (the allocation-bomb case), damaged
// section checksums, deleted tokens and spliced garbage. Everything is a
// pure function of (input, rng state), so any failing case reproduces
// exactly from its seed.

#ifndef STRUDEL_TESTS_TESTING_MODEL_CORRUPTOR_H_
#define STRUDEL_TESTS_TESTING_MODEL_CORRUPTOR_H_

#include <string>
#include <string_view>

#include "common/rng.h"

namespace strudel::testing {

enum class ModelCorruptionKind {
  kTruncate = 0,    // cut the stream at a random byte offset
  kByteFlip,        // overwrite random bytes with random printable bytes
  kFieldSwap,       // swap two whitespace-separated tokens
  kCountInflate,    // multiply a random integer token (count bomb)
  kChecksumDamage,  // damage a section checksum digit
  kTokenDelete,     // delete a random token
  kGarbageInsert,   // splice random bytes into the middle
  kFlatSection,     // damage a legacy flat_forest section specifically:
                    // truncate inside its payload, flip a payload byte
                    // (stale checksum), or flip a payload byte AND
                    // recompute the checksum, so only the loader's
                    // discarding of the payload keeps it harmless
};

inline constexpr ModelCorruptionKind kAllModelCorruptionKinds[] = {
    ModelCorruptionKind::kTruncate,       ModelCorruptionKind::kByteFlip,
    ModelCorruptionKind::kFieldSwap,      ModelCorruptionKind::kCountInflate,
    ModelCorruptionKind::kChecksumDamage, ModelCorruptionKind::kTokenDelete,
    ModelCorruptionKind::kGarbageInsert,  ModelCorruptionKind::kFlatSection,
};

std::string_view ModelCorruptionKindName(ModelCorruptionKind kind);

/// Applies one mutation of the given kind. Deterministic in `rng`.
std::string CorruptModelBytes(std::string input, ModelCorruptionKind kind,
                              Rng& rng);

/// Appends a well-framed `flat_forest` section holding a one-split
/// layout in the old "flat v1" text, as models written while the format
/// carried the flat inference layout ended. Loaders verify such a
/// section and discard it.
std::string AppendLegacyFlatSection(std::string model_bytes);

}  // namespace strudel::testing

#endif  // STRUDEL_TESTS_TESTING_MODEL_CORRUPTOR_H_
