// SHA-256 (FIPS 180-4) of a byte string, as lowercase hex. Test-only: the
// golden-output suite records digests that `sha256sum` reproduces.

#ifndef STRUDEL_TESTS_TESTING_SHA256_H_
#define STRUDEL_TESTS_TESTING_SHA256_H_

#include <string>
#include <string_view>

namespace strudel::testing {

std::string Sha256Hex(std::string_view bytes);

}  // namespace strudel::testing

#endif  // STRUDEL_TESTS_TESTING_SHA256_H_
