// pkcs1.hpp — RSASSA-PKCS1-v1_5 signatures (RFC 8017 §8.2) over the
// repo's CRT private-key context (RsaCrtContext), plus the SHA-256
// compression the encoding needs.  This is what turns the raw modexp
// service into a *real* signature scheme: the signing service front-end (src/server/) signs
// EMSA-PKCS1-v1_5 encoded digests, never raw caller-controlled integers.
//
// SHA-256 is implemented here from scratch (FIPS 180-4); the container
// bakes in no crypto library and the repo links nothing external.  It is a
// straightforward portable implementation — fast enough for request
// hashing, not a performance claim of the paper.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "bignum/biguint.hpp"
#include "crypto/rsa.hpp"

namespace mont::crypto {

/// SHA-256 of `data` (FIPS 180-4).
std::array<std::uint8_t, 32> Sha256(std::span<const std::uint8_t> data);

/// EMSA-PKCS1-v1_5 needs emLen >= tLen + 11 = (19 + 32) + 11 bytes for a
/// SHA-256 DigestInfo, so the modulus must be at least 62 bytes (496
/// bits); the server uses >= 512-bit keys.
inline constexpr std::size_t kPkcs1MinModulusBytes = 62;

/// EMSA-PKCS1-v1_5 encoding of message's SHA-256 digest for a
/// `modulus_bytes`-byte modulus, returned as the message representative
/// integer EM = 0x00 || 0x01 || 0xff..0xff || 0x00 || DigestInfo || H.
/// The leading zero byte makes EM < 2^(8(k-1)) <= n, so EM is always a
/// valid RSA input.  Throws std::invalid_argument when modulus_bytes <
/// kPkcs1MinModulusBytes.
bignum::BigUInt EmsaPkcs1V15Encode(std::span<const std::uint8_t> message,
                                   std::size_t modulus_bytes);

/// RSASSA-PKCS1-v1_5 signature of `message` (RsaCrtContext::Sign, with
/// the Bellcore/Lenstra release check; throws std::runtime_error on a
/// detected fault).
bignum::BigUInt RsaSignPkcs1V15(const RsaCrtContext& context,
                                std::span<const std::uint8_t> message);

/// Verifies an RSASSA-PKCS1-v1_5 signature: sig^e mod n must equal the
/// full EMSA encoding of message's digest (exact match — no tolerance
/// for padding variants).
bool RsaVerifyPkcs1V15(const RsaKeyPair& key,
                       std::span<const std::uint8_t> message,
                       const bignum::BigUInt& signature,
                       std::string_view engine = "word-mont");

}  // namespace mont::crypto
