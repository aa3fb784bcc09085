// pkcs1.cpp — SHA-256 (FIPS 180-4) and RSASSA-PKCS1-v1_5 (RFC 8017 §8.2).
#include "crypto/pkcs1.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

namespace mont::crypto {

using bignum::BigUInt;

namespace {

// ---------------------------------------------------------------------------
// SHA-256
// ---------------------------------------------------------------------------

constexpr std::array<std::uint32_t, 64> kSha256K = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu,
    0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u,
    0x243185beu, 0x550c7dc3u, 0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u,
    0xc19bf174u, 0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau, 0x983e5152u,
    0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu,
    0x53380d13u, 0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u, 0xd192e819u,
    0xd6990624u, 0xf40e3585u, 0x106aa070u, 0x19a4c116u, 0x1e376c08u,
    0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu,
    0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u};

constexpr std::uint32_t Rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void Sha256Compress(std::array<std::uint32_t, 8>& state,
                    const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int t = 0; t < 16; ++t) {
    w[t] = (static_cast<std::uint32_t>(block[4 * t]) << 24) |
           (static_cast<std::uint32_t>(block[4 * t + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * t + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * t + 3]);
  }
  for (int t = 16; t < 64; ++t) {
    const std::uint32_t s0 =
        Rotr(w[t - 15], 7) ^ Rotr(w[t - 15], 18) ^ (w[t - 15] >> 3);
    const std::uint32_t s1 =
        Rotr(w[t - 2], 17) ^ Rotr(w[t - 2], 19) ^ (w[t - 2] >> 10);
    w[t] = w[t - 16] + s0 + w[t - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int t = 0; t < 64; ++t) {
    const std::uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kSha256K[t] + w[t];
    const std::uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

// ASN.1 DigestInfo prefix for SHA-256 (RFC 8017 §9.2 note 1): the DER
// encoding of AlgorithmIdentifier{id-sha256, NULL} + OCTET STRING header.
constexpr std::array<std::uint8_t, 19> kSha256DigestInfoPrefix = {
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
    0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20};

}  // namespace

std::array<std::uint8_t, 32> Sha256(std::span<const std::uint8_t> data) {
  std::array<std::uint32_t, 8> state = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u,
                                        0xa54ff53au, 0x510e527fu, 0x9b05688cu,
                                        0x1f83d9abu, 0x5be0cd19u};
  std::size_t offset = 0;
  for (; offset + 64 <= data.size(); offset += 64) {
    Sha256Compress(state, data.data() + offset);
  }
  // Final block(s): the 0x80 terminator and the 64-bit bit length.
  std::uint8_t tail[128] = {};
  const std::size_t rem = data.size() - offset;
  if (rem > 0) std::memcpy(tail, data.data() + offset, rem);
  tail[rem] = 0x80;
  const std::size_t tail_len = rem + 1 + 8 <= 64 ? 64 : 128;
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_len - 1 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  Sha256Compress(state, tail);
  if (tail_len == 128) Sha256Compress(state, tail + 64);
  std::array<std::uint8_t, 32> digest;
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
  return digest;
}

BigUInt EmsaPkcs1V15Encode(std::span<const std::uint8_t> message,
                           std::size_t modulus_bytes) {
  if (modulus_bytes < kPkcs1MinModulusBytes) {
    throw std::invalid_argument(
        "EmsaPkcs1V15Encode: modulus too short for a SHA-256 DigestInfo "
        "(needs >= 62 bytes / 496 bits)");
  }
  const std::array<std::uint8_t, 32> digest = Sha256(message);
  std::vector<std::uint8_t> em(modulus_bytes, 0xff);
  em[0] = 0x00;
  em[1] = 0x01;
  const std::size_t t_len = kSha256DigestInfoPrefix.size() + digest.size();
  em[modulus_bytes - t_len - 1] = 0x00;
  std::memcpy(em.data() + modulus_bytes - t_len, kSha256DigestInfoPrefix.data(),
              kSha256DigestInfoPrefix.size());
  std::memcpy(em.data() + modulus_bytes - digest.size(), digest.data(),
              digest.size());
  return BigUInt::FromBytesBE(em);
}

BigUInt RsaSignPkcs1V15(const RsaCrtContext& context,
                        std::span<const std::uint8_t> message) {
  return context.Sign(EmsaPkcs1V15Encode(message, context.modulus_bytes()));
}

bool RsaVerifyPkcs1V15(const RsaKeyPair& key,
                       std::span<const std::uint8_t> message,
                       const bignum::BigUInt& signature,
                       std::string_view engine) {
  if (signature >= key.n) return false;
  const std::size_t k = (key.n.BitLength() + 7) / 8;
  BigUInt em;
  try {
    em = EmsaPkcs1V15Encode(message, k);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return RsaPublic(key, signature, engine) == em;
}

}  // namespace mont::crypto
