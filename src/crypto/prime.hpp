// prime.hpp — primality testing and prime generation for RSA key
// generation.  Every Miller–Rabin witness exponentiation runs on the
// "word-mont" engine's MmmEngine::ModExp (core/engine.hpp), the same
// §4.5 scan as every other exponentiation in the tree.
#pragma once

#include <cstdint>

#include "bignum/biguint.hpp"
#include "bignum/random.hpp"

namespace mont::crypto {

/// Miller-Rabin probabilistic primality test.
/// `rounds` random bases are drawn from `rng`; 2 and 3 are always tried
/// first so small composites are rejected deterministically.
bool IsProbablePrime(const bignum::BigUInt& candidate,
                     bignum::RandomBigUInt& rng, int rounds = 24);

/// Generates a random probable prime with exactly `bits` significant bits.
/// The top two bits are forced to 1 (so RSA moduli p*q reach full length)
/// and candidates are sieved by the small primes below 1000 before the
/// Miller-Rabin rounds.
bignum::BigUInt GeneratePrime(std::size_t bits, bignum::RandomBigUInt& rng,
                              int rounds = 24);

}  // namespace mont::crypto
