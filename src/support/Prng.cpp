#include "support/Prng.h"

#include <cassert>

using namespace atmem;

Xoshiro256::Xoshiro256(uint64_t Seed) {
  SplitMix64 SM(Seed);
  for (uint64_t &Word : State)
    Word = SM.next();
}

uint64_t Xoshiro256::nextBounded(uint64_t Bound) {
  assert(Bound != 0 && "nextBounded requires a non-zero bound");
  // Lemire's multiply-shift with rejection to remove modulo bias.
  uint64_t X = next();
  __uint128_t M = static_cast<__uint128_t>(X) * Bound;
  auto Low = static_cast<uint64_t>(M);
  if (Low < Bound) {
    uint64_t Threshold = -Bound % Bound;
    while (Low < Threshold) {
      X = next();
      M = static_cast<__uint128_t>(X) * Bound;
      Low = static_cast<uint64_t>(M);
    }
  }
  return static_cast<uint64_t>(M >> 64);
}
