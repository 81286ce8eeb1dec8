//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic pseudo-random number generation used by the graph
/// generators and tests. Two generators are provided: SplitMix64 (seed
/// expansion) and Xoshiro256** (bulk stream). Determinism across platforms
/// is a hard requirement: every experiment in EXPERIMENTS.md must be exactly
/// reproducible from a seed.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_SUPPORT_PRNG_H
#define ATMEM_SUPPORT_PRNG_H

#include <cstdint>

namespace atmem {

/// SplitMix64: tiny, fast generator mainly used to expand a user seed into
/// the state of a larger generator. Passes BigCrush when used directly.
class SplitMix64 {
public:
  explicit SplitMix64(uint64_t Seed) : State(Seed) {}

  /// Returns the next 64-bit value in the stream.
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

private:
  uint64_t State;
};

/// Xoshiro256**: the project's workhorse generator. Small state, very fast,
/// and high statistical quality for the Monte-Carlo style workloads in the
/// graph generators.
class Xoshiro256 {
public:
  /// Seeds the four-word state via SplitMix64 expansion of \p Seed.
  explicit Xoshiro256(uint64_t Seed);

  /// Returns the next 64-bit value in the stream. Inline: the graph
  /// generators draw several values per edge.
  uint64_t next() {
    uint64_t Result = rotl(State[1] * 5, 7) * 9;
    uint64_t T = State[1] << 17;
    State[2] ^= State[0];
    State[3] ^= State[1];
    State[1] ^= State[2];
    State[0] ^= State[3];
    State[2] ^= T;
    State[3] = rotl(State[3], 45);
    return Result;
  }

  /// Returns a double uniformly distributed in [0, 1): the 53 high bits of
  /// next(), scaled by 2^-53.
  double nextDouble() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Returns a uniformly distributed integer in [0, Bound) using Lemire's
  /// unbiased multiply-shift rejection method. \p Bound must be non-zero.
  uint64_t nextBounded(uint64_t Bound);

private:
  static uint64_t rotl(uint64_t X, int K) { return (X << K) | (X >> (64 - K)); }

  uint64_t State[4];
};

} // namespace atmem

#endif // ATMEM_SUPPORT_PRNG_H
