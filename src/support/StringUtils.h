//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Formatting helpers shared by tools and benchmark harnesses: human
/// readable byte sizes, durations, ratios, and basic string splitting.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_SUPPORT_STRINGUTILS_H
#define ATMEM_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace atmem {

/// Formats \p Bytes as a human readable size ("1.50 MiB").
std::string formatBytes(uint64_t Bytes);

/// Formats \p Seconds with an adaptive unit ("12.3 ms", "1.20 s").
std::string formatSeconds(double Seconds);

/// Formats \p Value with \p Digits digits after the decimal point.
std::string formatDouble(double Value, int Digits = 2);

/// Formats \p Ratio as a multiplier string ("2.4x").
std::string formatSpeedup(double Ratio);

/// Formats \p Fraction (0..1) as a percentage string ("12.5%").
std::string formatPercent(double Fraction, int Digits = 1);

/// Splits \p Text on \p Sep, dropping empty pieces.
std::vector<std::string> splitString(std::string_view Text, char Sep);

/// True when \p Text begins with \p Prefix.
bool startsWith(std::string_view Text, std::string_view Prefix);

/// Parses a non-negative decimal integer into \p Out. False, with \p Out
/// unchanged, when the text is empty, does not start with a digit (a sign
/// or leading space), has trailing characters, or overflows 64 bits.
bool tryParseUnsigned(std::string_view Text, uint64_t &Out);

/// tryParseUnsigned() that aborts with a fatal error on malformed input
/// (tool-level helper, not for untrusted data paths).
uint64_t parseUnsigned(std::string_view Text);

/// Parses a double; aborts with a fatal error on malformed input.
double parseDoubleOrDie(std::string_view Text);

} // namespace atmem

#endif // ATMEM_SUPPORT_STRINGUTILS_H
