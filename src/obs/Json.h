//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal JSON document model and recursive-descent parser, used to
/// validate the telemetry layer's exported artifacts (metrics snapshots,
/// Chrome trace files, bench timing blocks) in tests and in the
/// atmem_obs_check tool. Parsing is strict: trailing garbage, unterminated
/// strings, and malformed numbers are errors. Not a general-purpose JSON
/// library — no unicode escapes beyond pass-through, no streaming.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_OBS_JSON_H
#define ATMEM_OBS_JSON_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace atmem {
namespace obs {

/// One parsed JSON value.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool BoolVal = false;
  double NumberVal = 0.0;
  std::string StringVal;
  std::vector<JsonValue> Array;
  /// Members in document order (duplicate keys preserved).
  std::vector<std::pair<std::string, JsonValue>> Object;

  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Member lookup on objects; nullptr when absent or not an object.
  const JsonValue *find(std::string_view Key) const;

  /// Convenience: find + isNumber / isString.
  const JsonValue *findNumber(std::string_view Key) const;
  const JsonValue *findString(std::string_view Key) const;
};

/// Parses \p Text into \p Out. On failure returns false and, when
/// \p Error is non-null, stores a message with the byte offset.
bool parseJson(std::string_view Text, JsonValue &Out,
               std::string *Error = nullptr);

/// Reads and parses a whole file; false on I/O or parse failure.
bool parseJsonFile(const std::string &Path, JsonValue &Out,
                   std::string *Error = nullptr);

/// Converts a parsed number to an unsigned integer no larger than \p Max.
/// False for a negative, NaN, fractional or out-of-range \p Value (a
/// plain static_cast of those is undefined behaviour); \p Out is then
/// unchanged.
bool toUnsigned(double Value, uint64_t Max, uint64_t &Out);

} // namespace obs
} // namespace atmem

#endif // ATMEM_OBS_JSON_H
