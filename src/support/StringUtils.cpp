#include "support/StringUtils.h"

#include "support/Error.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace atmem;

std::string atmem::formatBytes(uint64_t Bytes) {
  static const char *Units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double Value = static_cast<double>(Bytes);
  size_t Unit = 0;
  while (Value >= 1024.0 && Unit + 1 < sizeof(Units) / sizeof(Units[0])) {
    Value /= 1024.0;
    ++Unit;
  }
  char Buf[64];
  if (Unit == 0)
    std::snprintf(Buf, sizeof(Buf), "%llu B",
                  static_cast<unsigned long long>(Bytes));
  else
    std::snprintf(Buf, sizeof(Buf), "%.2f %s", Value, Units[Unit]);
  return Buf;
}

std::string atmem::formatSeconds(double Seconds) {
  char Buf[64];
  if (Seconds < 1e-6)
    std::snprintf(Buf, sizeof(Buf), "%.1f ns", Seconds * 1e9);
  else if (Seconds < 1e-3)
    std::snprintf(Buf, sizeof(Buf), "%.2f us", Seconds * 1e6);
  else if (Seconds < 1.0)
    std::snprintf(Buf, sizeof(Buf), "%.2f ms", Seconds * 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%.3f s", Seconds);
  return Buf;
}

std::string atmem::formatDouble(double Value, int Digits) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Digits, Value);
  return Buf;
}

std::string atmem::formatSpeedup(double Ratio) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.2fx", Ratio);
  return Buf;
}

std::string atmem::formatPercent(double Fraction, int Digits) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f%%", Digits, Fraction * 100.0);
  return Buf;
}

std::vector<std::string> atmem::splitString(std::string_view Text, char Sep) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (Start <= Text.size()) {
    size_t End = Text.find(Sep, Start);
    if (End == std::string_view::npos)
      End = Text.size();
    if (End > Start)
      Parts.emplace_back(Text.substr(Start, End - Start));
    Start = End + 1;
  }
  return Parts;
}

bool atmem::startsWith(std::string_view Text, std::string_view Prefix) {
  return Text.size() >= Prefix.size() &&
         Text.substr(0, Prefix.size()) == Prefix;
}

bool atmem::tryParseUnsigned(std::string_view Text, uint64_t &Out) {
  // strtoull skips leading space and accepts a sign ("-1" wraps to
  // UINT64_MAX), so the first character must already be a digit.
  if (Text.empty() || Text[0] < '0' || Text[0] > '9')
    return false;
  std::string Copy(Text);
  errno = 0;
  char *End = nullptr;
  unsigned long long Value = std::strtoull(Copy.c_str(), &End, 10);
  if (errno != 0 || End != Copy.c_str() + Copy.size())
    return false;
  Out = Value;
  return true;
}

uint64_t atmem::parseUnsigned(std::string_view Text) {
  uint64_t Value = 0;
  if (!tryParseUnsigned(Text, Value))
    reportFatalError("malformed unsigned integer: '" + std::string(Text) +
                     "'");
  return Value;
}

double atmem::parseDoubleOrDie(std::string_view Text) {
  std::string Copy(Text);
  errno = 0;
  char *End = nullptr;
  double Value = std::strtod(Copy.c_str(), &End);
  if (errno != 0 || End == Copy.c_str() || *End != '\0')
    reportFatalError("malformed floating point value: '" + Copy + "'");
  return Value;
}
