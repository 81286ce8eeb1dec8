#include "obs/Json.h"

#include "fault/FaultInjection.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace atmem;
using namespace atmem::obs;

const JsonValue *JsonValue::find(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, Value] : Object)
    if (Name == Key)
      return &Value;
  return nullptr;
}

const JsonValue *JsonValue::findNumber(std::string_view Key) const {
  const JsonValue *V = find(Key);
  return V && V->isNumber() ? V : nullptr;
}

const JsonValue *JsonValue::findString(std::string_view Key) const {
  const JsonValue *V = find(Key);
  return V && V->isString() ? V : nullptr;
}

namespace {

fault::Site ReadFault("io.read");

/// Containers deeper than this are rejected rather than parsed: the
/// recursive-descent parser (and the parsed tree's destructor) consume
/// stack proportional to nesting depth, so adversarial input must be cut
/// off long before the stack is.
constexpr size_t MaxDepth = 256;

class Parser {
public:
  Parser(std::string_view Text, std::string *Error)
      : Text(Text), Error(Error) {}

  bool run(JsonValue &Out) {
    skipWs();
    if (!parseValue(Out))
      return false;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after document");
    return true;
  }

private:
  std::string_view Text;
  std::string *Error;
  size_t Pos = 0;
  size_t Depth = 0;

  bool fail(const std::string &Message) {
    if (Error)
      *Error = Message + " (at byte " + std::to_string(Pos) + ")";
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool parseValue(JsonValue &Out) {
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    switch (C) {
    case '{':
      return parseObject(Out);
    case '[':
      return parseArray(Out);
    case '"':
      Out.K = JsonValue::Kind::String;
      return parseString(Out.StringVal);
    case 't':
    case 'f':
      return parseBool(Out);
    case 'n':
      return parseNull(Out);
    default:
      if (C == '-' || (C >= '0' && C <= '9'))
        return parseNumber(Out);
      return fail(std::string("unexpected character '") + C + "'");
    }
  }

  bool parseLiteral(std::string_view Lit) {
    if (Text.substr(Pos, Lit.size()) != Lit)
      return fail("malformed literal");
    Pos += Lit.size();
    return true;
  }

  bool parseBool(JsonValue &Out) {
    Out.K = JsonValue::Kind::Bool;
    if (Text[Pos] == 't') {
      Out.BoolVal = true;
      return parseLiteral("true");
    }
    Out.BoolVal = false;
    return parseLiteral("false");
  }

  bool parseNull(JsonValue &Out) {
    Out.K = JsonValue::Kind::Null;
    return parseLiteral("null");
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (consume('-'))
      ;
    if (Pos >= Text.size() || !std::isdigit(static_cast<unsigned char>(Text[Pos])))
      return fail("malformed number");
    if (Text[Pos] == '0' && Pos + 1 < Text.size() &&
        std::isdigit(static_cast<unsigned char>(Text[Pos + 1])))
      return fail("leading zero in number");
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    if (consume('.')) {
      if (Pos >= Text.size() ||
          !std::isdigit(static_cast<unsigned char>(Text[Pos])))
        return fail("malformed fraction");
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (Pos >= Text.size() ||
          !std::isdigit(static_cast<unsigned char>(Text[Pos])))
        return fail("malformed exponent");
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    Out.K = JsonValue::Kind::Number;
    Out.NumberVal =
        std::strtod(std::string(Text.substr(Start, Pos - Start)).c_str(),
                    nullptr);
    return true;
  }

  bool parseString(std::string &Out) {
    if (!consume('"'))
      return fail("expected '\"'");
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C == '\\') {
        if (Pos >= Text.size())
          return fail("unterminated escape");
        char E = Text[Pos++];
        switch (E) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'n':
          Out += '\n';
          break;
        case 't':
          Out += '\t';
          break;
        case 'r':
          Out += '\r';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'u': {
          // Pass hex escapes through verbatim; the telemetry layer never
          // emits non-ASCII, so decoding is unnecessary for validation.
          if (Pos + 4 > Text.size())
            return fail("truncated \\u escape");
          Out += "\\u";
          Out += Text.substr(Pos, 4);
          Pos += 4;
          break;
        }
        default:
          return fail("unknown escape");
        }
        continue;
      }
      Out += C;
    }
    return fail("unterminated string");
  }

  bool parseArray(JsonValue &Out) {
    if (++Depth > MaxDepth)
      return fail("nesting too deep");
    Out.K = JsonValue::Kind::Array;
    ++Pos; // '['
    skipWs();
    if (consume(']')) {
      --Depth;
      return true;
    }
    for (;;) {
      JsonValue Element;
      skipWs();
      if (!parseValue(Element))
        return false;
      Out.Array.push_back(std::move(Element));
      skipWs();
      if (consume(']')) {
        --Depth;
        return true;
      }
      if (!consume(','))
        return fail("expected ',' or ']' in array");
    }
  }

  bool parseObject(JsonValue &Out) {
    if (++Depth > MaxDepth)
      return fail("nesting too deep");
    Out.K = JsonValue::Kind::Object;
    ++Pos; // '{'
    skipWs();
    if (consume('}')) {
      --Depth;
      return true;
    }
    for (;;) {
      skipWs();
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (!consume(':'))
        return fail("expected ':' after object key");
      skipWs();
      JsonValue Value;
      if (!parseValue(Value))
        return false;
      Out.Object.emplace_back(std::move(Key), std::move(Value));
      skipWs();
      if (consume('}')) {
        --Depth;
        return true;
      }
      if (!consume(','))
        return fail("expected ',' or '}' in object");
    }
  }
};

} // namespace

bool obs::parseJson(std::string_view Text, JsonValue &Out,
                    std::string *Error) {
  Out = JsonValue();
  return Parser(Text, Error).run(Out);
}

bool obs::parseJsonFile(const std::string &Path, JsonValue &Out,
                        std::string *Error) {
  std::FILE *In = std::fopen(Path.c_str(), "rb");
  if (!In) {
    if (Error)
      *Error = "cannot open '" + Path + "'";
    return false;
  }
  std::string Text;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), In)) > 0) {
    if (ReadFault.shouldFail()) {
      std::fclose(In);
      if (Error)
        *Error = "read error on '" + Path + "' (injected)";
      return false;
    }
    Text.append(Buf, N);
  }
  bool ReadError = std::ferror(In) != 0;
  std::fclose(In);
  if (ReadError) {
    if (Error)
      *Error = "read error on '" + Path + "'";
    return false;
  }
  return parseJson(Text, Out, Error);
}

bool obs::toUnsigned(double Value, uint64_t Max, uint64_t &Out) {
  // 0x1p64 is the first double past UINT64_MAX; the negated comparison
  // also rejects NaN.
  if (!(Value >= 0.0 && Value < 0x1p64) || Value != std::floor(Value))
    return false;
  auto V = static_cast<uint64_t>(Value);
  if (V > Max)
    return false;
  Out = V;
  return true;
}
