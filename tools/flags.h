// Minimal command-line flag matching shared by the CLI tools. One ArgMatcher
// wraps one argv token; the tool tries its flags in turn:
//
//   twchase::flags::ArgMatcher m(arg);
//   if (m.Flag("--measures", &measures)) {
//   } else if (m.SizeValue("--max-steps", &max_steps)) {
//   } else { ... positional or unknown ... }
//   if (!m.ok()) { fprintf(stderr, "%s\n", m.error().c_str()); return 2; }
//
// Value parsing is strict: "--max-steps=abc" and "--max-steps=" are matched
// (so the caller's flag dispatch still ends) but record an error instead of
// silently yielding 0 the way strtoul would. Rejections are specific:
// "--max-steps=99999999999999999999" reports an overflow of the 64-bit
// target (not a generic "not an integer"), "--deadline-ms=-1" reports that
// negative values are not accepted, and scaled flags (--memory-budget-mb)
// check that the scaled product still fits instead of silently wrapping.
#ifndef TWCHASE_TOOLS_FLAGS_H_
#define TWCHASE_TOOLS_FLAGS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace twchase {
namespace flags {

/// Why a strict numeric parse rejected its input. Distinct outcomes produce
/// distinct error messages: a user typing a too-large budget needs to hear
/// "overflows", not "not an integer".
enum class ParseOutcome {
  kOk = 0,
  kMalformed,   // empty, non-digit characters, trailing garbage
  kNegative,    // a well-formed negative number ("-1"); never valid here
  kOutOfRange,  // well-formed but overflows the 64-bit target
};

/// Strict decimal parse of an entire string into a size_t. Rejects empty
/// strings, signs, whitespace and trailing garbage as kMalformed, a
/// well-formed negative number as kNegative, and a value that does not fit
/// the target as kOutOfRange. *out is written only on kOk.
inline ParseOutcome ParseSizeChecked(const std::string& text, size_t* out) {
  if (text.empty()) return ParseOutcome::kMalformed;
  if (text[0] == '-') {
    // Distinguish "-12" (negative: a number, just not an acceptable one)
    // from "-x" or a bare "-" (malformed).
    if (text.size() == 1) return ParseOutcome::kMalformed;
    for (size_t i = 1; i < text.size(); ++i) {
      if (text[i] < '0' || text[i] > '9') return ParseOutcome::kMalformed;
    }
    return ParseOutcome::kNegative;
  }
  size_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return ParseOutcome::kMalformed;
    size_t digit = static_cast<size_t>(c - '0');
    if (value > (SIZE_MAX - digit) / 10) return ParseOutcome::kOutOfRange;
    value = value * 10 + digit;
  }
  *out = value;
  return ParseOutcome::kOk;
}

/// ParseSizeChecked collapsed to a bool, for callers that do not report.
inline bool ParseSize(const std::string& text, size_t* out) {
  return ParseSizeChecked(text, out) == ParseOutcome::kOk;
}

/// Matches one argv token against flag patterns. Matching methods return
/// true when the token is consumed by that flag — possibly with a recorded
/// error (malformed value); check ok() after dispatch.
class ArgMatcher {
 public:
  explicit ArgMatcher(const std::string& arg) : arg_(arg) {}

  /// Bare boolean flag: exactly "name". Sets *out to true on match.
  bool Flag(const char* name, bool* out) {
    if (arg_ != name) return false;
    *out = true;
    return true;
  }

  /// String-valued flag: "name=VALUE" (VALUE may be empty).
  bool Value(const char* name, std::string* out) {
    std::string prefix = std::string(name) + "=";
    if (arg_.rfind(prefix, 0) != 0) return false;
    *out = arg_.substr(prefix.size());
    return true;
  }

  /// Size-valued flag: "name=N" with N a strict non-negative decimal.
  /// A malformed, negative or overflowing N still consumes the token but
  /// records a specific error.
  bool SizeValue(const char* name, size_t* out) {
    std::string text;
    if (!Value(name, &text)) return false;
    RecordParseError(name, text, ParseSizeChecked(text, out));
    return true;
  }

  /// SizeValue with an inclusive [min, max] range check on the parsed
  /// value (e.g. --http-threads must be at least 1).
  bool BoundedSizeValue(const char* name, size_t* out, size_t min,
                        size_t max) {
    std::string text;
    if (!Value(name, &text)) return false;
    size_t value = 0;
    ParseOutcome outcome = ParseSizeChecked(text, &value);
    if (outcome != ParseOutcome::kOk) {
      RecordParseError(name, text, outcome);
      return true;
    }
    if (value < min || value > max) {
      error_ = std::string("invalid value for ") + name + ": '" + text +
               "' (must be between " + std::to_string(min) + " and " +
               std::to_string(max) + ")";
      return true;
    }
    *out = value;
    return true;
  }

  /// SizeValue scaled by a fixed multiplier (e.g. --memory-budget-mb=N
  /// stores N * 1024 * 1024 bytes). The scaled product is range-checked:
  /// a value whose product would wrap a 64-bit size is rejected as out of
  /// range instead of silently truncating the budget.
  bool ScaledSizeValue(const char* name, size_t* out, size_t multiplier) {
    std::string text;
    if (!Value(name, &text)) return false;
    size_t value = 0;
    ParseOutcome outcome = ParseSizeChecked(text, &value);
    if (outcome == ParseOutcome::kOk && multiplier != 0 &&
        value > SIZE_MAX / multiplier) {
      outcome = ParseOutcome::kOutOfRange;
    }
    if (outcome != ParseOutcome::kOk) {
      RecordParseError(name, text, outcome);
      return true;
    }
    *out = value * multiplier;
    return true;
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  void RecordParseError(const char* name, const std::string& text,
                        ParseOutcome outcome) {
    switch (outcome) {
      case ParseOutcome::kOk:
        break;
      case ParseOutcome::kMalformed:
        error_ = std::string("invalid value for ") + name + ": '" + text +
                 "' (expected a non-negative integer)";
        break;
      case ParseOutcome::kNegative:
        error_ = std::string("invalid value for ") + name + ": '" + text +
                 "' (negative values are not accepted)";
        break;
      case ParseOutcome::kOutOfRange:
        error_ = std::string("invalid value for ") + name + ": '" + text +
                 "' (out of range: overflows the 64-bit target)";
        break;
    }
  }

  const std::string& arg_;
  std::string error_;
};

}  // namespace flags
}  // namespace twchase

#endif  // TWCHASE_TOOLS_FLAGS_H_
