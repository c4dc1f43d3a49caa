// Whole-string numeric parsing for text from outside the process (CLI
// arguments, repro files). Empty input, trailing garbage, overflow, a
// non-finite value or one below the minimum all fail and leave *out as it
// was; unlike atoi/strtod with a null end pointer, "12abc" is not 12.
#ifndef SRC_COMMON_PARSE_H_
#define SRC_COMMON_PARSE_H_

#include <cstdint>
#include <string>

namespace tableau {

bool ParseInt(const char* text, int min, int* out);
bool ParseI64(const char* text, std::int64_t min, std::int64_t* out);
// Decimal digits only: no sign (strtoull would wrap "-1" around).
bool ParseU64(const char* text, std::uint64_t* out);
// A finite value >= 0, or > 0 when `positive`.
bool ParseReal(const char* text, bool positive, double* out);

// "%.17g": the text ParseReal reads back as exactly `value`.
std::string FormatReal(double value);

}  // namespace tableau

#endif  // SRC_COMMON_PARSE_H_
