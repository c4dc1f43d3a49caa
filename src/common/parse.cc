#include "src/common/parse.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace tableau {

bool ParseInt(const char* text, int min, int* out) {
  std::int64_t value = 0;
  if (!ParseI64(text, min, &value) || value > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

bool ParseI64(const char* text, std::int64_t min, std::int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < min) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseU64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
      errno == ERANGE) {
    return false;
  }
  *out = value;
  return true;
}

std::string FormatReal(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

bool ParseReal(const char* text, bool positive, double* out) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(value) ||
      value < 0 || (positive && value == 0)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace tableau
