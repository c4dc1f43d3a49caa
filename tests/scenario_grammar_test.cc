// The scenario grammar under hostile input, and the generators behind it
// pinned (`ctest -L check`):
//
//  - every committed reproducer (tests/repro/**), mutated 500 times by a
//    seeded xorshift — flipped bytes, truncation, lines spliced in from the
//    other family, duplicated lines, numbers swapped for nan, -1, 1e308 or
//    99999999999 — never makes Parse abort, and every spec it accepts is a
//    fixed point: Format(Parse(x)) parses back to the same text. Only
//    parsing and formatting run, so it stays cheap under sanitizers;
//  - an FNV-1a hash of the formatted host specs of seeds 0-999 equals the
//    value taken before the two fuzzers shared one grammar: the same specs
//    are drawn (the adapt battery pins its own specs and resize logs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "src/check/scenario.h"

#ifndef TABLEAU_REPRO_DIR
#error "TABLEAU_REPRO_DIR must point at the committed reproducer corpus"
#endif

namespace tableau::check {
namespace {

struct Corpus {
  std::vector<std::string> host;
  std::vector<std::string> adapt;
};

Corpus ReadCorpus() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(TABLEAU_REPRO_DIR)) {
    if (entry.path().extension() == ".txt") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  Corpus corpus;
  for (const std::filesystem::path& path : paths) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    const std::optional<AnySpec> spec = Parse(text.str());
    EXPECT_TRUE(spec.has_value()) << path;
    if (spec.has_value()) {
      (spec->index() == 0 ? corpus.host : corpus.adapt).push_back(text.str());
    }
  }
  return corpus;
}

class XorShift {
 public:
  explicit XorShift(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  std::size_t Below(std::size_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  std::uint64_t state_;
};

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

std::string Join(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line + "\n";
  }
  return text;
}

// One random edit of `text`; `other` is a reproducer of the other family.
std::string Mutate(const std::string& text, const std::string& other, XorShift& rng) {
  static const char* const kHostile[] = {"nan", "-1", "1e308", "99999999999"};
  std::string out = text;
  std::vector<std::string> lines = Lines(text);
  switch (rng.Below(5)) {
    case 0:  // Flip a byte.
      if (!out.empty()) {
        out[rng.Below(out.size())] ^= static_cast<char>(1u << rng.Below(8));
      }
      return out;
    case 1:  // Truncate.
      return out.substr(0, rng.Below(out.size() + 1));
    case 2: {  // Splice in a line of the other family.
      const std::vector<std::string> donor = Lines(other);
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(rng.Below(lines.size() + 1)),
                   donor[rng.Below(donor.size())]);
      return Join(lines);
    }
    case 3: {  // Duplicate a line.
      const std::size_t at = rng.Below(lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), lines[at]);
      return Join(lines);
    }
    default: {  // Swap one number for a hostile one.
      std::vector<std::size_t> starts;
      for (std::size_t i = 0; i < out.size(); ++i) {
        const bool digit = out[i] >= '0' && out[i] <= '9';
        if (digit && (i == 0 || out[i - 1] == '=' || out[i - 1] == ':' || out[i - 1] == ',')) {
          starts.push_back(i);
        }
      }
      if (starts.empty()) {
        return out;
      }
      const std::size_t begin = starts[rng.Below(starts.size())];
      const std::size_t end = out.find_first_not_of("0123456789.e-+", begin);
      return out.substr(0, begin) + kHostile[rng.Below(4)] +
             (end == std::string::npos ? "" : out.substr(end));
    }
  }
}

std::string FormatAny(const AnySpec& spec) {
  return std::visit([](const auto& family_spec) { return Format(family_spec); }, spec);
}

TEST(ScenarioGrammar, SeededMutationNeverAbortsAndReachesFixedPoint) {
  const Corpus corpus = ReadCorpus();
  ASSERT_FALSE(corpus.host.empty());
  ASSERT_FALSE(corpus.adapt.empty());
  XorShift rng(0x5ce7a210);
  int accepted = 0;
  int rejected = 0;
  for (const auto* family : {&corpus.host, &corpus.adapt}) {
    const std::vector<std::string>& others =
        family == &corpus.host ? corpus.adapt : corpus.host;
    for (const std::string& original : *family) {
      for (int i = 0; i < 500; ++i) {
        std::string text = original;
        for (std::size_t edits = 1 + rng.Below(3); edits > 0; --edits) {
          text = Mutate(text, others[rng.Below(others.size())], rng);
        }
        const std::optional<AnySpec> spec = Parse(text);
        if (!spec.has_value()) {
          ++rejected;
          continue;
        }
        ++accepted;
        const std::string canonical = FormatAny(*spec);
        const std::optional<AnySpec> again = Parse(canonical);
        ASSERT_TRUE(again.has_value()) << "mutant:\n" << text << "canonical:\n" << canonical;
        ASSERT_EQ(again->index(), spec->index());
        ASSERT_EQ(FormatAny(*again), canonical) << "mutant:\n" << text;
      }
    }
  }
  // Neither outcome may be vacuous.
  EXPECT_GT(accepted, 500);
  EXPECT_GT(rejected, 500);
}

std::uint64_t Fnv1a(const std::string& text, std::uint64_t hash) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

TEST(ScenarioGrammar, HostGeneratorIsPinned) {
  // The adapt generator and control loop are pinned the same way by
  // AdaptFuzz.ThousandSeedBatteryHoldsEveryProperty, which already runs them.
  std::uint64_t host = 1469598103934665603ull;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    host = Fnv1a(Format(Generate<ScenarioSpec>(seed)), host);
  }
  EXPECT_EQ(host, 0x71e145d4b30c15b5ull);
}

}  // namespace
}  // namespace tableau::check
