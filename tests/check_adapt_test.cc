// Closed-loop adaptive-reservation property battery (`ctest -L check`):
// 1000 seeded bursty scenarios drive the real fleet::Host + controller +
// planner-delta actuation loop and check, per scenario:
//
//   - every installed resize's table passes the TableVerifier;
//   - oscillation is bounded by the hysteresis contract (deadbands, at
//     least cooldown_windows + 1 data windows between commits per VM);
//   - no VM ever shrinks below the independently recomputed floor quantile
//     of its observed demand, or outside its [min, max] clamps;
//   - idle (no-data) windows never trigger a resize.
//
// A violation greedily shrinks to a minimal reproducer written under
// tests/repro/adapt/ in the committed-corpus format; repro_corpus_test
// replays that corpus so past bugs stay fixed.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <variant>
#include <vector>

#include "src/check/scenario.h"

#ifndef TABLEAU_REPRO_DIR
#error "TABLEAU_REPRO_DIR must point at the committed reproducer corpus"
#endif

namespace tableau::check {
namespace {

constexpr int kBatterySeeds = 1000;

std::string WriteReproducer(const AdaptScenarioSpec& spec,
                            const std::string& category, std::uint64_t seed) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(TABLEAU_REPRO_DIR) / "adapt";
  std::error_code ec;
  fs::create_directories(dir, ec);
  const fs::path file = dir / ("shrunk-seed-" + std::to_string(seed) + ".txt");
  std::ofstream out(file);
  out << "# category: " << category << "\n";
  out << Format(spec);
  return file.string();
}

std::uint64_t Fnv1a(const std::string& text, std::uint64_t hash) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

TEST(AdaptFuzz, ThousandSeedBatteryHoldsEveryProperty) {
  int total_resizes = 0;
  // FNV-1a over every drawn spec's text and every committed resize, pinned
  // so a change to the generator or the control loop cannot pass unseen.
  std::uint64_t spec_hash = 1469598103934665603ull;
  std::uint64_t resize_log_hash = spec_hash;
  for (int seed = 1; seed <= kBatterySeeds; ++seed) {
    const auto spec = Generate<AdaptScenarioSpec>(static_cast<std::uint64_t>(seed));
    const CheckOutcome outcome = RunCheckedScenario(spec);
    total_resizes += outcome.resizes;
    spec_hash = Fnv1a(Format(spec), spec_hash);
    for (const std::string& entry : outcome.resize_log) {
      resize_log_hash = Fnv1a(entry + "\n", resize_log_hash);
    }
    if (outcome.violations.empty()) {
      continue;
    }
    const std::string category = CategoryOf(outcome.violations);
    const ShrinkResult<AdaptScenarioSpec> shrunk = Shrink(spec, category);
    const std::string path =
        WriteReproducer(shrunk.spec, category, static_cast<std::uint64_t>(seed));
    FAIL() << "seed " << seed << " (" << outcome.violations.size()
           << " violations, category '" << category
           << "'): " << outcome.violations.front()
           << "\nshrunk reproducer written to " << path;
  }
  // The battery is vacuous if the loop never actuates: across 1000 bursty
  // scenarios the controller must commit plenty of real resizes.
  EXPECT_GT(total_resizes, 1000);
  EXPECT_EQ(spec_hash, 0x548ec14f85c6531dull);
  EXPECT_EQ(resize_log_hash, 0x55772004fc41ada5ull);
}

TEST(AdaptFuzz, ControlLoopIsDeterministic) {
  for (const std::uint64_t seed : {3u, 17u, 101u, 977u}) {
    const auto spec = Generate<AdaptScenarioSpec>(seed);
    const CheckOutcome first = RunCheckedScenario(spec);
    const CheckOutcome second = RunCheckedScenario(spec);
    EXPECT_EQ(first.resizes, second.resizes) << "seed " << seed;
    EXPECT_EQ(first.resize_log, second.resize_log) << "seed " << seed;
    EXPECT_EQ(first.violations, second.violations) << "seed " << seed;
  }
}

TEST(AdaptFuzz, SpecRoundTripsThroughText) {
  for (int seed = 1; seed <= 50; ++seed) {
    const std::string text =
        Format(Generate<AdaptScenarioSpec>(static_cast<std::uint64_t>(seed)));
    const auto parsed = Parse(text);
    ASSERT_TRUE(parsed.has_value()) << "seed " << seed;
    ASSERT_TRUE(std::holds_alternative<AdaptScenarioSpec>(*parsed)) << "seed " << seed;
    // Canonical form is a fixed point: format(parse(format(s))) == format(s).
    EXPECT_EQ(Format(std::get<AdaptScenarioSpec>(*parsed)), text) << "seed " << seed;
  }
}

TEST(AdaptFuzz, ParserRejectsMalformedNumbers) {
  // Every value is parsed whole, including each demand entry.
  const std::string header = "tableau-adapt-repro v1\n";
  const std::string vm = "vm=init:0.25 latency_ns:20000000 demand:0.5,x,0.25\n";
  ASSERT_TRUE(Parse(header + "seed=12\nnum_cpus=4\n" + vm).has_value());
  EXPECT_FALSE(Parse(header + "seed=12abc\n" + vm).has_value());
  EXPECT_FALSE(Parse(header + "num_cpus=4x\n" + vm).has_value());
  EXPECT_FALSE(Parse(header + "headroom=1.3.1\n" + vm).has_value());
  EXPECT_FALSE(Parse(header + "vm=init:0.25 latency_ns:20000000 demand:0.5zz,x\n").has_value());
  EXPECT_FALSE(Parse(header + "vm=init:0.25q latency_ns:20000000 demand:0.5\n").has_value());
  EXPECT_FALSE(Parse(header + "vm=init:0.25 latency_ns:20ms demand:0.5\n").has_value());
}

TEST(AdaptFuzz, ParserRejectsMalformedSpecs) {
  EXPECT_FALSE(Parse("").has_value());
  EXPECT_FALSE(Parse("tableau-repro v1\nseed=1\n").has_value());
  EXPECT_FALSE(Parse("tableau-adapt-repro v1\nbogus_key=1\n").has_value());
  EXPECT_FALSE(Parse("tableau-adapt-repro v1\nseed=1\n").has_value());  // No VMs.
  // A vm= line names every field: here the latency and demand trace are missing.
  EXPECT_FALSE(Parse("tableau-adapt-repro v1\nvm=init:0.25\n").has_value());
}

TEST(AdaptFuzz, ShrinkWithoutCategoryIsIdentity) {
  const auto spec = Generate<AdaptScenarioSpec>(7);
  const ShrinkResult<AdaptScenarioSpec> result = Shrink(spec, "");
  EXPECT_EQ(result.runs, 0);
  EXPECT_EQ(Format(result.spec), Format(spec));
}

}  // namespace
}  // namespace tableau::check
