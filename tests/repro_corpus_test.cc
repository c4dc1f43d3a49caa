// Replays the committed reproducer corpus (tests/repro/**, both families) as
// fast tier-1 property checks: every scenario that once surfaced a bug — or
// pins a tricky regime (boost-heavy wakeups, blackout-window admission, C=D
// splits, hyperperiod-boundary table switches, fault-heavy runs, flash
// crowds, idle gaps, saturation probes) — must now run with zero
// verifier/oracle/property violations.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/check/scenario.h"

#ifndef TABLEAU_REPRO_DIR
#error "TABLEAU_REPRO_DIR must point at the committed reproducer corpus"
#endif

namespace tableau::check {
namespace {

std::vector<std::filesystem::path> CorpusFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(TABLEAU_REPRO_DIR)) {
    if (entry.path().extension() == ".txt") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string ReadText(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Every corpus reproducer of family `Spec`, parsed by the one grammar; a
// malformed file fails the calling test.
template <typename Spec>
std::vector<std::pair<std::filesystem::path, Spec>> FamilyCorpus() {
  std::vector<std::pair<std::filesystem::path, Spec>> family;
  for (const std::filesystem::path& path : CorpusFiles()) {
    const std::optional<AnySpec> spec = Parse(ReadText(path));
    EXPECT_TRUE(spec.has_value()) << path << ": malformed reproducer";
    if (spec.has_value() && std::holds_alternative<Spec>(*spec)) {
      family.emplace_back(path, std::get<Spec>(*spec));
    }
  }
  return family;
}

template <typename Spec>
void ExpectFamilyReplaysClean() {
  const auto family = FamilyCorpus<Spec>();
  ASSERT_FALSE(family.empty());
  for (const auto& [path, spec] : family) {
    const CheckOutcome outcome = RunCheckedScenario(spec);
    EXPECT_TRUE(outcome.violations.empty())
        << path << ": " << outcome.violations.front();
  }
}

TEST(ReproCorpus, HasAtLeastFiveScenarios) {
  EXPECT_GE(FamilyCorpus<ScenarioSpec>().size(), 5u);
}

TEST(ReproCorpus, EveryReproducerReplaysClean) {
  ExpectFamilyReplaysClean<ScenarioSpec>();
}

TEST(AdaptReproCorpus, HasSeedScenarios) {
  EXPECT_GE(FamilyCorpus<AdaptScenarioSpec>().size(), 2u);
}

TEST(AdaptReproCorpus, EveryReproducerReplaysClean) {
  ExpectFamilyReplaysClean<AdaptScenarioSpec>();
}

}  // namespace
}  // namespace tableau::check
