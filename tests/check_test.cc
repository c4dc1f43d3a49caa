// Tests for the verification subsystem itself (src/check): the TableVerifier
// against hand-built tables with planted contract violations, the scenario
// spec round-trip, planted scheduler mutants being caught by the oracles,
// and the shrinker reducing a mutant reproducer to a handful of vCPUs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "src/check/mutants.h"
#include "src/check/oracles.h"
#include "src/check/scenario.h"
#include "src/check/table_verifier.h"
#include "src/core/planner.h"
#include "src/table/scheduling_table.h"

namespace tableau::check {
namespace {

// A clean one-core table: vCPU 0 gets [k*10ms, k*10ms + 2ms) in each of the
// ten 10 ms windows of a 100 ms table.
SchedulingTable TenWindowTable() {
  std::vector<std::vector<Allocation>> per_cpu(1);
  for (int k = 0; k < 10; ++k) {
    per_cpu[0].push_back(
        Allocation{0, k * 10 * kMillisecond, k * 10 * kMillisecond + 2 * kMillisecond});
  }
  return SchedulingTable::Build(100 * kMillisecond, std::move(per_cpu));
}

VcpuContract TenWindowContract() {
  VcpuContract contract;
  contract.vcpu = 0;
  contract.cost = 2 * kMillisecond;
  contract.period = 10 * kMillisecond;
  return contract;
}

VerifyOptions NoHyperperiodCheck() {
  VerifyOptions options;
  options.expected_length = 0;
  return options;
}

bool AnyContains(const std::vector<std::string>& violations, const std::string& needle) {
  for (const std::string& violation : violations) {
    if (violation.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(TableVerifier, CleanTablePasses) {
  const SchedulingTable table = TenWindowTable();
  const std::vector<std::string> violations =
      VerifyTable(table, {TenWindowContract()}, NoHyperperiodCheck());
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(TableVerifier, MissingWindowSupplyIsCaught) {
  // Drop the allocation in window 4 entirely.
  std::vector<std::vector<Allocation>> per_cpu(1);
  for (int k = 0; k < 10; ++k) {
    if (k == 4) continue;
    per_cpu[0].push_back(
        Allocation{0, k * 10 * kMillisecond, k * 10 * kMillisecond + 2 * kMillisecond});
  }
  const SchedulingTable table =
      SchedulingTable::Build(100 * kMillisecond, std::move(per_cpu));
  const std::vector<std::string> violations =
      VerifyTable(table, {TenWindowContract()}, NoHyperperiodCheck());
  EXPECT_TRUE(AnyContains(violations, "window 4"));
  EXPECT_TRUE(AnyContains(violations, "shortfall"));
}

TEST(TableVerifier, ShortWindowSupplyIsCaught) {
  // Window 7 only gets half its budget.
  std::vector<std::vector<Allocation>> per_cpu(1);
  for (int k = 0; k < 10; ++k) {
    const TimeNs budget = k == 7 ? kMillisecond : 2 * kMillisecond;
    per_cpu[0].push_back(
        Allocation{0, k * 10 * kMillisecond, k * 10 * kMillisecond + budget});
  }
  const SchedulingTable table =
      SchedulingTable::Build(100 * kMillisecond, std::move(per_cpu));
  const std::vector<std::string> violations =
      VerifyTable(table, {TenWindowContract()}, NoHyperperiodCheck());
  EXPECT_TRUE(AnyContains(violations, "window 7"));
}

TEST(TableVerifier, BlackoutBoundIsCyclic) {
  // All supply bunched at the table start: windows 1..9 starve, and the
  // cyclic gap from 2 ms around to 0 violates 2(T - C) = 16 ms.
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0].push_back(Allocation{0, 0, 20 * kMillisecond});
  const SchedulingTable table =
      SchedulingTable::Build(100 * kMillisecond, std::move(per_cpu));
  const std::vector<std::string> violations =
      VerifyTable(table, {TenWindowContract()}, NoHyperperiodCheck());
  EXPECT_TRUE(AnyContains(violations, "blackout"));
}

TEST(TableVerifier, DedicatedVcpuMustOwnFullCore) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0].push_back(Allocation{3, 0, 90 * kMillisecond});
  const SchedulingTable table =
      SchedulingTable::Build(100 * kMillisecond, std::move(per_cpu));
  VcpuContract contract;
  contract.vcpu = 3;
  contract.dedicated = true;
  const std::vector<std::string> violations =
      VerifyTable(table, {contract}, NoHyperperiodCheck());
  EXPECT_TRUE(AnyContains(violations, "dedicated"));
}

TEST(TableVerifier, CrossCoreConcurrencyIsCaught) {
  // vCPU 0 allocated on both cores at overlapping times.
  std::vector<std::vector<Allocation>> per_cpu(2);
  per_cpu[0].push_back(Allocation{0, 0, 2 * kMillisecond});
  per_cpu[1].push_back(Allocation{0, kMillisecond, 3 * kMillisecond});
  const SchedulingTable table =
      SchedulingTable::Build(10 * kMillisecond, std::move(per_cpu));
  VcpuContract contract;
  contract.vcpu = 0;
  contract.cost = 3 * kMillisecond;
  contract.period = 10 * kMillisecond;
  contract.split = true;
  const std::vector<std::string> violations =
      VerifyTable(table, {contract}, NoHyperperiodCheck());
  EXPECT_TRUE(AnyContains(violations, "concurrently"));
}

TEST(TableVerifier, SplitFlagMustMatchTable) {
  const SchedulingTable table = TenWindowTable();
  VcpuContract contract = TenWindowContract();
  contract.split = true;  // Claims a split, table has one core.
  const std::vector<std::string> violations =
      VerifyTable(table, {contract}, NoHyperperiodCheck());
  EXPECT_TRUE(AnyContains(violations, "split"));
}

TEST(TableVerifier, SubThresholdSurvivorIsCaught) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0].push_back(Allocation{0, 0, 10 * kMicrosecond});  // < 30 us.
  const SchedulingTable table =
      SchedulingTable::Build(10 * kMillisecond, std::move(per_cpu));
  const std::vector<std::string> violations = VerifyTable(table, {}, NoHyperperiodCheck());
  EXPECT_TRUE(AnyContains(violations, "sub-threshold"));
}

TEST(TableVerifier, DonationBudgetCountsFramesOfTheCoreCluster) {
  // vCPU 0 (C = 60 ms, T = 100 ms) claims 30 ms donated: over the two
  // slivers its one period window allows at a 5 ms threshold, but within the
  // two per frame that vCPU 1's 20 ms periods cut on the same pCPU.
  const TimeNs ms = kMillisecond;
  std::vector<Allocation> vcpu0 = {{0, 10 * ms, 20 * ms}, {0, 30 * ms, 40 * ms},
                                   {0, 50 * ms, 60 * ms}};
  std::vector<Allocation> vcpu1;
  for (int k = 0; k < 5; ++k) {
    vcpu1.push_back(Allocation{1, k * 20 * ms, k * 20 * ms + 10 * ms});
  }
  const std::vector<VcpuContract> contracts = {
      VcpuContract{0, 60 * ms, 100 * ms, false, false, 30 * ms},
      VcpuContract{1, 10 * ms, 20 * ms, false, false, 0},
  };
  VerifyOptions options = NoHyperperiodCheck();
  options.coalesce_threshold = 5 * ms;

  std::vector<std::vector<Allocation>> shared(1);
  shared[0] = vcpu0;
  shared[0].insert(shared[0].end(), vcpu1.begin(), vcpu1.end());
  std::sort(shared[0].begin(), shared[0].end(),
            [](const Allocation& a, const Allocation& b) { return a.start < b.start; });
  const std::vector<std::string> clean =
      VerifyTable(SchedulingTable::Build(100 * ms, std::move(shared)), contracts, options);
  EXPECT_TRUE(clean.empty()) << clean.front();

  // On its own pCPU nothing cuts vCPU 0's window: the budget is 10 ms.
  const std::vector<std::string> apart = VerifyTable(
      SchedulingTable::Build(100 * ms, {vcpu0, vcpu1}), contracts, options);
  EXPECT_TRUE(AnyContains(apart, "donation exceeds the coalescing sliver budget for vcpu 0: "
                                 "30000000 vs bound 10000000"));
}

TEST(TableVerifier, EveryPlannedTableVerifies) {
  // Planner-produced tables across the pipeline stages must satisfy their
  // own claimed contracts.
  for (int vms_per_core : {2, 4, 5}) {
    PlannerConfig config;
    config.num_cpus = 4;
    const Planner planner(config);
    std::vector<VcpuRequest> requests;
    for (int i = 0; i < config.num_cpus * vms_per_core; ++i) {
      requests.push_back(
          VcpuRequest{i, 1.0 / vms_per_core - 0.01, 20 * kMillisecond});
    }
    const PlanResult plan = planner.Solve(PlanRequest::Full(std::move(requests)));
    ASSERT_TRUE(plan.success) << plan.error;
    const std::vector<std::string> violations = VerifyPlan(plan, config);
    EXPECT_TRUE(violations.empty())
        << vms_per_core << " VMs/core: " << violations.front();
  }
}

TEST(TableVerifier, TinyBudgetReservationIsRejectedAtAdmission) {
  // Regression (found by this verifier): U = 0.05 at a 300 us latency goal
  // maps to C ~ 8 us < the 30 us coalesce threshold, so post-processing used
  // to donate the entire reservation away — a "successful" plan whose vCPU
  // starved for the whole hyperperiod. The planner must reject at admission
  // (degradation-eligible) instead.
  PlannerConfig config;
  config.num_cpus = 1;
  const Planner planner(config);
  const PlanResult plan = planner.Solve(
      PlanRequest::Full({VcpuRequest{0, 0.05, 300 * kMicrosecond}}));
  EXPECT_FALSE(plan.success);
  EXPECT_EQ(plan.failure, PlanFailure::kAdmission);

  // With latency degradation enabled the same request plans at a relaxed
  // goal, and the resulting table honors the contract.
  config.max_latency_degradations = 8;
  const Planner degrading(config);
  const PlanResult degraded = degrading.Solve(
      PlanRequest::Full({VcpuRequest{0, 0.05, 300 * kMicrosecond}}));
  ASSERT_TRUE(degraded.success) << degraded.error;
  EXPECT_GT(degraded.degradation_steps, 0);
  const std::vector<std::string> violations = VerifyPlan(degraded, config);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(ScenarioSpec, FormatParseRoundTrip) {
  const ScenarioSpec spec = Generate<ScenarioSpec>(7);
  const std::string text = Format(spec);
  const auto parsed = Parse(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(std::holds_alternative<ScenarioSpec>(*parsed));
  EXPECT_EQ(Format(std::get<ScenarioSpec>(*parsed)), text);
  // Leading '#' comments (a reproducer's recorded violation) are skipped.
  EXPECT_TRUE(Parse("# seed 7: plan: blackout\n" + text).has_value());
}

TEST(ScenarioSpec, GeneratedSpecsAreFeasible) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    EXPECT_TRUE(FeasibleSpec(Generate<ScenarioSpec>(seed))) << "seed " << seed;
  }
}

// `text` with the value of its first `key=` line replaced by `value`.
std::string WithValue(const std::string& text, const std::string& key,
                      const std::string& value) {
  const std::size_t start = text.find(key + "=");
  const std::size_t end = text.find('\n', start);
  return text.substr(0, start) + key + "=" + value + text.substr(end);
}

TEST(ScenarioSpec, ParseRejectsMalformedNumbers) {
  // Every value is parsed whole: a numeric prefix followed by garbage is not
  // the number, and a flag is 0 or 1.
  const std::string text = Format(Generate<ScenarioSpec>(7));
  ASSERT_TRUE(Parse(text).has_value());
  EXPECT_FALSE(Parse(WithValue(text, "seed", "12abc")).has_value());
  EXPECT_FALSE(Parse(WithValue(text, "guest_cpus", "4x")).has_value());
  EXPECT_FALSE(Parse(WithValue(text, "duration_ns", "")).has_value());
  EXPECT_FALSE(Parse(WithValue(text, "fault_intensity", "0.5zz")).has_value());
  EXPECT_FALSE(Parse(WithValue(text, "capped", "yes")).has_value());
  const std::string vm = "vcpus:1 util:0.25 latency_ns:20000000 workload:hog ";
  EXPECT_FALSE(Parse(WithValue(text, "vm", vm + "gang:1x")).has_value());
  EXPECT_TRUE(Parse(WithValue(text, "vm", vm + "gang:1")).has_value());
  // The vm= line goes through the same whole-string parsers: no NaN or
  // infinite share, no count that overflows an int, and a flag is 0 or 1.
  EXPECT_FALSE(Parse(WithValue(text, "vm", "vcpus:1 util:nan latency_ns:20000000 "
                                           "workload:hog gang:0"))
                   .has_value());
  EXPECT_FALSE(Parse(WithValue(text, "vm", "vcpus:1 util:inf latency_ns:20000000 "
                                           "workload:hog gang:0"))
                   .has_value());
  EXPECT_FALSE(Parse(WithValue(text, "vm", "vcpus:99999999999 util:0.25 "
                                           "latency_ns:20000000 workload:hog gang:0"))
                   .has_value());
  EXPECT_FALSE(Parse(WithValue(text, "vm", vm + "gang:7")).has_value());
  // Every field exactly once: none missing, none repeated, none unknown.
  EXPECT_FALSE(Parse(WithValue(text, "vm", vm)).has_value());
  EXPECT_FALSE(Parse(WithValue(text, "vm", vm + "gang:0 gang:0")).has_value());
  EXPECT_FALSE(Parse(WithValue(text, "vm", vm + "gang:0 color:red")).has_value());
}

TEST(ScenarioSpec, ParseRejectsHostileSizes) {
  // Each count and duration has a ceiling (scenario.cc): the ceiling itself
  // parses, one past it does not.
  const std::string host = Format(Generate<ScenarioSpec>(7));
  const std::string vm = "vcpus:1 util:0.25 latency_ns:20000000 workload:hog gang:0";
  for (const auto& [key, ok, bad] : std::vector<std::tuple<std::string, std::string, std::string>>{
           {"guest_cpus", "16", "17"},
           {"duration_ns", "1000000000", "1000000001"},
           {"replan_at_ns", "1000000000", "1000000001"},
           {"vm", "vcpus:8 util:1 latency_ns:1000000000 workload:hog gang:0",
            "vcpus:9 util:0.25 latency_ns:20000000 workload:hog gang:0"},
           {"vm", vm, "vcpus:1 util:1.5 latency_ns:20000000 workload:hog gang:0"},
           {"vm", vm, "vcpus:1 util:0.25 latency_ns:1000000001 workload:hog gang:0"}}) {
    EXPECT_TRUE(Parse(WithValue(host, key, ok)).has_value()) << key << "=" << ok;
    EXPECT_FALSE(Parse(WithValue(host, key, bad)).has_value()) << key << "=" << bad;
  }
  std::string vms = "tableau-repro v1\n";
  for (int i = 0; i < 16; ++i) {
    vms += "vm=" + vm + "\n";
  }
  EXPECT_TRUE(Parse(vms).has_value());
  EXPECT_FALSE(Parse(vms + "vm=" + vm + "\n").has_value());

  const std::string adapt = Format(Generate<AdaptScenarioSpec>(7));
  for (const auto& [key, ok, bad] : std::vector<std::tuple<std::string, std::string, std::string>>{
           {"num_cpus", "64", "65"},
           {"slots_per_core", "8", "9"},
           {"windows", "1024", "1025"},
           {"window_ns", "1000000000", "1000000001"},
           {"predictor_history", "1024", "2147483647"},
           {"cooldown_windows", "1024", "2147483647"}}) {
    EXPECT_TRUE(Parse(WithValue(adapt, key, ok)).has_value()) << key << "=" << ok;
    EXPECT_FALSE(Parse(WithValue(adapt, key, bad)).has_value()) << key << "=" << bad;
  }
  const auto demand = [](int n) {
    std::string list = "0.5";
    for (int i = 1; i < n; ++i) {
      list += ",x";
    }
    return "tableau-adapt-repro v1\nvm=init:0.25 latency_ns:20000000 demand:" + list + "\n";
  };
  EXPECT_TRUE(Parse(demand(1024)).has_value());
  EXPECT_FALSE(Parse(demand(1025)).has_value());
}

TEST(ScenarioSpec, ParseRejectsGarbage) {
  EXPECT_FALSE(Parse("not a repro").has_value());
  EXPECT_FALSE(Parse("tableau-repro v1\nbogus_key=1\n").has_value());
  EXPECT_FALSE(Parse("tableau-repro v1\nseed=1\n").has_value());  // No VMs.
}

// The category rule buckets adapt violations as the adapt family always
// did (by the word before the first ':'): every message shape
// RunCheckedScenario(AdaptScenarioSpec) emits keeps "<kind>: w=" whatever
// its numbers, and no two kinds share a bucket.
TEST(ScenarioSpec, CategoryKeepsEveryAdaptBucket) {
  const std::vector<std::pair<std::string, std::vector<std::string>>> shapes = {
      {"nodata", {"nodata: w=3 vm 0 resized on a window with no data",
                  "nodata: w=17 vm 5 resized on a window with no data"}},
      {"verify", {"verify: w=2 blackout exceeds 2(T - C) for vcpu 1: 9 vs 4",
                  "verify: w=40 vcpu 3 window supply short"}},
      {"cooldown", {"cooldown: w=9 vm 1 committed after 2 data windows (< 5)",
                    "cooldown: w=31 vm 0 committed after 0 data windows (< 2)"}},
      {"deadband", {"deadband: w=4 vm 0 grew 0.25->0.2578125 inside the grow deadband",
                    "deadband: w=8 vm 2 shrank 0.5->0.46875 inside the shrink deadband"}},
      {"floor", {"floor: w=12 vm 1 shrank to 0.125 below the observed p99 demand 0.5"}},
      {"clamp", {"clamp: w=6 vm 0 committed 1.0625 outside [0.03125, 1]"}},
  };
  std::vector<std::string> buckets;
  for (const auto& [kind, messages] : shapes) {
    for (const std::string& message : messages) {
      EXPECT_EQ(CategoryOf({message}), kind + ": w=") << message;
    }
    buckets.push_back(CategoryOf({messages.front()}));
  }
  std::sort(buckets.begin(), buckets.end());
  EXPECT_EQ(std::unique(buckets.begin(), buckets.end()), buckets.end());
  // The one message without numbers, from a spec the host cannot build.
  AdaptScenarioSpec unbuildable = Generate<AdaptScenarioSpec>(7);
  unbuildable.num_cpus = 0;
  const CheckOutcome outcome = RunCheckedScenario(unbuildable);
  ASSERT_EQ(outcome.violations.size(), 1u);
  EXPECT_EQ(CategoryOf(outcome.violations), outcome.violations.front());
  EXPECT_EQ(outcome.violations.front().rfind("spec:", 0), 0u);
}

// A Tableau scenario with a planted mutant: the oracles must notice, the
// clean run must not, and the shrinker must cut the reproducer down.
ScenarioSpec MutantSpec(MutantKind mutant) {
  ScenarioSpec spec = Generate<ScenarioSpec>(1);
  spec.scheduler = SchedKind::kTableau;
  spec.capped = true;
  spec.replan_at = 0;
  spec.planner_failure = 0.0;
  spec.mutant = mutant;
  spec.mutant_stride = 7;
  return spec;
}

TEST(Mutants, WrongVcpuIsCaughtByTableauOracle) {
  const CheckOutcome outcome = RunCheckedScenario(MutantSpec(MutantKind::kWrongVcpu));
  ASSERT_FALSE(outcome.violations.empty());
  EXPECT_TRUE(AnyContains(outcome.violations, "reserves this instant"));
}

TEST(Mutants, OverrunSliceIsCaughtBySlotEndBound) {
  const CheckOutcome outcome = RunCheckedScenario(MutantSpec(MutantKind::kOverrunSlice));
  ASSERT_FALSE(outcome.violations.empty());
  EXPECT_TRUE(AnyContains(outcome.violations, "past its slot end"));
}

TEST(Mutants, CleanRunHasNoViolations) {
  const CheckOutcome outcome = RunCheckedScenario(MutantSpec(MutantKind::kNone));
  EXPECT_TRUE(outcome.violations.empty())
      << outcome.violations.front();
  EXPECT_GT(outcome.records, 0u);
}

TEST(Shrink, MutantReproducerShrinksToFewVcpus) {
  const ScenarioSpec spec = MutantSpec(MutantKind::kWrongVcpu);
  const CheckOutcome outcome = RunCheckedScenario(spec);
  ASSERT_FALSE(outcome.violations.empty());
  const std::string category = CategoryOf(outcome.violations);
  const ShrinkResult<ScenarioSpec> shrunk = Shrink(spec, category);
  // The shrunk spec still reproduces the same violation category...
  const CheckOutcome replay = RunCheckedScenario(shrunk.spec);
  EXPECT_EQ(CategoryOf(replay.violations), category);
  // ...and is small (acceptance bound: at most 4 vCPUs).
  EXPECT_LE(shrunk.spec.TotalVcpus(), 4);
  EXPECT_GT(shrunk.runs, 0);
}

TEST(Oracles, WindowedServiceCheckFlagsOverBudgetWindow) {
  WindowedServiceCheck check(10 * kMillisecond, 2 * kMillisecond);
  EXPECT_EQ(check.Add(0, kMillisecond), -1);
  EXPECT_EQ(check.Add(kMillisecond, 2 * kMillisecond), -1);
  // Third millisecond in window 0 exceeds the 2 ms bound.
  EXPECT_EQ(check.Add(2 * kMillisecond, 3 * kMillisecond), 0);
  // Spanning service lands in each window separately.
  WindowedServiceCheck spanning(10 * kMillisecond, 2 * kMillisecond);
  EXPECT_EQ(spanning.Add(9 * kMillisecond, 11 * kMillisecond), -1);
  EXPECT_EQ(spanning.WindowTotal(0), kMillisecond);
  EXPECT_EQ(spanning.WindowTotal(1), kMillisecond);
}

TEST(PlannerAuditHook, ObservesEverySuccessfulSolve) {
  int calls = 0;
  SetPlanAuditHook([&calls](const PlanResult& plan, const PlannerConfig&) {
    ASSERT_TRUE(plan.success);
    ++calls;
  });
  PlannerConfig config;
  config.num_cpus = 2;
  const Planner planner(config);
  ASSERT_TRUE(
      planner.Solve(PlanRequest::Full({VcpuRequest{0, 0.25, 20 * kMillisecond}}))
          .success);
  // Failed solves are not audited.
  ASSERT_FALSE(
      planner.Solve(PlanRequest::Full({VcpuRequest{0, 0.05, 300 * kMicrosecond}}))
          .success);
  SetPlanAuditHook(nullptr);
  ASSERT_TRUE(
      planner.Solve(PlanRequest::Full({VcpuRequest{0, 0.25, 20 * kMillisecond}}))
          .success);
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace tableau::check
