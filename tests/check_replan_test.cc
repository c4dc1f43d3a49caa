// Fuzzed degradation checks: ReplanController backoff under injected planner
// failures, and the dispatcher's switch_slip_tolerance under fault-heavy
// runs — with every active table (initial and replanned) re-verified by the
// TableVerifier and the whole run replayed through the differential oracle.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/check/scenario.h"
#include "src/check/table_verifier.h"
#include "src/core/replan.h"
#include "src/faults/fault_injector.h"

namespace tableau::check {
namespace {

std::vector<VcpuRequest> FourVms() {
  std::vector<VcpuRequest> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back(VcpuRequest{i, 0.2, 20 * kMillisecond});
  }
  return requests;
}

TEST(ReplanBackoff, InjectedFailuresBackOffExponentiallyAndKeepTheTable) {
  faults::FaultPlan fault_plan;
  fault_plan.seed = 99;
  fault_plan.planner.failure_probability = 1.0;  // Every solve fails.
  faults::FaultInjector injector(fault_plan);

  PlannerConfig config;
  config.num_cpus = 2;
  config.fault_injector = &injector;
  const Planner planner(config);

  ReplanController::Config controller_config;
  controller_config.initial_backoff = kMillisecond;
  controller_config.backoff_multiplier = 2.0;
  controller_config.max_backoff = 8 * kMillisecond;
  ReplanController controller(&planner, controller_config);

  const PlanRequest request = PlanRequest::Full(FourVms());
  TimeNs now = 0;
  TimeNs expected_backoff = kMillisecond;
  for (int attempt = 1; attempt <= 5; ++attempt) {
    const ReplanController::Outcome outcome = controller.TryReplan(request, now);
    EXPECT_FALSE(outcome.installed);
    EXPECT_TRUE(outcome.kept_previous);
    EXPECT_EQ(outcome.plan.failure, PlanFailure::kInjected);
    EXPECT_EQ(outcome.retry_at, now + expected_backoff);
    EXPECT_EQ(controller.consecutive_failures(), attempt);

    // A retry inside the backoff window never consults the planner.
    const ReplanController::Outcome suppressed =
        controller.TryReplan(request, outcome.retry_at - 1);
    EXPECT_TRUE(suppressed.kept_previous);
    EXPECT_FALSE(suppressed.installed);
    EXPECT_EQ(suppressed.retry_at, outcome.retry_at);
    EXPECT_EQ(controller.consecutive_failures(), attempt);

    now = outcome.retry_at;
    expected_backoff =
        std::min<TimeNs>(expected_backoff * 2, controller_config.max_backoff);
  }
}

TEST(ReplanBackoff, SuccessAfterFailuresInstallsAVerifiedTable) {
  // Draws are seeded: with p = 0.5 some solves fail and some succeed, so the
  // controller must eventually install — and what it installs must pass the
  // TableVerifier.
  faults::FaultPlan fault_plan;
  fault_plan.seed = 7;
  fault_plan.planner.failure_probability = 0.5;
  faults::FaultInjector injector(fault_plan);

  PlannerConfig config;
  config.num_cpus = 2;
  config.fault_injector = &injector;
  const Planner planner(config);
  ReplanController controller(&planner, ReplanController::Config{});

  const PlanRequest request = PlanRequest::Full(FourVms());
  TimeNs now = 0;
  bool installed = false;
  for (int attempt = 0; attempt < 64 && !installed; ++attempt) {
    const ReplanController::Outcome outcome = controller.TryReplan(request, now);
    if (outcome.installed) {
      installed = true;
      PlannerConfig verify_config;
      verify_config.num_cpus = config.num_cpus;
      const std::vector<std::string> violations =
          VerifyPlan(outcome.plan, verify_config);
      EXPECT_TRUE(violations.empty()) << violations.front();
      EXPECT_EQ(controller.consecutive_failures(), 0);
    } else {
      now = outcome.retry_at;
    }
  }
  EXPECT_TRUE(installed);
}

// End-to-end: Tableau scenarios that replan mid-run through injected planner
// failures (exercising keep-previous + backoff) and run under fault-heavy
// plans with a tight switch-slip tolerance (exercising the re-arm path) must
// still produce zero oracle divergences, and both the initial and the
// replacement table must verify.
TEST(ReplanFuzz, DegradedReplanRunsStayClean) {
  int ran = 0;
  for (std::uint64_t seed = 0; ran < 60 && seed < 4000; ++seed) {
    ScenarioSpec spec = Generate<ScenarioSpec>(seed);
    if (spec.scheduler != SchedKind::kTableau) {
      continue;
    }
    spec.replan_at = spec.duration / 2;
    spec.planner_failure = 0.5;
    const CheckOutcome outcome = RunCheckedScenario(spec);
    ASSERT_TRUE(outcome.violations.empty())
        << "seed " << seed << ": " << outcome.violations.front()
        << "\nreproducer:\n"
        << Format(spec);
    ++ran;
  }
  EXPECT_EQ(ran, 60);
}

TEST(ReplanFuzz, TightSlipToleranceUnderHeavyFaultsStaysClean) {
  int ran = 0;
  for (std::uint64_t seed = 0; ran < 60 && seed < 4000; ++seed) {
    ScenarioSpec spec = Generate<ScenarioSpec>(seed);
    if (spec.scheduler != SchedKind::kTableau) {
      continue;
    }
    spec.fault_intensity = 0.8;
    spec.slip_ns = 100 * kMicrosecond;
    spec.replan_at = spec.duration / 3;
    if (!FeasibleSpec(spec)) {
      continue;
    }
    const CheckOutcome outcome = RunCheckedScenario(spec);
    ASSERT_TRUE(outcome.violations.empty())
        << "seed " << seed << ": " << outcome.violations.front()
        << "\nreproducer:\n"
        << Format(spec);
    ++ran;
  }
  EXPECT_EQ(ran, 60);
}

}  // namespace
}  // namespace tableau::check
