#include "src/check/scenario.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/check/oracles.h"
#include "src/check/table_verifier.h"
#include "src/common/check.h"
#include "src/core/replan.h"
#include "src/faults/fault_plan.h"
#include "src/harness/scenario.h"
#include "src/rt/hyperperiod.h"
#include "src/workloads/guest.h"
#include "src/workloads/ping.h"
#include "src/workloads/stress.h"

// The host family: builds a scenario through the harness and replays its
// trace through the differential oracle (see scenario.h).
namespace tableau::check {
namespace {

// Structural validity: the spec names a buildable machine and a scheduler
// configuration the factory accepts. Does not consult the planner.
bool SpecShapeOk(const ScenarioSpec& spec) {
  if (spec.guest_cpus < 1 || spec.cores_per_socket < 1 ||
      spec.cores_per_socket > spec.guest_cpus || spec.duration <= 0 ||
      spec.vms.empty()) {
    return false;
  }
  if (spec.scheduler == SchedKind::kCredit2 && spec.capped) {
    return false;
  }
  if (spec.scheduler == SchedKind::kRtds && !spec.capped) {
    return false;
  }
  const bool needs_mapping = spec.scheduler == SchedKind::kRtds ||
                             spec.scheduler == SchedKind::kTableau;
  for (const VmFuzzSpec& vm : spec.vms) {
    if (vm.vcpus < 1 || vm.utilization <= 0.0 || vm.latency_goal <= 0) {
      return false;
    }
    if (needs_mapping && vm.utilization < 1.0) {
      VcpuRequest request;
      request.vcpu = 0;
      request.utilization = vm.utilization;
      request.latency_goal = vm.latency_goal;
      if (!MapRequestToTask(request).has_value()) {
        return false;
      }
    }
  }
  return true;
}

// Fault-free dry-run plan: the harness TABLEAU_CHECKs planner success, so
// only admitted VM sets may reach BuildVmScenario. A rejection here is the
// planner doing its job (e.g. over-utilization, sub-threshold budgets), not
// a property violation.
bool PlanAdmits(const ScenarioSpec& spec) {
  if (spec.scheduler != SchedKind::kTableau) {
    return true;
  }
  PlannerConfig config;
  config.num_cpus = spec.guest_cpus;
  config.cores_per_socket = spec.cores_per_socket;
  const Planner planner(config);
  std::vector<VcpuRequest> requests;
  VcpuId next = 0;
  for (const VmFuzzSpec& vm : spec.vms) {
    for (int i = 0; i < vm.vcpus; ++i) {
      requests.push_back(VcpuRequest{next++, vm.utilization, vm.latency_goal});
    }
  }
  return planner.Solve(PlanRequest::Full(std::move(requests))).success;
}

}  // namespace

bool FeasibleSpec(const ScenarioSpec& spec) {
  return SpecShapeOk(spec) && PlanAdmits(spec);
}

CheckOutcome RunCheckedScenario(const ScenarioSpec& spec) {
  CheckOutcome outcome;
  if (!SpecShapeOk(spec)) {
    outcome.violations.push_back("spec: malformed scenario spec");
    return outcome;
  }
  if (!PlanAdmits(spec)) {
    // Correctly rejected at admission: nothing runs, nothing to check. (A
    // reproducer for a since-fixed planner bug replays as clean this way.)
    return outcome;
  }

  std::optional<ScopedSchedulerMutation> mutation;
  if (spec.mutant != MutantKind::kNone) {
    mutation.emplace(spec.scheduler, spec.mutant, spec.mutant_stride);
  }

  ScenarioConfig config;
  config.scheduler = spec.scheduler;
  config.capped = spec.capped;
  config.guest_cpus = spec.guest_cpus;
  config.cores_per_socket = spec.cores_per_socket;
  config.fault_plan = faults::ChaosPlan(spec.fault_seed, spec.fault_intensity);
  config.fault_plan.seed = spec.fault_seed;
  config.fault_plan.planner.failure_probability = spec.planner_failure;
  config.switch_slip_tolerance = spec.slip_ns == 0 ? kTimeNever : spec.slip_ns;

  std::vector<VmSpec> vms;
  for (const VmFuzzSpec& vm : spec.vms) {
    VmSpec built;
    built.vcpus = vm.vcpus;
    built.utilization_each = vm.utilization;
    built.latency_goal = vm.latency_goal;
    built.gang = vm.gang;
    vms.push_back(built);
  }
  Scenario scenario = BuildVmScenario(config, vms);

  PlannerConfig verify_config;
  verify_config.num_cpus = spec.guest_cpus;
  verify_config.cores_per_socket = spec.cores_per_socket;
  if (scenario.tableau != nullptr) {
    for (std::string& violation : VerifyPlan(scenario.plan, verify_config)) {
      outcome.violations.push_back("plan: " + violation);
    }
  }

  // Per-vCPU workloads (the fuzz_test mix). Instances live past machine run.
  std::vector<std::unique_ptr<CpuHogWorkload>> hogs;
  std::vector<std::unique_ptr<StressIoWorkload>> stress;
  std::vector<std::unique_ptr<WorkQueueGuest>> guests;
  std::vector<std::unique_ptr<SystemNoiseWorkload>> noise;
  std::vector<std::unique_ptr<PingTraffic>> pings;
  for (std::size_t i = 0; i < scenario.vcpus.size(); ++i) {
    Vcpu* vcpu = scenario.vcpus[i];
    const VmFuzzSpec& vm = spec.vms[static_cast<std::size_t>(scenario.vm_of[i])];
    const std::uint64_t workload_seed = spec.seed * 1000 + i;
    switch (vm.workload) {
      case WorkloadKind::kHog:
        hogs.push_back(
            std::make_unique<CpuHogWorkload>(scenario.machine, vcpu));
        hogs.back()->Start(0);
        break;
      case WorkloadKind::kStress:
      case WorkloadKind::kStressHeavy: {
        StressIoWorkload::Config stress_config;
        if (vm.workload == WorkloadKind::kStressHeavy) {
          stress_config = StressIoWorkload::Config::Heavy();
        }
        stress_config.seed = workload_seed;
        stress.push_back(std::make_unique<StressIoWorkload>(
            scenario.machine, vcpu, stress_config));
        stress.back()->Start(0);
        break;
      }
      case WorkloadKind::kNoise: {
        guests.push_back(
            std::make_unique<WorkQueueGuest>(scenario.machine, vcpu));
        SystemNoiseWorkload::Config noise_config;
        noise_config.seed = workload_seed;
        noise.push_back(std::make_unique<SystemNoiseWorkload>(
            scenario.machine, guests.back().get(), noise_config));
        noise.back()->Start(0);
        break;
      }
      case WorkloadKind::kPing: {
        guests.push_back(
            std::make_unique<WorkQueueGuest>(scenario.machine, vcpu));
        PingTraffic::Config ping_config;
        ping_config.threads = 2;
        ping_config.pings_per_thread = 200;
        ping_config.max_spacing = 8 * kMillisecond;
        ping_config.seed = workload_seed;
        pings.push_back(std::make_unique<PingTraffic>(
            scenario.machine, guests.back().get(), ping_config));
        pings.back()->Start(0);
        break;
      }
    }
  }

  OracleConfig oracle_config;
  oracle_config.spec.kind = spec.scheduler;
  oracle_config.spec.capped = spec.capped;
  oracle_config.spec.credit_timeslice = config.credit_timeslice;
  oracle_config.spec.switch_slip_tolerance = config.switch_slip_tolerance;
  oracle_config.num_cpus = spec.guest_cpus;
  for (const Vcpu* vcpu : scenario.vcpus) {
    if (oracle_config.params.size() <= static_cast<std::size_t>(vcpu->id())) {
      oracle_config.params.resize(static_cast<std::size_t>(vcpu->id()) + 1);
    }
    oracle_config.params[static_cast<std::size_t>(vcpu->id())] = vcpu->params();
  }
  oracle_config.fault_plan = config.fault_plan;
  if (scenario.tableau != nullptr) {
    oracle_config.tables.push_back(
        std::make_shared<SchedulingTable>(scenario.plan.table));
  }
  std::unique_ptr<SchedulerOracle> oracle = MakeOracle(std::move(oracle_config));

  scenario.machine->trace().set_enabled(true);
  scenario.machine->Start();

  std::optional<Planner> replanner;
  std::optional<ReplanController> controller;
  bool replanned = spec.replan_at <= 0 || scenario.tableau == nullptr;
  const TimeNs chunk = 5 * kMillisecond;
  TimeNs now = 0;
  std::uint64_t consumed_total = 0;
  while (now < spec.duration) {
    const TimeNs step = std::min(chunk, spec.duration - now);
    scenario.machine->RunFor(step);
    now += step;

    const TraceBuffer& trace = scenario.machine->trace();
    if (trace.total_recorded() - consumed_total > trace.size()) {
      outcome.violations.push_back(
          "trace: ring overflow mid-chunk; oracle would miss records");
    }
    trace.ForEach([&](const TraceRecord& record) { oracle->Consume(record); });
    consumed_total = trace.total_recorded();
    scenario.machine->trace().Clear();

    if (!replanned && now >= spec.replan_at) {
      if (!controller) {
        PlannerConfig replan_config = verify_config;
        replan_config.fault_injector = scenario.injector;
        replan_config.metrics = &scenario.machine->metrics();
        replanner.emplace(replan_config);
        controller.emplace(&*replanner, ReplanController::Config{});
        controller->AttachMetrics(&scenario.machine->metrics());
      }
      ReplanController::Outcome replan =
          controller->TryReplan(PlanRequest::Full(scenario.plan.requests), now);
      if (replan.installed) {
        for (std::string& violation : VerifyPlan(replan.plan, verify_config)) {
          outcome.violations.push_back("replan: " + violation);
        }
        auto table = std::make_shared<SchedulingTable>(replan.plan.table);
        oracle->AddTable(table);
        scenario.tableau->PushTable(std::move(table));
        replanned = true;
      }
    }
  }
  oracle->Finish(now);

  for (const std::string& violation : oracle->violations()) {
    outcome.violations.push_back(violation);
  }
  outcome.records = oracle->records_consumed();
  return outcome;
}

}  // namespace tableau::check

