// One scenario language for the two fuzzed property families.
//
// A spec is a small, fully serializable description of one randomized
// end-to-end run; everything derives from its seed through the repo's
// deterministic Rng, so a spec replays byte-identically. Two families check
// different promises, so they keep their own spec structs:
//
//  - host (ScenarioSpec, "tableau-repro v1"): scheduler, machine shape, VM
//    mix, fault intensity, optional runtime replan, slip tolerance and an
//    optional scheduler mutant. RunCheckedScenario builds it through the
//    harness, verifies every planned table with the TableVerifier, runs the
//    machine with tracing on and replays the trace through the differential
//    oracle of the scheduler.
//  - adapt (AdaptScenarioSpec, "tableau-adapt-repro v1"): host shape,
//    adaptive-controller policy and per-VM demand traces. RunCheckedScenario
//    admits the VMs into a real fleet::Host, feeds the controller one window
//    at a time, applies each decision through Host::ResizeVms (one batched
//    delta solve) and checks that (a) every installed table verifies, (b)
//    commits respect the deadbands and cooldown, (c) no VM shrinks below the
//    independently recomputed floor quantile of its demand or leaves its
//    [min, max] clamps, and (d) a no-data window never resizes.
//
// Both share one grammar (scenario.cc): a header line naming the family,
// then '#' comments, key=value lines and repeated vm= lines of name:value
// fields, all read and written through one field table per family. Parse,
// Format, Generate, Shrink and CategoryOf are the one generic layer over it.
// A violation shrinks greedily to a minimal reproducer whose text goes into
// tests/repro/ and replays through `tableau check replay`.
#ifndef SRC_CHECK_SCENARIO_H_
#define SRC_CHECK_SCENARIO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/adapt/controller.h"
#include "src/check/mutants.h"
#include "src/common/time.h"
#include "src/schedulers/factory.h"

namespace tableau::check {

// Workload attached to every vCPU of a host-family VM (src/workloads).
enum class WorkloadKind { kHog, kStress, kStressHeavy, kNoise, kPing };

struct VmFuzzSpec {
  int vcpus = 1;
  double utilization = 0.25;  // Per-vCPU reservation.
  TimeNs latency_goal = 20 * kMillisecond;
  WorkloadKind workload = WorkloadKind::kHog;
  bool gang = false;
};

struct ScenarioSpec {
  std::uint64_t seed = 1;
  SchedKind scheduler = SchedKind::kTableau;
  bool capped = false;
  int guest_cpus = 2;
  int cores_per_socket = 2;
  TimeNs duration = 50 * kMillisecond;
  // ChaosPlan intensity in [0, 1]; 0 = fault-free.
  double fault_intensity = 0.0;
  std::uint64_t fault_seed = 1;
  // Injected planner failure probability (exercises ReplanController).
  double planner_failure = 0.0;
  // Non-zero: attempt a runtime replan (same requests) from this time on,
  // through ReplanController, until one installs. Tableau only.
  TimeNs replan_at = 0;
  // Dispatcher switch_slip_tolerance; 0 = kTimeNever (promote late).
  TimeNs slip_ns = 0;
  MutantKind mutant = MutantKind::kNone;
  int mutant_stride = 0;
  std::vector<VmFuzzSpec> vms;

  int TotalVcpus() const {
    int total = 0;
    for (const VmFuzzSpec& vm : vms) total += vm.vcpus;
    return total;
  }
};

struct AdaptVmFuzzSpec {
  double initial = 0.25;
  TimeNs latency_goal = 20 * kMillisecond;
  // Observed demand fraction per window; a negative value encodes an
  // explicit no-data window (the VM was idle).
  std::vector<double> demand;
};

struct AdaptScenarioSpec {
  std::uint64_t seed = 1;
  int num_cpus = 4;
  int cores_per_socket = 2;
  int slots_per_core = 2;
  TimeNs window_ns = 10 * kMillisecond;
  int windows = 16;
  // Host-wide resize clamps and the controller policy under test.
  double min_utilization = 1.0 / 32;
  double max_utilization = 1.0;
  adapt::PolicyConfig policy;
  std::vector<AdaptVmFuzzSpec> vms;

  // Every adapt VM is one vCPU.
  int TotalVcpus() const { return static_cast<int>(vms.size()); }
};

// A spec of either family; the alternative is the family.
using AnySpec = std::variant<ScenarioSpec, AdaptScenarioSpec>;

// Reads a spec of the family its header names. Leading '#' comment lines
// are skipped. Returns nullopt on malformed input: an unknown header, key or
// vm field, a vm= line missing a field, a value that does not parse whole,
// or one outside its field's range (scenario.cc documents the bounds).
std::optional<AnySpec> Parse(std::string_view text);

// The canonical text of a spec; Parse(Format(s)) formats back to the same.
template <class Spec>
std::string Format(const Spec& spec);

// Draws a random spec from the seed, retrying a bounded number of attempt
// salts until FeasibleSpec() accepts; deterministic per seed.
template <class Spec>
Spec Generate(std::uint64_t seed);

// True when the spec can be built and admitted: for the host family the
// scheduler/cap constraints hold, reservations are mappable and (for
// Tableau) a fault-free dry-run plan admits the VM set; for the adapt
// family every VM admits into a freshly built host.
bool FeasibleSpec(const ScenarioSpec& spec);
bool FeasibleSpec(const AdaptScenarioSpec& spec);

struct CheckOutcome {
  std::vector<std::string> violations;
  std::uint64_t records = 0;  // Host: trace records replayed through the oracle.
  // Adapt: one line per installed resize ("w=<window> slot=<s> <old>-><new>"),
  // the determinism fingerprint of the control loop.
  std::vector<std::string> resize_log;
  int resizes = 0;
};

// Builds, runs and checks one scenario. Aborts only on harness-level
// invariant failures; every checkable property violation comes back in the
// outcome instead. A spec its family cannot build reports one "spec:"
// violation; one that is correctly rejected at admission runs nothing and
// reports none.
CheckOutcome RunCheckedScenario(const ScenarioSpec& spec);
CheckOutcome RunCheckedScenario(const AdaptScenarioSpec& spec);

// Stable bucket for "the same bug": the leading non-numeric prefix of the
// first violation message, trailing spaces trimmed (the first 16 characters
// if that is empty). Empty when there are no violations.
std::string CategoryOf(const std::vector<std::string>& violations);

template <class Spec>
struct ShrinkResult {
  Spec spec;
  int runs = 0;  // Scenario executions the shrink spent.
};

// Greedy deterministic delta-debugging: re-runs the family's shrinking
// candidates (drop a VM, simplify a VM, strip knobs, shorten time, remove
// cores) and keeps the first that still reproduces `category`, until none
// does or the run budget is spent.
template <class Spec>
ShrinkResult<Spec> Shrink(const Spec& spec, const std::string& category);

}  // namespace tableau::check

#endif  // SRC_CHECK_SCENARIO_H_
