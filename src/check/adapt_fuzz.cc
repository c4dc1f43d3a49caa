#include "src/check/scenario.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/check/table_verifier.h"
#include "src/common/parse.h"
#include "src/fleet/host.h"

// The adapt family: drives the adaptive controller through a real
// fleet::Host and checks its resizes (see scenario.h).
namespace tableau::check {
namespace {

// Structural validity: the spec names a buildable host, a policy the
// controller's constructor accepts, and VMs whose initial reservations obey
// their own clamps. No planner consultation (that is FeasibleSpec).
bool AdaptShapeOk(const AdaptScenarioSpec& spec) {
  if (spec.num_cpus < 1 || spec.cores_per_socket < 1 ||
      spec.cores_per_socket > spec.num_cpus || spec.slots_per_core < 1 ||
      spec.window_ns <= 0 || spec.windows < 1 || spec.vms.empty()) {
    return false;
  }
  if (static_cast<int>(spec.vms.size()) >
      spec.num_cpus * spec.slots_per_core) {
    return false;
  }
  if (!(spec.min_utilization > 0) ||
      spec.min_utilization > spec.max_utilization ||
      spec.max_utilization > 1.0) {
    return false;
  }
  const adapt::PolicyConfig& policy = spec.policy;
  if (policy.headroom < 1.0 || !(policy.quantize > 0) ||
      policy.grow_deadband < 0 || policy.shrink_deadband < 0 ||
      policy.cooldown_windows < 0 || policy.saturation_growth < 1.0 ||
      policy.predictor.history < 1 || policy.predictor.fit_window < 2 ||
      policy.predictor.horizon < 0 || policy.predictor.quantile < 0 ||
      policy.predictor.quantile > 1 || policy.floor_quantile < 0 ||
      policy.floor_quantile > 1) {
    return false;
  }
  for (const AdaptVmFuzzSpec& vm : spec.vms) {
    if (vm.initial < spec.min_utilization ||
        vm.initial > spec.max_utilization || vm.latency_goal <= 0) {
      return false;
    }
  }
  return true;
}

fleet::HostConfig BuildHostConfig(const AdaptScenarioSpec& spec) {
  fleet::HostConfig config;
  config.num_cpus = spec.num_cpus;
  config.cores_per_socket = spec.cores_per_socket;
  config.slots_per_core = spec.slots_per_core;
  // The fuzz loop feeds the controller synthetic window views directly, so
  // no telemetry (and no engine time) is needed — only the planner runs.
  config.attach_telemetry = false;
  config.adaptive = true;
  config.adapt_policy = spec.policy;
  config.adapt_min_utilization = spec.min_utilization;
  config.adapt_max_utilization = spec.max_utilization;
  return config;
}

// The floor the controller promises: nearest-rank quantile over the last
// min(n, history) fed observations — recomputed independently from the raw
// demand trace, never from predictor state.
double ShadowFloor(const std::vector<double>& fed, int history, double q) {
  if (fed.empty()) {
    return 0;
  }
  const std::size_t n =
      std::min(fed.size(), static_cast<std::size_t>(history));
  std::vector<double> tail(fed.end() - static_cast<std::ptrdiff_t>(n),
                           fed.end());
  std::sort(tail.begin(), tail.end());
  int rank = static_cast<int>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp(rank, 1, static_cast<int>(n));
  return tail[static_cast<std::size_t>(rank - 1)];
}

}  // namespace

bool FeasibleSpec(const AdaptScenarioSpec& spec) {
  if (!AdaptShapeOk(spec)) {
    return false;
  }
  // Real admission dry-run: the host's sequential delta solves are the
  // system under test, so feasibility means "this host admits this VM set",
  // not an aggregate-utilization heuristic.
  fleet::Host host(BuildHostConfig(spec));
  for (const AdaptVmFuzzSpec& vm : spec.vms) {
    if (host.AdmitVm(vm.initial, vm.latency_goal) < 0) {
      return false;
    }
  }
  return true;
}

CheckOutcome RunCheckedScenario(const AdaptScenarioSpec& spec) {
  CheckOutcome outcome;
  if (!AdaptShapeOk(spec)) {
    outcome.violations.push_back("spec: malformed adapt scenario spec");
    return outcome;
  }

  fleet::Host host(BuildHostConfig(spec));
  adapt::AdaptiveController* controller = host.adaptive();
  std::vector<int> slots;
  for (std::size_t i = 0; i < spec.vms.size(); ++i) {
    const int slot = host.AdmitVm(spec.vms[i].initial, spec.vms[i].latency_goal);
    if (slot < 0) {
      // Correctly rejected at admission: nothing to drive. (A reproducer for
      // a since-fixed over-admission bug replays as clean this way.)
      return outcome;
    }
    slots.push_back(slot);
  }

  const PlannerConfig verify_config = host.planner_config();
  const adapt::PolicyConfig& policy = spec.policy;

  // Independent per-VM shadow of everything the properties need: the raw
  // data windows fed so far and the spacing since the last committed resize.
  struct Shadow {
    std::vector<double> fed;
    int data_since_commit = 0;
    bool committed_before = false;
  };
  std::vector<Shadow> shadows(spec.vms.size());

  struct PendingMeta {
    std::size_t vm = 0;
    double old_reservation = 0;
  };

  for (int w = 0; w < spec.windows; ++w) {
    const TimeNs now = static_cast<TimeNs>(w + 1) * spec.window_ns;
    std::vector<fleet::Host::ResizeRequest> pending;
    std::vector<PendingMeta> meta;
    for (std::size_t i = 0; i < spec.vms.size(); ++i) {
      const AdaptVmFuzzSpec& vm = spec.vms[i];
      const int slot = slots[i];
      const double demand =
          static_cast<std::size_t>(w) < vm.demand.size() ? vm.demand[w] : -1.0;
      const bool has_data = demand >= 0;
      Shadow& shadow = shadows[i];
      if (has_data) {
        shadow.fed.push_back(demand);
        ++shadow.data_since_commit;
      }
      const double old_reservation = controller->reservation(slot);
      const adapt::AdaptiveController::Decision decision =
          controller->ObserveWindow(slot, has_data, std::max(demand, 0.0),
                                    std::max(demand, 0.0));
      if (!has_data &&
          decision.action != adapt::AdaptiveController::Action::kHold) {
        outcome.violations.push_back(
            "nodata: w=" + std::to_string(w) + " vm " + std::to_string(i) +
            " resized on a window with no data");
        continue;
      }
      if (decision.action != adapt::AdaptiveController::Action::kHold) {
        pending.push_back(fleet::Host::ResizeRequest{slot, decision.target});
        meta.push_back(PendingMeta{i, old_reservation});
      }
    }
    if (pending.empty()) {
      continue;
    }
    const int installed = host.ResizeVms(pending, now);
    if (installed == 0) {
      // Backoff-suppressed or planner-rejected: previous table kept, the
      // controller cooled down — graceful degradation, not a violation.
      continue;
    }
    // (a) Every installed resize's table passes the TableVerifier.
    for (std::string& violation : VerifyPlan(host.plan(), verify_config)) {
      outcome.violations.push_back("verify: w=" + std::to_string(w) + " " +
                                   violation);
    }
    for (std::size_t j = 0; j < pending.size(); ++j) {
      const double next = pending[j].utilization;
      const double old = meta[j].old_reservation;
      Shadow& shadow = shadows[meta[j].vm];
      const std::string where =
          "w=" + std::to_string(w) + " vm " + std::to_string(meta[j].vm);
      outcome.resize_log.push_back("w=" + std::to_string(w) + " slot=" +
                                   std::to_string(pending[j].slot) + " " +
                                   FormatReal(old) + "->" +
                                   FormatReal(next));
      ++outcome.resizes;
      // (b) Hysteresis: deadbands around the live reservation, and at least
      // cooldown_windows + 1 data windows between commits per VM.
      if (shadow.committed_before &&
          shadow.data_since_commit < policy.cooldown_windows + 1) {
        outcome.violations.push_back(
            "cooldown: " + where + " committed after " +
            std::to_string(shadow.data_since_commit) + " data windows (< " +
            std::to_string(policy.cooldown_windows + 1) + ")");
      }
      if (next > old && next - old <= policy.grow_deadband - 1e-9) {
        outcome.violations.push_back("deadband: " + where + " grew " +
                                     FormatReal(old) + "->" +
                                     FormatReal(next) +
                                     " inside the grow deadband");
      }
      if (next < old) {
        if (old - next <= policy.shrink_deadband - 1e-9) {
          outcome.violations.push_back("deadband: " + where + " shrank " +
                                       FormatReal(old) + "->" +
                                       FormatReal(next) +
                                       " inside the shrink deadband");
        }
        // (c) Never below the demonstrated-demand floor (clamped: a floor
        // above max_utilization is capped by the tenant's own max).
        const double floor =
            std::min(ShadowFloor(shadow.fed, policy.predictor.history,
                                 policy.floor_quantile),
                     spec.max_utilization);
        if (next < floor - 1e-9) {
          outcome.violations.push_back(
              "floor: " + where + " shrank to " + FormatReal(next) +
              " below the observed p" +
              std::to_string(static_cast<int>(policy.floor_quantile * 100)) +
              " demand " + FormatReal(floor));
        }
      }
      if (next < spec.min_utilization - 1e-9 ||
          next > spec.max_utilization + 1e-9) {
        outcome.violations.push_back("clamp: " + where + " committed " +
                                     FormatReal(next) + " outside [" +
                                     FormatReal(spec.min_utilization) + ", " +
                                     FormatReal(spec.max_utilization) + "]");
      }
      shadow.committed_before = true;
      shadow.data_since_commit = 0;
    }
  }
  return outcome;
}

}  // namespace tableau::check

