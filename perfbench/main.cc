// tableau_perfbench: runs one benchmark workload and prints its metrics.
//
//   tableau_perfbench --workload plan_churn|host_dense|fleet_elastic
//                     --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 runs an untraced baseline pass and then a traced pass, reports
// every per-layer metric and the tracing overhead, and writes the spans to
// DIR/trace_<workload>.json. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exit code 1 when a correctness check failed, 2 on bad arguments.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/perfbench.h"

namespace perfbench {
namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// Every workload reports every per-layer metric below in a traced run; a
// layer the workload does not exercise reads 0 with 0 samples. The untraced
// run reports the end-to-end metrics setup_s, peak_rss_mb and step_ms_p99.
// run.py checks both sets against BENCHMARK.json.
constexpr MetricName kPerLayer[] = {
    // Workload-level figures (untraced baseline pass of the traced run).
    {"step_ms_p50", "ms"},
    {"step_ms_p95", "ms"},
    {"reconfig_ms_p50", "ms"},
    {"reconfig_ms_p99", "ms"},
    {"full_plan_ms_p50", "ms"},
    {"sim_speed", "s/s"},
    {"ping_p50_us", "us"},
    {"ping_p99_us", "us"},
    {"web_p99_us", "us"},
    {"slo_attainment", "ratio"},
    {"committed_frac", "ratio"},
    // Tracing overhead: traced step median vs untraced.
    {"trace.overhead_frac", "ratio"},
    {"trace.reconfig_ms_p50", "ms"},
    {"trace.sim_speed", "s/s"},
    // core
    {"core.solve_full_ms", "ms"},
    {"core.solve_full_ms.p99", "ms"},
    {"core.solve_delta_ms", "ms"},
    {"core.solve_delta_ms.p99", "ms"},
    {"core.install_ms", "ms"},
    {"core.install_ms.p99", "ms"},
    {"core.solve_coverage_frac", "ratio"},
    {"core.dirty_core_frac", "ratio"},
    // table
    {"table.validate.replay_ms", "ms"},
    {"table.validate.replay_ms.p99", "ms"},
    {"table.build.replay_ms", "ms"},
    {"table.build.replay_ms.p99", "ms"},
    {"table.serialize_ms", "ms"},
    {"table.serialize_ms.p99", "ms"},
    {"table.deserialize_ms", "ms"},
    {"table.deserialize_ms.p99", "ms"},
    {"table.delta_serialize_ms", "ms"},
    {"table.delta_serialize_ms.p99", "ms"},
    {"table.delta_apply_ms", "ms"},
    {"table.delta_apply_ms.p99", "ms"},
    {"table.bytes", "bytes"},
    {"table.delta_bytes", "bytes"},
    {"table.lookup_ns", "ns"},
    // rt
    {"rt.edf_sim.replay_ms", "ms"},
    {"rt.edf_sim.replay_ms.p99", "ms"},
    {"rt.admit.replay_ms", "ms"},
    {"rt.admit.replay_ms.p99", "ms"},
    {"rt.partition.replay_ms", "ms"},
    {"rt.partition.replay_ms.p99", "ms"},
    {"rt.admission_analytic_frac", "ratio"},
    // planner.* from the MetricsRegistry passed in PlannerConfig::metrics
    // (histograms: median ns; counters: totals).
    {"planner.plan_total_ns", "ns"},
    {"planner.partition_ns", "ns"},
    {"planner.edf_core_sim_ns", "ns"},
    {"planner.cd_split_ns", "ns"},
    {"planner.cluster_ns", "ns"},
    {"planner.coalesce_ns", "ns"},
    {"planner.plans", "count"},
    {"planner.incremental_plans", "count"},
    {"planner.admission.utilization", "count"},
    {"planner.admission.density", "count"},
    {"planner.admission.qpa", "count"},
    {"planner.admission.simulation", "count"},
    // schedulers (timing decorator)
    {"sched.pick_next_ns", "ns"},
    {"sched.pick_next_ns.p99", "ns"},
    {"sched.on_wakeup_ns", "ns"},
    {"sched.on_wakeup_ns.p99", "ns"},
    {"sched.on_block_ns", "ns"},
    {"sched.on_block_ns.p99", "ns"},
    {"sched.on_deschedule_ns", "ns"},
    {"sched.on_deschedule_ns.p99", "ns"},
    {"sched.ops", "count"},
    // sim + hypervisor
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.parallel_speedup", "ratio"},
    {"hypervisor.chunk_ms", "ms"},
    {"hypervisor.chunk_ms.p99", "ms"},
    // obs, workloads/net
    {"obs.telemetry_overhead_frac", "ratio"},
    {"ping.blackout_mean_us", "us"},
    {"ping.queue_mean_us", "us"},
    // fleet + adapt
    {"fleet.control_tick_ms", "ms"},
    {"fleet.control_tick_ms.p99", "ms"},
    {"fleet.step_ms", "ms"},
    {"fleet.step_ms.p99", "ms"},
    {"fleet.migrations", "count"},
    {"adapt.resizes", "count"},
    {"adapt.commit_frac", "ratio"},
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics, bool with_samples) {
  std::string json = "{";
  char buffer[512];
  for (const auto& [name, metric] : metrics) {
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"",
                  json.size() > 1 ? ", " : "", name.c_str(),
                  std::isfinite(metric.value) ? metric.value : 0.0, metric.unit.c_str());
    json += buffer;
    if (with_samples) {
      json += ", \"samples\": " + std::to_string(metric.samples);
    }
    json += "}";
  }
  return json + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: tableau_perfbench --workload plan_churn|host_dense|fleet_elastic "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      options.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !(options.seconds > 0)) {
    return Usage();
  }

  RunResult result;
  if (options.workload == "plan_churn") {
    RunPlanChurn(options, result);
  } else if (options.workload == "host_dense") {
    RunHostDense(options, result);
  } else if (options.workload == "fleet_elastic") {
    RunFleetElastic(options, result);
  } else {
    return Usage();
  }

  // Repetitions (and, in a traced run, the traced and untraced passes) of
  // one seed must produce identical simulated outputs / installed tables.
  if (result.fingerprints.empty()) {
    result.Fail("no episode completed");
  }
  for (const std::uint64_t fingerprint : result.fingerprints) {
    if (fingerprint != result.fingerprints.front()) {
      result.Fail("fingerprints differ across repetitions or passes");
      break;
    }
  }
  std::printf("fingerprint %s %016llx (%zu episodes)\n", options.workload.c_str(),
              static_cast<unsigned long long>(
                  result.fingerprints.empty() ? 0 : result.fingerprints.front()),
              result.fingerprints.size());
  if (!result.setup_s.empty()) {
    // The first set-up of a process runs cold (page faults, allocator
    // growth); the reported setup_s is the median over every episode.
    std::printf("setup_s first %.6f median %.6f over %zu set-ups\n", result.setup_s.front(),
                result.setup_s.Quantile(0.5), result.setup_s.size());
  }
  for (const std::string& error : result.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }

  std::map<std::string, Metric> metrics;
  if (options.trace) {
    // The step median and p95 move with the speed of a shared machine (see
    // README), so they are per-layer figures, not gated ones.
    result.Layer("step_ms_p50", result.step_ms.Quantile(0.5), "ms", result.step_ms.size());
    result.Layer("step_ms_p95", result.step_ms.Quantile(0.95), "ms", result.step_ms.size());
    metrics = result.layer;
    for (const MetricName& m : kPerLayer) {
      metrics.try_emplace(m.name, Metric{0, m.unit, 0});
    }
  } else {
    metrics["setup_s"] = {result.setup_s.Quantile(0.5), "s", result.setup_s.size()};
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB", 1};
    metrics["step_ms_p99"] = {result.step_ms.Quantile(0.99), "ms", result.step_ms.size()};
  }
  // Sample counts behind each metric, then the result line.
  std::printf("{\"samples\": %s}\n", MetricsJson(metrics, /*with_samples=*/true).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MetricsJson(metrics, /*with_samples=*/false).c_str());
  return result.correct ? 0 : 1;
}
