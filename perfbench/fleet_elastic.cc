// fleet_elastic: bench_fleet's fleet with the adaptive loop on, in serial
// execution. 64 hosts x 32 pCPUs x 4 slots, 1,024 constant-demand VMs and
// one scripted 4x surge VM (chosen by the seed) that gets live-migrated;
// bench_adaptive's cadence (210 ms control period, 210 ms admission
// latency). The control plane (placement, migration, ~1,200 small planner
// deltas from adapt resizes) shares time with an engine whose working set is
// ~64x host_dense's. One step is Cluster::RunUntil over 30 ms of simulated
// time; a step that ends on a control tick is split one epoch before the
// tick so the tick is timed on its own. At 7 steps per control period the
// ticks that install resize bursts (~3 per episode) are ~2% of the steps, so
// step_ms_p99 sits among them rather than on the edge between them and the
// plain steps, where it would swing from run to run.
#include <memory>
#include <string>
#include <utility>

#include "perfbench/perfbench.h"
#include "perfbench/sched_timing.h"
#include "src/check/table_verifier.h"
#include "src/common/rng.h"
#include "src/harness/fleet_scenario.h"

namespace perfbench {
namespace {

using namespace tableau;

constexpr TimeNs kControlPeriod = 210 * kMillisecond;
constexpr TimeNs kStep = 30 * kMillisecond;  // Divides the control period.
constexpr TimeNs kEpisode = 4200 * kMillisecond;  // 20 control periods.

FleetScenarioConfig FleetConfig(std::uint64_t seed) {
  FleetScenarioConfig config;
  config.num_hosts = 64;
  config.cpus_per_host = 32;
  config.cores_per_socket = 8;
  config.slots_per_core = 4;
  config.num_vms = 1024;
  config.utilization = 0.25;
  config.requests_per_sec = 200;
  config.service_ns = 500 * kMicrosecond;
  config.latency_goal = 20 * kMillisecond;
  config.surge_vms = 1;
  config.surge_at = 100 * kMillisecond;
  config.surge_factor = 4.0;
  config.min_requests_before_migration = 20;
  config.control_period = kControlPeriod;
  config.admission_latency = kControlPeriod;
  config.adaptive = true;
  config.seed = seed;
  return config;
}

// The fleet's inputs from the run seed: which VM surges, and each VM's
// per-request service demand (constant over time, within +/-10% of 500 us).
fleet::ClusterConfig ClusterConfigFor(const FleetScenarioConfig& scenario) {
  fleet::ClusterConfig config = BuildFleetConfig(scenario);
  Rng rng(scenario.seed);
  for (fleet::VmReservation& vm : config.vms) {
    vm.service_ns = static_cast<TimeNs>(static_cast<double>(vm.service_ns) *
                                        rng.UniformDouble(0.9, 1.1));
  }
  const auto surge = static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(config.vms.size()) - 1));
  std::swap(config.vms[0].surge_at, config.vms[surge].surge_at);
  std::swap(config.vms[0].surge_factor, config.vms[surge].surge_factor);
  return config;
}

struct Episode {
  double setup_s = 0;
  double run_s = 0;
  Samples step_ms;  // kStep of fleet time each, control tick included.
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
};

struct FleetOutputs {
  double slo_attainment = 0;
  double committed_frac = 0;
  std::uint64_t resizes = 0;
  std::uint64_t migrations = 0;
  std::uint64_t commits = 0;
  std::uint64_t rejects = 0;
};

// Correctness gate and simulated outputs of a finished run.
FleetOutputs Check(fleet::Cluster& cluster, RunResult& result) {
  FleetOutputs out;
  const fleet::Cluster::SloSummary slo = cluster.Slo();
  result.attempted += static_cast<std::uint64_t>(slo.vms_admitted + slo.vms_rejected);
  result.failed += static_cast<std::uint64_t>(slo.vms_rejected);
  out.slo_attainment = slo.attainment;
  out.committed_frac = cluster.AvgCommittedFraction();
  out.resizes = cluster.resizes();
  out.migrations = cluster.migrations().size();
  if (out.migrations == 0) {
    result.Fail("fleet_elastic: the surge VM was not migrated");
  }
  if (out.resizes == 0) {
    result.Fail("fleet_elastic: the adaptive loop installed no resize");
  }
  for (const fleet::Cluster::MigrationRecord& migration : cluster.migrations()) {
    fleet::Host& destination = cluster.host(migration.to);
    if (!destination.plan().success ||
        !check::VerifyPlan(destination.plan(), destination.planner_config()).empty()) {
      result.Fail("fleet_elastic: migration destination host " +
                  std::to_string(migration.to) + " fails VerifyPlan");
    }
  }
  for (int h = 0; h < cluster.num_hosts(); ++h) {
    if (const adapt::AdaptiveController* controller = cluster.host(h).adaptive()) {
      out.commits += controller->counters().commits;
      out.rejects += controller->counters().rejects;
    }
  }
  return out;
}

Episode RunEpisode(const Options& options, Tracer& tracer, SchedTimings* timings,
                   std::uint64_t episode, FleetOutputs* outputs, RunResult& result) {
  Episode out;
  const std::int64_t setup_start = NowNs();
  fleet::Cluster cluster(ClusterConfigFor(FleetConfig(options.seed)));
  cluster.Start();
  out.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;

  const TimeNs epoch = cluster.sim().epoch_ns();
  const std::uint64_t events_before = cluster.sim().events_executed();
  const auto segment = [&](const char* name, TimeNs until, std::uint64_t id) {
    const std::uint64_t events_at = cluster.sim().events_executed();
    const std::uint64_t resizes_at = cluster.resizes();
    const std::int64_t sched_ns_at = timings != nullptr ? timings->total_ns : 0;
    const int span = tracer.Begin(name, id);
    const std::int64_t start = NowNs();
    cluster.RunUntil(until);
    const std::int64_t elapsed = NowNs() - start;
    const bool tick = until % kControlPeriod == 0;
    tracer.End(span,
               static_cast<std::int64_t>(tick ? cluster.resizes() - resizes_at
                                              : cluster.sim().events_executed() - events_at),
               timings != nullptr ? timings->total_ns - sched_ns_at : 0);
    return elapsed;
  };
  for (TimeNs until = kStep; until <= kEpisode; until += kStep) {
    // One id per control period: the steps leading up to tick k share it.
    const std::uint64_t id =
        episode * 1'000'000 + static_cast<std::uint64_t>((until - 1) / kControlPeriod);
    const int period = tracer.Begin("fleet.period", id);
    std::int64_t elapsed = 0;
    if (until % kControlPeriod == 0) {
      elapsed += segment("fleet.step", until - epoch, id);
      elapsed += segment("fleet.control_tick", until, id);
    } else {
      elapsed += segment("fleet.step", until, id);
    }
    tracer.End(period);
    out.step_ms.Add(static_cast<double>(elapsed) / 1e6);
    out.run_s += static_cast<double>(elapsed) / 1e9;
  }
  out.events = cluster.sim().events_executed() - events_before;
  out.fingerprint = cluster.Fingerprint();
  result.fingerprints.push_back(out.fingerprint);
  const FleetOutputs checked = Check(cluster, result);
  if (outputs != nullptr) {
    *outputs = checked;
  }
  return out;
}

}  // namespace

void RunFleetElastic(const Options& options, RunResult& result) {
  Tracer untraced(false);
  FleetOutputs outputs;
  Samples base_steps;
  Samples base_run_s;
  std::uint64_t events = 0;
  const double untraced_seconds = options.trace ? options.seconds * 0.3 : options.seconds;
  RepeatFor(untraced_seconds, 2, [&](int i) {
    const Episode episode = RunEpisode(options, untraced, nullptr, static_cast<std::uint64_t>(i),
                                       i == 0 ? &outputs : nullptr, result);
    events = episode.events;
    if (!options.trace) {
      result.setup_s.Add(episode.setup_s);
    }
    if (i == 0) {
      return 0.0;  // Warm-up: its steps are not measured.
    }
    base_steps.Append(episode.step_ms);
    base_run_s.Add(episode.run_s);
    result.step_ms.Append(episode.step_ms);
    return episode.run_s;
  }, options.trace ? nullptr : &result.step_ms);
  if (!options.trace) {
    return;
  }

  Tracer tracer(true);
  SchedTimings timings;
  Samples traced_steps;
  {
    const ScopedSchedulerTiming timing(&timings);
    RepeatFor(options.seconds - untraced_seconds, 1, [&](int i) {
      const Episode episode = RunEpisode(options, tracer, &timings,
                                         1000 + static_cast<std::uint64_t>(i), nullptr, result);
      traced_steps.Append(episode.step_ms);
      return episode.run_s;
    });
  }

  // Sharded-parallel pass over the same fleet: one unsplit RunUntil on
  // min(4, nproc) threads. Its fingerprint must equal the serial split runs'.
  FleetScenarioConfig parallel_config = FleetConfig(options.seed);
  parallel_config.sharded = true;
  parallel_config.parallel = true;
  parallel_config.num_threads = LoadThreads();
  double parallel_s = 0;
  {
    fleet::Cluster cluster(ClusterConfigFor(parallel_config));
    cluster.Start();
    const std::int64_t start = NowNs();
    cluster.RunUntil(kEpisode);
    parallel_s = static_cast<double>(NowNs() - start) / 1e9;
    result.fingerprints.push_back(cluster.Fingerprint());
  }

  const double sim_s = static_cast<double>(kStep) / 1e9;
  const double base_speed = sim_s / (base_steps.Sum() / 1e3 / base_steps.size());
  const double traced_speed = sim_s / (traced_steps.Sum() / 1e3 / traced_steps.size());
  result.Layer("sim_speed", base_speed, "s/s", base_steps.size());
  result.Layer("trace.sim_speed", traced_speed, "s/s", traced_steps.size());
  result.Layer("trace.overhead_frac", base_speed / traced_speed - 1, "ratio",
               traced_steps.size());
  result.Layer("slo_attainment", outputs.slo_attainment, "ratio", 1);
  result.Layer("committed_frac", outputs.committed_frac, "ratio", 1);
  result.Layer("adapt.resizes", static_cast<double>(outputs.resizes), "count", 1);
  result.Layer("adapt.commit_frac",
               outputs.commits + outputs.rejects > 0
                   ? static_cast<double>(outputs.commits) /
                         static_cast<double>(outputs.commits + outputs.rejects)
                   : 0,
               "ratio", outputs.commits + outputs.rejects);
  result.Layer("fleet.migrations", static_cast<double>(outputs.migrations), "count", 1);
  result.Layer("sim.events", static_cast<double>(events), "count", 1);
  result.Layer("sim.ns_per_event",
               events > 0 ? base_run_s.Quantile(0.5) * 1e9 / static_cast<double>(events) : 0,
               "ns", base_run_s.size());
  result.Layer("sim.parallel_speedup", parallel_s > 0 ? base_run_s.Quantile(0.5) / parallel_s : 0,
               "ratio", 1);
  result.LayerTiming("fleet.step_ms", tracer.DurationsMs("fleet.step"), "ms");
  result.LayerTiming("fleet.control_tick_ms", tracer.DurationsMs("fleet.control_tick"), "ms");
  ReportSchedTimings(timings, result);
  const std::string trace_path = options.out_dir + "/trace_fleet_elastic.json";
  if (!tracer.WriteJson(trace_path)) {
    result.Fail("cannot write " + trace_path);
  }
}

}  // namespace perfbench
