// plan_churn: the control plane alone, no simulation. A 44-core host
// (11 cores per socket) is kept at 175-176 vCPUs by a closed loop of seeded
// departure/arrival events. Each event runs Planner::Solve (delta), then the
// hypercall path SerializeDelta -> ApplyDelta -> TableauDispatcher::
// InstallTable; every kFullReplanEvery-th event is a full re-plan shipped
// whole with Serialize -> Deserialize. Every event is timed from the Solve
// call to the table installed in the dispatcher; one step is one delta
// event, the reconfiguration a VM arrival or departure waits for. Full
// re-plans are reported on their own (full_plan_ms_p50).
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/check/table_verifier.h"
#include "src/common/rng.h"
#include "src/core/dispatcher.h"
#include "src/core/planner.h"
#include "src/obs/metrics.h"
#include "src/rt/admission.h"
#include "src/rt/edf_sim.h"
#include "src/rt/hyperperiod.h"
#include "src/rt/partition.h"
#include "src/table/table_delta.h"

namespace perfbench {
namespace {

using namespace tableau;

constexpr int kCores = 44;
constexpr int kCoresPerSocket = 11;
constexpr int kVcpus = 176;
constexpr double kUtilization = 0.25;
constexpr int kFullReplanEvery = 10;
constexpr int kEventsPerEpisode = 50;

// Latency goals: mostly 1 ms (the paper's hardest Fig 3 curve), some
// 10/30/100 ms. The initial host is the same for every seed and the seed
// only decides which vCPU churns next, so every seed plans tables of the
// same density and goal mix.
TimeNs GoalOf(int index) {
  switch (index % 10) {
    case 7:
      return 10 * kMillisecond;
    case 8:
      return 30 * kMillisecond;
    case 9:
      return 100 * kMillisecond;
    default:
      return kMillisecond;
  }
}

// Traced-only measurements that are not spans.
struct Extras {
  Samples lookup_ns;
  Samples dirty_frac;
  std::int64_t analytic = 0;
  std::int64_t admissions = 0;
};

// Repeats, outside the timed event, the phases Solve ran internally, on the
// result's own intermediate outputs (core_tasks, table), so the trace can
// attribute Solve time from outside the planner.
void Replay(const PlanResult& plan, bool full, const PlannerConfig& config, Tracer& tracer,
            std::uint64_t id, Extras& extras) {
  Tracer::Scope root(tracer, "churn.replay", id);
  const TimeNs hyperperiod = config.hyperperiod;
  if (full) {
    std::vector<PeriodicTask> tasks;
    for (const VcpuRequest& request : plan.requests) {
      if (const auto mapping = MapRequestToTask(request)) {
        tasks.push_back(mapping->task);
      }
    }
    Tracer::Scope span(tracer, "rt.partition.replay", id);
    const PartitionResult partition =
        WorstFitDecreasingNuma(tasks, {}, kCores, kCoresPerSocket, hyperperiod);
    span.count = static_cast<std::int64_t>(tasks.size() - partition.unassigned.size());
  }
  std::vector<int> cores;
  if (full) {
    for (int c = 0; c < static_cast<int>(plan.core_tasks.size()); ++c) {
      cores.push_back(c);
    }
  } else {
    cores = plan.dirty_cores;
  }
  const auto tasks_of = [&](int core) -> const std::vector<PeriodicTask>* {
    if (core < 0 || core >= static_cast<int>(plan.core_tasks.size()) ||
        plan.core_tasks[static_cast<std::size_t>(core)].empty()) {
      return nullptr;
    }
    return &plan.core_tasks[static_cast<std::size_t>(core)];
  };
  {
    Tracer::Scope span(tracer, "rt.edf_sim.replay", id);
    for (const int core : cores) {
      if (const auto* tasks = tasks_of(core)) {
        span.count += static_cast<std::int64_t>(SimulateEdf(*tasks, hyperperiod).schedulable);
      }
    }
  }
  {
    Tracer::Scope span(tracer, "rt.admit.replay", id);
    for (const int core : cores) {
      if (const auto* tasks = tasks_of(core)) {
        span.count += static_cast<std::int64_t>(AdmitCore(*tasks, hyperperiod).schedulable);
      }
    }
  }
  std::vector<std::vector<Allocation>> per_cpu;
  for (int c = 0; c < plan.table.num_cpus(); ++c) {
    per_cpu.push_back(plan.table.cpu(c).allocations);
  }
  {
    Tracer::Scope span(tracer, "table.build.replay", id);
    span.count = SchedulingTable::Build(plan.table.length(), std::move(per_cpu)).num_cpus();
  }
  {
    Tracer::Scope span(tracer, "table.validate.replay", id);
    span.count = static_cast<std::int64_t>(plan.table.Validate().empty());
  }
  extras.analytic += plan.admission.analytic();
  extras.admissions += plan.admission.total();
  if (!full) {
    extras.dirty_frac.Add(static_cast<double>(plan.dirty_cores.size()) / kCores);
    return;
  }
  extras.lookup_ns.Add(LookupSweepNs(plan.table, tracer, id));
}

struct Episode {
  double setup_s = 0;
  Samples delta_ms;  // The steps.
  Samples full_ms;
  double measured_s = 0;
};

// Every episode replays the same seeded stream, so episode 0's tables are
// the reference: each is audited by check::VerifyPlan once, and later
// episodes must install byte-identical tables (compared by hash).
using VerifiedTables = std::vector<std::uint64_t>;

// One episode: set up planner + dispatcher, then run the event stream.
Episode RunEpisode(const Options& options, int episode, Tracer& tracer,
                   obs::MetricsRegistry* registry, Extras* extras, VerifiedTables& verified,
                   RunResult& result) {
  Episode out;
  const std::int64_t setup_start = NowNs();
  PlannerConfig config;
  config.num_cpus = kCores;
  config.cores_per_socket = kCoresPerSocket;
  config.num_threads = LoadThreads();
  config.metrics = registry;
  const Planner planner(config);
  Rng rng(options.seed);
  std::vector<VcpuRequest> initial;
  for (VcpuId id = 0; id < kVcpus; ++id) {
    initial.push_back(VcpuRequest{id, kUtilization, GoalOf(id)});
  }
  std::vector<VcpuRequest> live = initial;
  VcpuId next_id = kVcpus;
  // The vCPU that left last; the next arrival brings its goal back, so the
  // host oscillates between 176 and 175 vCPUs with a fixed goal mix.
  std::optional<VcpuRequest> departed_last;
  PlanResult plan = planner.Solve(PlanRequest::Full(std::move(initial)));
  if (!plan.success) {
    result.Fail("plan_churn: initial plan failed: " + plan.error);
    return out;
  }
  TableauDispatcher dispatcher(kCores, TableauDispatcher::Config{});
  TimeNs now = 0;
  auto installed = std::make_shared<const SchedulingTable>(plan.table);
  dispatcher.InstallTable(installed, now);
  out.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;

  Fnv fingerprint;
  for (int event = 1; event <= kEventsPerEpisode; ++event) {
    const bool full = event % kFullReplanEvery == 0;
    // Draw the event (benchmark input, untimed).
    std::vector<VcpuRequest> added;
    std::vector<VcpuId> departed;
    std::size_t departing_index = 0;
    if (!full) {
      if (departed_last) {
        added.push_back(VcpuRequest{next_id, kUtilization, departed_last->latency_goal});
      } else {
        departing_index =
            static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
        departed.push_back(live[departing_index].vcpu);
      }
    }
    const std::uint64_t id = static_cast<std::uint64_t>(episode) * 1'000'000 +
                             static_cast<std::uint64_t>(event);

    const int root = tracer.Begin("churn.event", id);
    const std::int64_t start = NowNs();
    PlanResult next;
    {
      Tracer::Scope span(tracer, full ? "core.solve_full" : "core.solve_delta", id);
      next = full ? planner.Solve(PlanRequest::Full(plan.requests))
                  : planner.Solve(PlanRequest::Delta(plan, added, departed));
      span.count = static_cast<std::int64_t>(next.dirty_cores.size());
    }
    ++result.attempted;
    if (!next.success) {
      tracer.End(root);
      ++result.failed;
      result.Fail("plan_churn: event " + std::to_string(event) + " Solve failed: " + next.error);
      continue;
    }
    std::shared_ptr<const SchedulingTable> table;
    if (full) {
      int span = tracer.Begin("table.serialize", id);
      const std::vector<std::uint8_t> bytes = next.table.Serialize();
      tracer.End(span, static_cast<std::int64_t>(bytes.size()));
      span = tracer.Begin("table.deserialize", id);
      table = std::make_shared<const SchedulingTable>(SchedulingTable::Deserialize(bytes));
      tracer.End(span);
    } else {
      int span = tracer.Begin("table.delta_serialize", id);
      const std::vector<std::uint8_t> delta = SerializeDelta(*installed, next.table);
      tracer.End(span, static_cast<std::int64_t>(delta.size()));
      span = tracer.Begin("table.delta_apply", id);
      table = std::make_shared<const SchedulingTable>(ApplyDelta(*installed, delta));
      tracer.End(span);
    }
    {
      Tracer::Scope span(tracer, "core.install", id);
      now += 3 * installed->length();
      dispatcher.ActiveTable(now);  // Promotes the previous pending switch.
      dispatcher.InstallTable(table, now);
    }
    const double ms = static_cast<double>(NowNs() - start) / 1e6;
    tracer.End(root, static_cast<std::int64_t>(next.dirty_cores.size()));
    out.measured_s += ms / 1e3;
    (full ? out.full_ms : out.delta_ms).Add(ms);

    // Correctness gate (never timed): the table the dispatcher received over
    // the wire is byte-identical to the planner's, and the plan honours
    // every reservation contract.
    const std::vector<std::uint8_t> wire = table->Serialize();
    if (wire != next.table.Serialize()) {
      result.Fail("plan_churn: event " + std::to_string(event) +
                  " installed table differs from the planner's");
    }
    Fnv table_hash;
    table_hash.Bytes(wire.data(), wire.size());
    const auto index = static_cast<std::size_t>(event - 1);
    if (index >= verified.size() || verified[index] != table_hash.hash()) {
      const std::vector<std::string> violations = check::VerifyPlan(next, config);
      if (!violations.empty()) {
        result.Fail("plan_churn: event " + std::to_string(event) +
                    " fails VerifyPlan: " + violations.front());
      }
      verified.resize(std::max(verified.size(), index + 1));
      verified[index] = table_hash.hash();
    }
    fingerprint.Value(table_hash.hash());
    if (extras != nullptr) {
      Replay(next, full, config, tracer, id, *extras);
    }

    plan = std::move(next);
    installed = std::move(table);
    if (!added.empty()) {
      live.push_back(added.front());
      ++next_id;
      departed_last.reset();
    } else if (!departed.empty()) {
      departed_last = live[departing_index];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(departing_index));
    }
  }
  result.fingerprints.push_back(fingerprint.hash());
  return out;
}

}  // namespace

void RunPlanChurn(const Options& options, RunResult& result) {
  Tracer untraced(false);
  Episode base;
  // A traced run spends part of its time untraced, as the overhead baseline.
  const double untraced_seconds = options.trace ? options.seconds * 0.3 : options.seconds;
  int episode = 0;
  VerifiedTables verified;
  RepeatFor(untraced_seconds, 2, [&](int i) {
    const Episode e = RunEpisode(options, episode++, untraced, nullptr, nullptr, verified, result);
    if (!options.trace) {
      result.setup_s.Add(e.setup_s);
    }
    if (i == 0) {
      return 0.0;  // Warm-up: its steps are not measured.
    }
    base.delta_ms.Append(e.delta_ms);
    base.full_ms.Append(e.full_ms);
    result.step_ms.Append(e.delta_ms);
    return e.measured_s;
  }, options.trace ? nullptr : &result.step_ms);
  if (!options.trace) {
    return;
  }

  Tracer tracer(true);
  obs::MetricsRegistry registry;
  Extras extras;
  Episode traced;
  RepeatFor(options.seconds - untraced_seconds, 1, [&](int) {
    const Episode e = RunEpisode(options, episode++, tracer, &registry, &extras, verified, result);
    traced.delta_ms.Append(e.delta_ms);
    return e.measured_s;
  });

  result.Layer("reconfig_ms_p50", base.delta_ms.Quantile(0.5), "ms", base.delta_ms.size());
  result.Layer("reconfig_ms_p99", base.delta_ms.Quantile(0.99), "ms", base.delta_ms.size());
  result.Layer("full_plan_ms_p50", base.full_ms.Quantile(0.5), "ms", base.full_ms.size());
  result.Layer("trace.reconfig_ms_p50", traced.delta_ms.Quantile(0.5), "ms",
               traced.delta_ms.size());
  const double base_p50 = base.delta_ms.Quantile(0.5);
  result.Layer("trace.overhead_frac",
               base_p50 > 0 ? traced.delta_ms.Quantile(0.5) / base_p50 - 1 : 0, "ratio",
               traced.delta_ms.size());

  const Samples solve_full = tracer.DurationsMs("core.solve_full");
  const Samples solve_delta = tracer.DurationsMs("core.solve_delta");
  result.LayerTiming("core.solve_full_ms", solve_full, "ms");
  result.LayerTiming("core.solve_delta_ms", solve_delta, "ms");
  result.LayerTiming("core.install_ms", tracer.DurationsMs("core.install"), "ms");
  double replayed_ms = 0;
  for (const char* name : {"table.validate.replay", "table.build.replay", "rt.edf_sim.replay",
                           "rt.admit.replay", "rt.partition.replay"}) {
    const Samples samples = tracer.DurationsMs(name);
    replayed_ms += samples.Sum();
    result.LayerTiming(std::string(name) + "_ms", samples, "ms");
  }
  const double solve_ms = solve_full.Sum() + solve_delta.Sum();
  result.Layer("core.solve_coverage_frac", solve_ms > 0 ? replayed_ms / solve_ms : 0, "ratio",
               solve_full.size() + solve_delta.size());
  result.Layer("rt.admission_analytic_frac",
               extras.admissions > 0 ? static_cast<double>(extras.analytic) /
                                           static_cast<double>(extras.admissions)
                                     : 0,
               "ratio", static_cast<std::uint64_t>(extras.admissions));
  result.Layer("core.dirty_core_frac",
               extras.dirty_frac.empty() ? 0 : extras.dirty_frac.Sum() / extras.dirty_frac.size(),
               "ratio", extras.dirty_frac.size());
  for (const char* name : {"table.serialize", "table.deserialize", "table.delta_serialize",
                           "table.delta_apply"}) {
    result.LayerTiming(std::string(name) + "_ms", tracer.DurationsMs(name), "ms");
  }
  Samples bytes;
  Samples delta_bytes;
  for (const Tracer::Span& span : tracer.spans()) {
    if (std::string_view(span.name) == "table.serialize") {
      bytes.Add(static_cast<double>(span.count));
    } else if (std::string_view(span.name) == "table.delta_serialize") {
      delta_bytes.Add(static_cast<double>(span.count));
    }
  }
  result.Layer("table.bytes", bytes.Quantile(0.5), "bytes", bytes.size());
  result.Layer("table.delta_bytes", delta_bytes.Quantile(0.5), "bytes", delta_bytes.size());
  result.Layer("table.lookup_ns", extras.lookup_ns.Quantile(0.5), "ns", extras.lookup_ns.size());

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  for (const auto& [name, value] : snapshot.values) {
    if (name.rfind("planner.", 0) != 0 || name.rfind("planner.pool.", 0) == 0) {
      continue;
    }
    if (value.kind == obs::MetricKind::kHistogram) {
      result.Layer(name, static_cast<double>(value.hist.Percentile(0.5)), "ns",
                   value.hist.count);
    } else if (value.kind == obs::MetricKind::kCounter) {
      result.Layer(name, static_cast<double>(value.counter), "count", 1);
    }
  }
  const std::string trace_path = options.out_dir + "/trace_plan_churn.json";
  if (!tracer.WriteJson(trace_path)) {
    result.Fail("cannot write " + trace_path);
  }
}

}  // namespace perfbench
