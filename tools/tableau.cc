// tableau: the command-line front end to this reproduction — the standalone
// analog of the paper's dom0 userspace planner, plus the harnesses around it.
// Run it without arguments for every subcommand and the flags it takes:
//
//   plan / show     plan VMs through Planner::Solve, write and inspect tables
//   obs             a ping scenario with telemetry, SLO verdicts, latency
//                   attribution and a Perfetto trace
//   fleet / adapt   a multi-host cluster; adapt starts from the elastic
//                   adaptive-reservation scenario instead of the static one
//   check           scenario fuzzer, reproducer replay, mutant self-test
//   golden          the engine golden fingerprints (--update rewrites them)
//
// All subcommands share one flag table (kFlags), so each flag is parsed,
// validated and documented in one place; a malformed, out-of-range or unknown
// argument prints usage and exits 2. --check-determinism exits 1 unless
// re-runs match: obs re-runs with metrics and telemetry off; fleet and adapt
// re-run serial, sharded, sharded-parallel and serial again (fingerprints,
// merged metrics and resize counts must agree).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "src/check/mutants.h"
#include "src/check/scenario.h"
#include "src/common/parse.h"
#include "src/core/planner.h"
#include "src/harness/fleet_scenario.h"
#include "src/harness/scenario.h"
#include "src/harness/workloads.h"
#include "src/hypervisor/trace.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace_export.h"
#include "src/workloads/guest.h"
#include "src/workloads/ping.h"
#include "src/workloads/stress.h"

#ifndef TABLEAU_GOLDEN_TEST_PATH
#define TABLEAU_GOLDEN_TEST_PATH "tests/engine_golden_test.cc"
#endif

using namespace tableau;

namespace {

// --- Options and the flag table ---------------------------------------------

// Subcommand bits; each flag lists the subcommands that accept it.
enum : unsigned {
  kPlan = 1u << 0,
  kShow = 1u << 1,
  kObs = 1u << 2,
  kFleet = 1u << 3,
  kAdapt = 1u << 4,
  kCheck = 1u << 5,
  kGolden = 1u << 6,
};
constexpr unsigned kCluster = kFleet | kAdapt;

// Everything a subcommand reads. A flag that several subcommands share
// (--cpus, --seed, --window-ms, ...) sets each of their targets; a
// subcommand reads only its own.
struct Options {
  Options() { planner.num_cpus = 0; }  // plan requires --cpus.

  std::vector<std::string> args;  // Positional arguments.
  // plan
  PlannerConfig planner;
  std::string out;
  // obs
  SchedKind scheduler = SchedKind::kTableau;
  int obs_cpus = 4;
  bool capped = true;
  TimeNs window = 10 * kMillisecond;
  TimeNs slo = 10 * kMillisecond;
  std::string csv;
  std::string trace;
  bool validate = false;
  // obs, fleet, adapt
  FleetScenarioConfig fleet;
  TimeNs duration = kSecond / 2;
  std::string json;
  bool check_determinism = false;
  // check
  std::uint64_t seed = 1;
  std::uint64_t seeds_begin = 0;
  std::uint64_t seeds_end = 0;
  bool shrink = false;
  std::string repro_dir;
  // golden
  bool update = false;
};

// A non-negative count of `unit` that fits TimeNs; at least 1 ns when `positive`.
bool ParseTime(const char* text, TimeNs unit, TimeNs* out, bool positive = false) {
  double value = 0;
  if (!ParseReal(text, /*positive=*/false, &value) || value * unit >= 9.2e18) {
    return false;
  }
  *out = static_cast<TimeNs>(value * unit);
  return !positive || *out > 0;
}

// Switch and text setters for the table below; an empty text is invalid.
bool Set(bool& target, bool value) {
  target = value;
  return true;
}

bool SetText(std::string& target, const char* value) {
  target = value;
  return !target.empty();
}

struct Flag {
  const char* name;     // Without the leading "--".
  const char* metavar;  // nullptr: a switch that takes no value.
  unsigned commands;
  bool (*set)(Options& o, const char* v);  // false: the value is invalid.
};

const Flag kFlags[] = {
    {"cpus", "N", kPlan | kObs | kCluster,
     [](Options& o, const char* v) {
       int cpus = 0;
       const bool ok = ParseInt(v, 1, &cpus);
       o.planner.num_cpus = o.obs_cpus = o.fleet.cpus_per_host = cpus;
       return ok;
     }},
    {"cores-per-socket", "K", kPlan | kCluster,
     [](Options& o, const char* v) {
       const bool ok = ParseInt(v, 0, &o.planner.cores_per_socket);
       o.fleet.cores_per_socket = o.planner.cores_per_socket;
       return ok;
     }},
    {"threads", "T", kPlan | kCluster,
     [](Options& o, const char* v) {
       const bool ok = ParseInt(v, 0, &o.planner.num_threads);
       o.fleet.num_threads = o.planner.num_threads;
       return ok;
     }},
    {"peephole", nullptr, kPlan,
     [](Options& o, const char*) { return Set(o.planner.peephole_pass, true); }},
    {"out", "FILE", kPlan, [](Options& o, const char* v) { return SetText(o.out, v); }},
    {"scheduler", "credit|credit2|rtds|tableau|cfs", kObs,
     [](Options& o, const char* v) {
       const std::optional<SchedKind> kind = SchedKindFromName(v);
       o.scheduler = kind.value_or(o.scheduler);
       return kind.has_value();
     }},
    {"capped", nullptr, kObs, [](Options& o, const char*) { return Set(o.capped, true); }},
    {"uncapped", nullptr, kObs, [](Options& o, const char*) { return Set(o.capped, false); }},
    {"slo-ms", "L", kObs,
     [](Options& o, const char* v) { return ParseTime(v, kMillisecond, &o.slo, true); }},
    {"csv", "FILE", kObs, [](Options& o, const char* v) { return SetText(o.csv, v); }},
    {"trace", "FILE", kObs, [](Options& o, const char* v) { return SetText(o.trace, v); }},
    {"validate", nullptr, kObs, [](Options& o, const char*) { return Set(o.validate, true); }},
    {"window-ms", "W", kObs | kCluster,
     [](Options& o, const char* v) {
       const bool ok = ParseTime(v, kMillisecond, &o.window, true);
       o.fleet.control_period = o.window;
       return ok;
     }},
    {"seconds", "S", kObs | kCluster,
     [](Options& o, const char* v) { return ParseTime(v, kSecond, &o.duration, true); }},
    {"json", "FILE", kObs | kCluster,
     [](Options& o, const char* v) { return SetText(o.json, v); }},
    {"check-determinism", nullptr, kObs | kCluster,
     [](Options& o, const char*) { return Set(o.check_determinism, true); }},
    {"hosts", "N", kCluster,
     [](Options& o, const char* v) { return ParseInt(v, 1, &o.fleet.num_hosts); }},
    {"slots", "N", kCluster,
     [](Options& o, const char* v) { return ParseInt(v, 1, &o.fleet.slots_per_core); }},
    {"vms", "N", kCluster,
     [](Options& o, const char* v) { return ParseInt(v, 0, &o.fleet.num_vms); }},
    {"utilization", "U", kCluster,
     [](Options& o, const char* v) { return ParseReal(v, true, &o.fleet.utilization); }},
    {"rps", "R", kCluster,  // At most 1e9: a request period is at least 1 ns.
     [](Options& o, const char* v) {
       return ParseReal(v, true, &o.fleet.requests_per_sec) && o.fleet.requests_per_sec <= 1e9;
     }},
    {"service-us", "S", kCluster,
     [](Options& o, const char* v) {
       return ParseTime(v, kMicrosecond, &o.fleet.service_ns, true);
     }},
    {"latency-goal-ms", "L", kCluster,
     [](Options& o, const char* v) {
       return ParseTime(v, kMillisecond, &o.fleet.latency_goal);
     }},
    {"arrival-spread-ms", "A", kCluster,
     [](Options& o, const char* v) {
       return ParseTime(v, kMillisecond, &o.fleet.arrival_spread);
     }},
    {"surge-vms", "N", kCluster,
     [](Options& o, const char* v) { return ParseInt(v, 0, &o.fleet.surge_vms); }},
    {"surge-at-ms", "T", kCluster,
     [](Options& o, const char* v) { return ParseTime(v, kMillisecond, &o.fleet.surge_at); }},
    {"surge-until-ms", "T", kCluster,
     [](Options& o, const char* v) {
       return ParseTime(v, kMillisecond, &o.fleet.surge_until);
     }},
    {"surge-factor", "F", kCluster,
     [](Options& o, const char* v) { return ParseReal(v, false, &o.fleet.surge_factor); }},
    {"first-fit", nullptr, kCluster,
     [](Options& o, const char*) {
       o.fleet.placement = fleet::PlacementPolicy::kFirstFit;
       return true;
     }},
    {"shape-period-ms", "P", kCluster,
     [](Options& o, const char* v) {
       return ParseTime(v, kMillisecond, &o.fleet.shape_period);
     }},
    {"shape-min", "F", kCluster,
     [](Options& o, const char* v) { return ParseReal(v, false, &o.fleet.shape_min); }},
    {"shape-max", "F", kCluster,
     [](Options& o, const char* v) { return ParseReal(v, false, &o.fleet.shape_max); }},
    {"headroom", "H", kCluster,
     [](Options& o, const char* v) {
       return ParseReal(v, false, &o.fleet.adapt_policy.headroom) &&
              o.fleet.adapt_policy.headroom >= 1;
     }},
    {"cooldown", "N", kCluster,
     [](Options& o, const char* v) {
       return ParseInt(v, 0, &o.fleet.adapt_policy.cooldown_windows);
     }},
    {"quantize", "Q", kCluster,
     [](Options& o, const char* v) {
       return ParseReal(v, true, &o.fleet.adapt_policy.quantize);
     }},
    {"min-utilization", "U", kCluster,
     [](Options& o, const char* v) {
       return ParseReal(v, true, &o.fleet.adapt_min_utilization);
     }},
    {"max-utilization", "U", kCluster,
     [](Options& o, const char* v) {
       return ParseReal(v, true, &o.fleet.adapt_max_utilization);
     }},
    {"static", nullptr, kCluster,
     [](Options& o, const char*) { return Set(o.fleet.adaptive, false); }},
    {"sharded", nullptr, kCluster,
     [](Options& o, const char*) { return Set(o.fleet.sharded, true); }},
    {"parallel", nullptr, kCluster,
     [](Options& o, const char*) {
       return Set(o.fleet.sharded, true) && Set(o.fleet.parallel, true);
     }},
    {"seed", "N", kCluster | kCheck,
     [](Options& o, const char* v) {
       const bool ok = ParseU64(v, &o.seed);
       o.fleet.seed = o.seed;
       return ok;
     }},
    {"seeds", "A:B", kCheck,
     [](Options& o, const char* v) {
       const char* colon = std::strchr(v, ':');
       return colon != nullptr &&
              ParseU64(std::string(v, colon).c_str(), &o.seeds_begin) &&
              ParseU64(colon + 1, &o.seeds_end) && o.seeds_end > o.seeds_begin;
     }},
    {"shrink", nullptr, kCheck, [](Options& o, const char*) { return Set(o.shrink, true); }},
    {"repro-dir", "DIR", kCheck,
     [](Options& o, const char* v) { return SetText(o.repro_dir, v); }},
    {"update", nullptr, kGolden, [](Options& o, const char*) { return Set(o.update, true); }},
};

// Splits argv into flags (applied through kFlags) and positional arguments.
bool ParseFlags(unsigned command, int argc, char** argv, Options& options) {
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      options.args.push_back(argv[i]);
      continue;
    }
    const Flag* flag = nullptr;
    for (const Flag& candidate : kFlags) {
      if ((candidate.commands & command) != 0 && std::strcmp(argv[i] + 2, candidate.name) == 0) {
        flag = &candidate;
      }
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return false;
    }
    if (flag->metavar != nullptr && i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", argv[i]);
      return false;
    }
    const char* value = flag->metavar != nullptr ? argv[++i] : nullptr;
    if (!flag->set(options, value)) {
      std::fprintf(stderr, "invalid value for %s: '%s'\n", argv[i - 1], value);
      return false;
    }
  }
  return true;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out.write(content.data(), static_cast<std::streamsize>(content.size()))) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
  return true;
}

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// --- plan / show ------------------------------------------------------------

// U:L_ms or U:L_ms:SOCKET, e.g. 0.25:20 or 0.5:10:1.
bool ParseVmSpec(const std::string& spec, VcpuId id, VcpuRequest* out) {
  std::vector<std::string> fields;
  std::istringstream in(spec);
  for (std::string field; std::getline(in, field, ':');) {
    fields.push_back(field);
  }
  double latency_ms = 0;
  out->vcpu = id;
  out->socket_affinity = -1;
  if (fields.size() < 2 || fields.size() > 3 || spec.back() == ':' ||
      !ParseReal(fields[0].c_str(), true, &out->utilization) ||
      !ParseReal(fields[1].c_str(), true, &latency_ms) ||
      (fields.size() == 3 && !ParseInt(fields[2].c_str(), 0, &out->socket_affinity))) {
    return false;
  }
  out->latency_goal = static_cast<TimeNs>(latency_ms * kMillisecond);
  return true;
}

int CmdPlan(Options& options) {
  std::vector<VcpuRequest> requests;
  for (const std::string& spec : options.args) {
    VcpuRequest request;
    if (!ParseVmSpec(spec, static_cast<VcpuId>(requests.size()), &request)) {
      std::fprintf(stderr, "bad VM spec '%s'\n", spec.c_str());
      return 2;
    }
    requests.push_back(request);
  }
  if (options.planner.num_cpus <= 0 || requests.empty()) {
    std::fprintf(stderr, "plan needs --cpus N and at least one VM spec\n");
    return 2;
  }
  const PlanResult plan = Planner(options.planner).Solve(PlanRequest::Full(requests));
  if (!plan.success) {
    std::fprintf(stderr, "planning failed: %s\n", plan.error.c_str());
    return 1;
  }
  std::printf("method: %s; table %s, %zu bytes serialized\n", PlanMethodName(plan.method),
              FormatDuration(plan.table.length()).c_str(), plan.table.SerializedSizeBytes());
  std::printf("%-5s %8s %12s %12s %14s %12s %12s %6s\n", "vcpu", "U", "C", "T",
              "latency bound", "E[wait]", "max wait", "split");
  for (const VcpuPlan& vcpu : plan.vcpus) {
    const LatencyProfile profile = AnalyzeWakeupLatency(plan.table, vcpu.vcpu);
    std::printf("%-5d %7.2f%% %12s %12s %14s %12s %12s %6s\n", vcpu.vcpu,
                100.0 * vcpu.requested_utilization, FormatDuration(vcpu.cost).c_str(),
                FormatDuration(vcpu.period).c_str(),
                FormatDuration(vcpu.blackout_bound).c_str(),
                FormatDuration(profile.mean).c_str(), FormatDuration(profile.max).c_str(),
                vcpu.split ? "yes" : "no");
  }
  if (!options.out.empty()) {
    const std::vector<std::uint8_t> bytes = plan.table.Serialize();
    return WriteFile(options.out, std::string(bytes.begin(), bytes.end())) ? 0 : 1;
  }
  return 0;
}

int CmdShow(Options& options) {
  if (options.args.size() != 1) {
    std::fprintf(stderr, "show takes one table file\n");
    return 2;
  }
  const std::optional<std::string> text = ReadFile(options.args[0]);
  if (!text.has_value()) {
    return 1;
  }
  const std::vector<std::uint8_t> bytes(text->begin(), text->end());
  const SchedulingTable table = SchedulingTable::Deserialize(bytes);
  const std::string violation = table.Validate();
  std::printf("table: %d pCPUs, length %s, %zu bytes; validation: %s\n", table.num_cpus(),
              FormatDuration(table.length()).c_str(), bytes.size(),
              violation.empty() ? "ok" : violation.c_str());
  for (int cpu = 0; cpu < table.num_cpus(); ++cpu) {
    const CpuTable& cpu_table = table.cpu(cpu);
    TimeNs busy = 0;
    for (const Allocation& alloc : cpu_table.allocations) {
      busy += alloc.Length();
    }
    std::printf("  cpu%-2d: %3zu allocations, %4zu slices x %s, %5.1f%% reserved, locals:",
                cpu, cpu_table.allocations.size(), cpu_table.num_slices(),
                FormatDuration(cpu_table.slice_length).c_str(),
                100.0 * static_cast<double>(busy) / static_cast<double>(table.length()));
    for (const VcpuId vcpu : cpu_table.local_vcpus) {
      std::printf(" %d", vcpu);
    }
    std::printf("\n");
  }
  return 0;
}

// --- obs --------------------------------------------------------------------

// One run: the scenario owns the machine; the workloads and the telemetry
// are kept alive alongside it.
struct ObsRun {
  Scenario scenario;
  std::unique_ptr<obs::Telemetry> telemetry;
  std::unique_ptr<WorkQueueGuest> vantage_guest;
  std::unique_ptr<SystemNoiseWorkload> vantage_noise;
  std::unique_ptr<PingTraffic> ping;
  BackgroundWorkloads background;
};

// A Fig. 6-style cell: ping traffic into the vantage VM, system noise on the
// vantage, I/O-intensive stress in every other VM. `observers` switches both
// the machine metrics and the telemetry layer.
ObsRun RunObsScenario(const Options& options, bool observers) {
  ObsRun run;
  ScenarioConfig config;
  config.scheduler = options.scheduler;
  config.capped = options.capped;
  config.guest_cpus = options.obs_cpus;
  config.cores_per_socket = options.obs_cpus >= 2 ? options.obs_cpus / 2 : 1;
  run.scenario = BuildScenario(config);
  run.scenario.machine->metrics().set_enabled(observers);
  run.scenario.machine->trace().set_enabled(true);

  obs::Telemetry::Config telemetry_config;
  telemetry_config.window_ns = options.window;
  telemetry_config.slo.target_latency_ns = options.slo;
  run.telemetry = std::make_unique<obs::Telemetry>(telemetry_config);
  run.telemetry->set_enabled(observers);
  AttachTelemetry(run.scenario, run.telemetry.get());

  run.vantage_guest =
      std::make_unique<WorkQueueGuest>(run.scenario.machine, run.scenario.vantage);
  SystemNoiseWorkload::Config noise_config;
  noise_config.seed = 1;
  run.vantage_noise = std::make_unique<SystemNoiseWorkload>(
      run.scenario.machine, run.vantage_guest.get(), noise_config);
  run.vantage_noise->Start(0);
  AttachBackground(run.scenario, Background::kIo, 1, run.background);

  PingTraffic::Config ping_config;
  ping_config.threads = 4;
  ping_config.pings_per_thread = 1 << 20;  // Bounded by the horizon, not count.
  ping_config.max_spacing = 10 * kMillisecond;
  run.ping = std::make_unique<PingTraffic>(run.scenario.machine, run.vantage_guest.get(),
                                           ping_config);
  run.ping->AttachTelemetry(run.telemetry.get());
  run.ping->Start(0);

  run.scenario.machine->Start();
  run.scenario.machine->RunFor(options.duration);
  return run;
}

void PrintObsSummary(const obs::Telemetry& telemetry) {
  const obs::SloConfig& slo = telemetry.slo().config();
  std::printf("\n--- SLO verdicts (target p%g <= %.3f ms, budget %.2f%%) ---\n",
              slo.target_quantile * 100, ToMs(slo.target_latency_ns), slo.miss_budget * 100);
  std::printf("%-8s %9s %7s %11s %8s %9s %7s %6s\n", "vm", "requests", "misses",
              "attainment", "met", "burnrate", "streak", "burst");
  for (int vm = 0; vm < telemetry.num_vms(); ++vm) {
    const obs::SloVerdict v = telemetry.slo().VerdictFor(vm);
    if (v.requests == 0) {
      continue;
    }
    std::printf("vm%-6d %9llu %7llu %10.4f%% %8s %9.3f %7llu %6s\n", vm,
                static_cast<unsigned long long>(v.requests),
                static_cast<unsigned long long>(v.misses), v.attainment * 100,
                v.slo_met ? "yes" : "NO", v.burn_rate,
                static_cast<unsigned long long>(v.longest_streak),
                v.burst_detected ? "YES" : "no");
  }

  std::printf("\n--- causal latency attribution (mean ms per request) ---\n");
  std::printf("%-8s %9s", "vm", "latency");
  for (int c = 0; c < obs::kNumLatencyComponents; ++c) {
    std::printf(" %11s", obs::LatencyComponentName(static_cast<obs::LatencyComponent>(c)));
  }
  std::printf("\n");
  for (int vm = 0; vm < telemetry.num_vms(); ++vm) {
    const obs::HistogramValue latency = telemetry.RequestLatencyHistogram(vm);
    if (latency.count == 0) {
      continue;
    }
    std::printf("vm%-6d %9.3f", vm, ToMs(static_cast<TimeNs>(latency.Mean())));
    for (int c = 0; c < obs::kNumLatencyComponents; ++c) {
      const obs::HistogramValue h =
          telemetry.AttributionHistogram(vm, static_cast<obs::LatencyComponent>(c));
      std::printf(" %11.4f", ToMs(static_cast<TimeNs>(h.Mean())));
    }
    std::printf("\n");
  }
}

int CmdObs(Options& options) {
  if (!options.args.empty()) {
    std::fprintf(stderr, "obs takes no positional arguments\n");
    return 2;
  }
  const ObsRun run = RunObsScenario(options, /*observers=*/true);
  PrintObsSummary(*run.telemetry);
  if (!options.json.empty() && !WriteFile(options.json, run.telemetry->ToJson() + "\n")) {
    return 1;
  }
  if (!options.csv.empty() && !WriteFile(options.csv, run.telemetry->TimeSeries().ToCsv())) {
    return 1;
  }
  if (!options.trace.empty() || options.validate) {
    obs::PerfettoExportOptions export_options;
    export_options.process_name = std::string("tableau-obs/") + SchedKindName(options.scheduler);
    export_options.include_flows = true;
    for (const Vcpu* vcpu : run.scenario.vcpus) {
      export_options.vcpu_names[vcpu->id()] = vcpu->params().name;
    }
    const std::string trace_json = obs::TraceToPerfettoJson(
        run.scenario.machine->trace(), run.scenario.machine->num_cpus(), export_options);
    if (options.validate) {
      std::string error;
      if (!obs::ValidatePerfettoJson(trace_json, &error)) {
        std::fprintf(stderr, "FAIL: emitted Perfetto JSON invalid: %s\n", error.c_str());
        return 1;
      }
      std::printf("validate: OK (%zu bytes, flow events on)\n", trace_json.size());
    }
    if (!options.trace.empty() && !WriteFile(options.trace, trace_json)) {
      return 1;
    }
  }
  if (options.check_determinism) {
    const std::uint64_t observed = TraceFingerprint(*run.scenario.machine);
    const ObsRun replay = RunObsScenario(options, /*observers=*/false);
    const std::uint64_t unobserved = TraceFingerprint(*replay.scenario.machine);
    if (observed != unobserved) {
      std::fprintf(stderr,
                   "FAIL: trace fingerprint 0x%016llx with metrics and telemetry on "
                   "differs from 0x%016llx with both off\n",
                   static_cast<unsigned long long>(observed),
                   static_cast<unsigned long long>(unobserved));
      return 1;
    }
    std::printf("\ncheck-determinism: OK (fingerprint 0x%016llx, metrics and telemetry "
                "on == off)\n",
                static_cast<unsigned long long>(observed));
  }
  return 0;
}

// --- fleet / adapt ----------------------------------------------------------

// Where `adapt` starts: bench_adaptive's elastic diurnal arm — a fleet whose
// admission cap binds before its slot pool, staggered diurnal demand, and a
// control cadence of at least two table rounds so every resize engages
// before the next tick can supersede it.
FleetScenarioConfig AdaptScenario() {
  FleetScenarioConfig config;
  config.num_hosts = 4;
  config.cpus_per_host = 8;
  config.cores_per_socket = 4;
  config.slots_per_core = 2;
  config.control_period = 210 * kMillisecond;
  config.admission_latency = 210 * kMillisecond;
  config.migrate_burn_threshold = 1e9;
  config.num_vms = 56;
  config.utilization = 0.5;
  config.latency_goal = 40 * kMillisecond;
  config.requests_per_sec = 400;
  config.service_ns = 1000 * kMicrosecond;
  config.shape = fleet::DemandShape::kDiurnal;
  config.shape_period = 8000 * kMillisecond;
  config.shape_min = 0.2;
  config.shape_max = 0.8;
  config.stagger_phases = true;
  config.adaptive = true;
  config.adapt_policy.cooldown_windows = 2;
  config.seed = 1;
  return config;
}

struct ClusterRun {
  std::uint64_t fingerprint = 0;
  std::string metrics_json;
  fleet::Cluster::SloSummary slo;
  std::size_t migrations = 0;
  std::uint64_t resizes = 0;
  double avg_committed = 0;
  adapt::AdaptiveController::Counters totals;  // Summed over hosts.
};

ClusterRun Collect(fleet::Cluster& cluster) {
  ClusterRun run;
  run.fingerprint = cluster.Fingerprint();
  run.metrics_json = cluster.MergedMetrics().ToJson(/*indent=*/2);
  run.slo = cluster.Slo();
  run.migrations = cluster.migrations().size();
  run.resizes = cluster.resizes();
  run.avg_committed = cluster.AvgCommittedFraction();
  for (int h = 0; h < cluster.num_hosts(); ++h) {
    const adapt::AdaptiveController* controller = cluster.host(h).adaptive();
    if (controller == nullptr) {
      continue;
    }
    const adapt::AdaptiveController::Counters& counters = controller->counters();
    run.totals.observations += counters.observations;
    run.totals.no_data += counters.no_data;
    run.totals.saturated += counters.saturated;
    run.totals.cooldown_holds += counters.cooldown_holds;
    run.totals.grows += counters.grows;
    run.totals.shrinks += counters.shrinks;
    run.totals.rejects += counters.rejects;
  }
  return run;
}

ClusterRun Execute(const FleetScenarioConfig& config, TimeNs duration) {
  fleet::Cluster cluster(BuildFleetConfig(config));
  cluster.Start();
  cluster.RunUntil(duration);
  return Collect(cluster);
}

void PrintClusterSummary(const ClusterRun& run, const FleetScenarioConfig& config) {
  std::printf("fleet:   %d hosts, %d VMs admitted, %d rejected, %zu migrations, "
              "avg committed fraction %.4f\n",
              config.num_hosts, run.slo.vms_admitted, run.slo.vms_rejected, run.migrations,
              run.avg_committed);
  std::printf("slo:     %llu requests, %llu misses, attainment %.4f%% (worst VM %.4f%%)\n",
              static_cast<unsigned long long>(run.slo.requests),
              static_cast<unsigned long long>(run.slo.misses), 100.0 * run.slo.attainment,
              100.0 * run.slo.worst_vm_attainment);
  if (config.adaptive) {
    std::printf(
        "control: %llu resizes installed (%llu grows, %llu shrinks, %llu rejects), "
        "%llu observations (%llu no-data, %llu saturated, %llu cooldown holds)\n",
        static_cast<unsigned long long>(run.resizes),
        static_cast<unsigned long long>(run.totals.grows),
        static_cast<unsigned long long>(run.totals.shrinks),
        static_cast<unsigned long long>(run.totals.rejects),
        static_cast<unsigned long long>(run.totals.observations),
        static_cast<unsigned long long>(run.totals.no_data),
        static_cast<unsigned long long>(run.totals.saturated),
        static_cast<unsigned long long>(run.totals.cooldown_holds));
  }
  std::printf("fingerprint: %016llx\n", static_cast<unsigned long long>(run.fingerprint));
}

const char* StatusName(fleet::Cluster::VmState::Status status) {
  switch (status) {
    case fleet::Cluster::VmState::Status::kPending:
      return "pending";
    case fleet::Cluster::VmState::Status::kActive:
      return "active";
    case fleet::Cluster::VmState::Status::kDraining:
      return "draining";
    case fleet::Cluster::VmState::Status::kRejected:
      return "rejected";
  }
  return "?";
}

// Per-host packing and every VM's control-plane state and reservation.
void Describe(fleet::Cluster& cluster, const FleetScenarioConfig& config) {
  for (int h = 0; h < cluster.num_hosts(); ++h) {
    fleet::Host& host = cluster.host(h);
    std::printf("host %-3d %2d pCPUs, %3d/%3d slots free, committed %5.2f cores", h,
                host.config().num_cpus, host.free_slots(), host.num_slots(),
                host.committed());
    if (host.plan().success) {
      std::printf(", table: %s, %zu reservations\n", PlanMethodName(host.plan().method),
                  host.plan().requests.size());
    } else {
      std::printf(", table: empty\n");
    }
  }
  for (int vm = 0; vm < config.num_vms; ++vm) {
    const fleet::Cluster::VmState& state = cluster.vm_state(vm);
    const fleet::VmStream& stream = cluster.stream(vm);
    const adapt::AdaptiveController* controller =
        state.status == fleet::Cluster::VmState::Status::kActive
            ? cluster.host(state.host).adaptive()
            : nullptr;
    const double reservation = controller != nullptr && controller->bound(state.slot)
                                   ? controller->reservation(state.slot)
                                   : config.utilization;
    std::printf("vm %-4d %-8s host %-3d slot %-3d migrations %d  reservation %.5f  "
                "posted %llu completed %llu misses %llu\n",
                vm, StatusName(state.status), state.host, state.slot, state.migrations,
                reservation, static_cast<unsigned long long>(stream.posted()),
                static_cast<unsigned long long>(stream.completed()),
                static_cast<unsigned long long>(stream.misses()));
  }
}

int CheckClusterDeterminism(const FleetScenarioConfig& base, TimeNs duration) {
  struct Mode {
    const char* name;
    bool sharded;
    bool parallel;
  };
  const Mode modes[] = {
      {"serial", false, false},
      {"sharded", true, false},
      {"parallel", true, true},
      {"repeat", false, false},
  };
  std::vector<ClusterRun> runs;
  for (const Mode& mode : modes) {
    FleetScenarioConfig config = base;
    config.sharded = mode.sharded;
    config.parallel = mode.parallel;
    if (mode.parallel && config.num_threads <= 0) {
      config.num_threads = 2;
    }
    runs.push_back(Execute(config, duration));
    std::printf("%-10s fingerprint %016llx  requests %llu  migrations %zu  resizes %llu\n",
                mode.name, static_cast<unsigned long long>(runs.back().fingerprint),
                static_cast<unsigned long long>(runs.back().slo.requests),
                runs.back().migrations, static_cast<unsigned long long>(runs.back().resizes));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    if (runs[i].fingerprint != runs[0].fingerprint ||
        runs[i].metrics_json != runs[0].metrics_json || runs[i].resizes != runs[0].resizes) {
      std::fprintf(stderr, "determinism violation: %s differs from serial\n", modes[i].name);
      return 1;
    }
  }
  std::printf("determinism: ok (fingerprints, merged metrics and resizes identical)\n");
  return 0;
}

// fleet and adapt: one code path, two default scenarios.
int CmdCluster(Options& options) {
  if (options.args.size() != 1 || (options.args[0] != "run" && options.args[0] != "describe")) {
    std::fprintf(stderr, "expected run or describe\n");
    return 2;
  }
  // Limits that span two flags or come from the fixed shard epoch; unlike
  // the planner, a host cannot read 0 cores per socket as one flat socket.
  const FleetScenarioConfig& config = options.fleet;
  if (config.cores_per_socket < 1 || config.control_period % config.epoch_ns != 0 ||
      config.adapt_min_utilization > config.adapt_max_utilization) {
    std::fprintf(stderr,
                 "a cluster needs --cores-per-socket >= 1, --window-ms a multiple of the %s "
                 "epoch and --min-utilization <= --max-utilization\n",
                 FormatDuration(config.epoch_ns).c_str());
    return 2;
  }
  if (options.check_determinism) {
    return CheckClusterDeterminism(options.fleet, options.duration);
  }
  fleet::Cluster cluster(BuildFleetConfig(options.fleet));
  cluster.Start();
  cluster.RunUntil(options.duration);
  const ClusterRun run = Collect(cluster);
  PrintClusterSummary(run, options.fleet);
  if (options.args[0] == "describe") {
    Describe(cluster, options.fleet);
  }
  if (!options.json.empty() && !WriteFile(options.json, run.metrics_json + "\n")) {
    return 1;
  }
  return 0;
}

// --- check ------------------------------------------------------------------

// The family's summary line, then one line per resize and per violation.
template <class Spec>
void PrintReport(const Spec& spec, const check::CheckOutcome& outcome) {
  if constexpr (std::is_same_v<Spec, check::ScenarioSpec>) {
    std::printf("scheduler=%s vcpus=%d duration=%lld ms records=%llu violations=%zu\n",
                SchedKindName(spec.scheduler), spec.TotalVcpus(),
                static_cast<long long>(spec.duration / kMillisecond),
                static_cast<unsigned long long>(outcome.records), outcome.violations.size());
  } else {
    std::printf("adapt: %d resizes, %zu violations\n", outcome.resizes,
                outcome.violations.size());
  }
  for (const std::string& entry : outcome.resize_log) {
    std::printf("  resize %s\n", entry.c_str());
  }
  for (const std::string& violation : outcome.violations) {
    std::printf("  violation: %s\n", violation.c_str());
  }
}

// Runs the seed's spec of one family. A failure is reported (shrunk when
// asked) and its reproducer printed, or written to --repro-dir as
// seed<N><suffix>.txt. Returns 1 on a failure.
template <class Spec>
int FuzzSeed(const Options& options, std::uint64_t seed, const char* suffix) {
  const Spec spec = check::Generate<Spec>(seed);
  const check::CheckOutcome outcome = check::RunCheckedScenario(spec);
  if (outcome.violations.empty()) {
    return 0;
  }
  std::printf("seed %llu%s: %zu violation(s), first: %s\n",
              static_cast<unsigned long long>(seed), suffix, outcome.violations.size(),
              outcome.violations.front().c_str());
  Spec repro = spec;
  if (options.shrink) {
    const check::ShrinkResult<Spec> shrunk =
        check::Shrink(spec, check::CategoryOf(outcome.violations));
    repro = shrunk.spec;
    std::printf("  shrunk to %d vCPU(s) in %d run(s)\n", repro.TotalVcpus(), shrunk.runs);
  }
  if (options.repro_dir.empty()) {
    std::printf("%s", check::Format(repro).c_str());
  } else {
    WriteFile(options.repro_dir + "/seed" + std::to_string(seed) + suffix + ".txt",
              "# " + outcome.violations.front() + "\n" + check::Format(repro));
  }
  return 1;
}

// Every seed draws one spec of each family.
int FuzzCommand(const Options& options) {
  if (!options.repro_dir.empty()) {
    std::error_code ignored;  // WriteFile reports a directory it cannot write to.
    std::filesystem::create_directories(options.repro_dir, ignored);
  }
  int host = 0;
  int adapt = 0;
  for (std::uint64_t seed = options.seeds_begin; seed < options.seeds_end; ++seed) {
    host += FuzzSeed<check::ScenarioSpec>(options, seed, "");
    adapt += FuzzSeed<check::AdaptScenarioSpec>(options, seed, "-adapt");
  }
  std::printf("fuzz: %llu seed(s) x 2 families, %d failing (host %d, adapt %d)\n",
              static_cast<unsigned long long>(options.seeds_end - options.seeds_begin),
              host + adapt, host, adapt);
  return host + adapt == 0 ? 0 : 1;
}

// Replays one reproducer of either family. Returns the violation count, or
// -1 if the file is unreadable or malformed.
int ReplayFile(const std::string& path) {
  const std::optional<std::string> text = ReadFile(path);
  if (!text.has_value()) {
    return -1;
  }
  std::printf("replay %s:\n", path.c_str());
  const std::optional<check::AnySpec> spec = check::Parse(*text);
  if (!spec.has_value()) {
    std::fprintf(stderr, "%s: malformed reproducer\n", path.c_str());
    return -1;
  }
  return std::visit(
      [](const auto& family_spec) {
        const check::CheckOutcome outcome = check::RunCheckedScenario(family_spec);
        PrintReport(family_spec, outcome);
        return static_cast<int>(outcome.violations.size());
      },
      *spec);
}

// Plants each mutant into a Tableau scenario and demands the oracles notice:
// a verification subsystem that can't catch a planted bug proves nothing.
int SelftestCommand() {
  auto spec = check::Generate<check::ScenarioSpec>(1);
  spec.scheduler = SchedKind::kTableau;
  spec.capped = true;
  spec.replan_at = 0;
  spec.planner_failure = 0.0;
  spec.mutant_stride = 7;
  int failures = 0;
  for (check::MutantKind mutant : {check::MutantKind::kWrongVcpu,
                                   check::MutantKind::kOverrunSlice}) {
    spec.mutant = mutant;
    const check::CheckOutcome outcome = check::RunCheckedScenario(spec);
    const bool caught = !outcome.violations.empty();
    std::printf("mutant %s: %s\n", check::MutantKindName(mutant), caught ? "caught" : "MISSED");
    if (caught) {
      std::printf("  first: %s\n", outcome.violations.front().c_str());
    } else {
      ++failures;
    }
  }
  spec.mutant = check::MutantKind::kNone;
  const check::CheckOutcome clean = check::RunCheckedScenario(spec);
  std::printf("no mutant: %zu violation(s) (want 0)\n", clean.violations.size());
  if (!clean.violations.empty()) {
    std::printf("  first: %s\n", clean.violations.front().c_str());
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

int CmdCheck(Options& options) {
  const std::string action = options.args.empty() ? "" : options.args[0];
  const std::size_t operands = options.args.size() - (action.empty() ? 0 : 1);
  if (action == "run" && operands == 0) {
    const auto spec = check::Generate<check::ScenarioSpec>(options.seed);
    std::printf("%s", check::Format(spec).c_str());
    const check::CheckOutcome outcome = check::RunCheckedScenario(spec);
    PrintReport(spec, outcome);
    return outcome.violations.empty() ? 0 : 1;
  }
  if (action == "fuzz" && operands == 0 && options.seeds_end > options.seeds_begin) {
    return FuzzCommand(options);
  }
  if (action == "replay" && operands > 0) {
    int failures = 0;
    for (std::size_t i = 1; i < options.args.size(); ++i) {
      const int violations = ReplayFile(options.args[i]);
      if (violations < 0) {
        return 2;
      }
      failures += violations > 0 ? 1 : 0;
    }
    return failures == 0 ? 0 : 1;
  }
  if (action == "selftest" && operands == 0) {
    return SelftestCommand();
  }
  std::fprintf(stderr, "expected run, fuzz --seeds A:B, replay FILE... or selftest\n");
  return 2;
}

// --- golden -----------------------------------------------------------------

// The engine_golden_test scenario: a CPU hog in the vantage VM plus I/O
// background on a 4-core guest, traced for 300 ms.
std::uint64_t GoldenFingerprint(SchedKind kind, bool capped) {
  ScenarioConfig config;
  config.scheduler = kind;
  config.capped = capped;
  config.guest_cpus = 4;
  config.cores_per_socket = 2;
  Scenario scenario = BuildScenario(config);
  scenario.machine->trace().set_enabled(true);
  scenario.vantage->EnableInstrumentation();
  CpuHogWorkload loop(scenario.machine, scenario.vantage);
  loop.Start(0);
  BackgroundWorkloads background;
  AttachBackground(scenario, Background::kIo, 1, background);
  scenario.machine->Start();
  scenario.machine->RunFor(300 * kMillisecond);
  return TraceFingerprint(*scenario.machine);
}

struct Golden {
  const char* label;   // Human-readable, for the printout.
  const char* anchor;  // Unique call-site text preceding the pinned constant.
  SchedKind kind;
  bool capped;
  std::uint64_t value = 0;
};

std::string HexConstant(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxull", static_cast<unsigned long long>(value));
  return buf;
}

// Replaces the `0x<16 hex>ull` token following `anchor` in `text`. Returns 1
// if the constant changed, 0 if it already matched, -1 if the anchor or a
// well-formed constant was not found.
int RewriteConstant(std::string& text, const std::string& anchor, std::uint64_t value) {
  const std::size_t at = text.find(anchor);
  if (at == std::string::npos) {
    return -1;
  }
  const std::size_t hex = text.find("0x", at + anchor.size());
  constexpr std::size_t kTokenLength = 21;  // "0x" + 16 digits + "ull".
  if (hex == std::string::npos || text.compare(hex + 18, 3, "ull") != 0) {
    return -1;
  }
  const std::string replacement = HexConstant(value);
  if (text.compare(hex, kTokenLength, replacement) == 0) {
    return 0;
  }
  text.replace(hex, kTokenLength, replacement);
  return 1;
}

// Rewrites the pinned constants in engine_golden_test.cc in place: the
// one-command flow for intentionally regenerating the goldens, so nobody
// hand-edits hex constants. The diff still goes through review.
int UpdateGoldenTest(const std::vector<Golden>& goldens) {
  const char* path = TABLEAU_GOLDEN_TEST_PATH;
  std::optional<std::string> text = ReadFile(path);
  if (!text.has_value()) {
    return 1;
  }
  int changed = 0;
  for (const Golden& golden : goldens) {
    const int result = RewriteConstant(*text, golden.anchor, golden.value);
    if (result < 0) {
      std::fprintf(stderr, "anchor not found in %s: %s\n", path, golden.anchor);
      return 1;
    }
    if (result > 0) {
      std::printf("updated  %-16s -> %s\n", golden.label, HexConstant(golden.value).c_str());
      ++changed;
    }
  }
  if (changed == 0) {
    std::printf("%s already up to date\n", path);
    return 0;
  }
  std::ofstream out(path, std::ios::trunc);
  if (!(out << *text)) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::printf("rewrote %d constant(s) in %s — rebuild and rerun engine_golden_test to "
              "confirm\n",
              changed, path);
  return 0;
}

int CmdGolden(Options& options) {
  if (!options.args.empty()) {
    std::fprintf(stderr, "golden takes no positional arguments\n");
    return 2;
  }
  std::vector<Golden> goldens = {
      {"kCredit/capped", "RunOne(SchedKind::kCredit, /*capped=*/true), ", SchedKind::kCredit,
       true},
      {"kRtds/capped", "RunOne(SchedKind::kRtds, /*capped=*/true), ", SchedKind::kRtds, true},
      {"kTableau/capped", "RunOne(SchedKind::kTableau, /*capped=*/true), ",
       SchedKind::kTableau, true},
      {"kCredit/uncapped", "RunOne(SchedKind::kCredit, /*capped=*/false), ",
       SchedKind::kCredit, false},
  };
  for (Golden& golden : goldens) {
    golden.value = GoldenFingerprint(golden.kind, golden.capped);
    std::printf("%-16s %s\n", golden.label, HexConstant(golden.value).c_str());
  }
  return options.update ? UpdateGoldenTest(goldens) : 0;
}

// --- dispatch ---------------------------------------------------------------

struct Command {
  const char* name;
  unsigned bit;
  const char* synopsis;
  int (*run)(Options&);
};

const Command kCommands[] = {
    {"plan", kPlan, "[flags] U:L_ms[:SOCKET]...", CmdPlan},
    {"show", kShow, "FILE", CmdShow},
    {"obs", kObs, "[flags]", CmdObs},
    {"fleet", kFleet, "run|describe [flags]", CmdCluster},
    {"adapt", kAdapt, "run|describe [flags]", CmdCluster},
    {"check", kCheck, "run|fuzz|selftest [flags] | replay FILE...", CmdCheck},
    {"golden", kGolden, "[flags]", CmdGolden},
};

// Prints every subcommand with the flags it accepts, straight from kFlags.
int Usage() {
  std::fprintf(stderr, "usage: tableau <command> ...\n");
  for (const Command& command : kCommands) {
    std::fprintf(stderr, "  tableau %s %s\n", command.name, command.synopsis);
    std::string line = "     ";
    for (const Flag& flag : kFlags) {
      if ((flag.commands & command.bit) == 0) {
        continue;
      }
      std::string item = std::string(" [--") + flag.name;
      item += flag.metavar != nullptr ? std::string(" ") + flag.metavar + "]" : "]";
      if (line.size() + item.size() > 78) {
        std::fprintf(stderr, "%s\n", line.c_str());
        line = "     ";
      }
      line += item;
    }
    if (line.size() > 5) {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (const Command& command : kCommands) {
    if (argc < 2 || std::strcmp(argv[1], command.name) != 0) {
      continue;
    }
    Options options;
    if (command.bit == kAdapt) {
      options.fleet = AdaptScenario();
      options.duration = 10 * kSecond;
    }
    if (!ParseFlags(command.bit, argc - 2, argv + 2, options)) {
      return Usage();
    }
    const int status = command.run(options);
    return status == 2 ? Usage() : status;
  }
  return Usage();
}
