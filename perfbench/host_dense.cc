// host_dense: one dense host, single-threaded, built by BuildScenario:
// Tableau, uncapped, 12 pCPUs x 4 single-vCPU VMs. VM 0 answers seeded pings
// from 8 client threads (the Fig 6 set-up); VMs 1-3 serve open-loop web
// clients through the net virtual NIC (the Fig 7 model); every other VM runs
// system noise plus I/O stress (the Fig 6 I/O background). The planner runs
// only in set-up, so the event engine, Machine dispatch, the scheduler
// operations and the slice-table Lookup do almost all the work. One step is
// one Machine::RunFor over a fixed simulated chunk.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/perfbench.h"
#include "perfbench/sched_timing.h"
#include "src/harness/scenario.h"
#include "src/obs/telemetry.h"
#include "src/workloads/guest.h"
#include "src/workloads/ping.h"
#include "src/workloads/stress.h"
#include "src/workloads/web.h"

namespace perfbench {
namespace {

using namespace tableau;

constexpr int kWebVms = 3;
constexpr int kPingThreads = 8;
constexpr int kPingsPerThread = 500;       // ~5 simulated seconds of pings.
constexpr TimeNs kPingMaxSpacing = 20 * kMillisecond;
constexpr double kWebRequestsPerSec = 200;  // Per web VM, 1 KiB responses.
constexpr TimeNs kLoadDuration = 5 * kSecond;
constexpr TimeNs kEpisode = 6 * kSecond;   // Load plus a drain margin.
constexpr TimeNs kChunk = 20 * kMillisecond;

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// The host and its tenants. Members are destroyed in reverse order: the
// workloads first, then the machine (inside the scenario), then telemetry,
// which must outlive the machine.
struct DenseHost {
  std::unique_ptr<obs::Telemetry> telemetry;
  Scenario scenario;
  std::unique_ptr<WorkQueueGuest> vantage;
  std::unique_ptr<SystemNoiseWorkload> vantage_noise;
  std::unique_ptr<PingTraffic> ping;
  std::vector<std::unique_ptr<WebServerWorkload>> servers;
  std::vector<std::unique_ptr<OpenLoopClient>> clients;
  std::vector<std::unique_ptr<WorkQueueGuest>> guests;
  std::vector<std::unique_ptr<SystemNoiseWorkload>> noises;
  std::vector<std::unique_ptr<StressIoWorkload>> io;
};

void Build(std::uint64_t seed, bool with_telemetry, DenseHost& host) {
  if (with_telemetry) {
    obs::Telemetry::Config config;
    config.window_ns = 50 * kMillisecond;
    config.window_capacity = 256;
    config.max_vcpu_series = 1;
    config.slo.target_latency_ns = 10 * kMillisecond;
    config.slo.target_quantile = 0.99;
    config.slo.miss_budget = 0.01;
    host.telemetry = std::make_unique<obs::Telemetry>(config);
  }
  host.scenario = BuildScenario(ScenarioConfig{});
  Scenario& scenario = host.scenario;
  Machine* machine = scenario.machine;
  if (host.telemetry) {
    AttachTelemetry(scenario, host.telemetry.get());
  }

  SystemNoiseWorkload::Config noise;
  noise.min_interval = 15 * kMillisecond;
  noise.max_interval = 45 * kMillisecond;
  noise.min_burst = 3 * kMillisecond;
  noise.max_burst = 8 * kMillisecond;
  noise.seed = Mix(seed, 0);
  host.vantage = std::make_unique<WorkQueueGuest>(machine, scenario.vantage);
  host.vantage_noise =
      std::make_unique<SystemNoiseWorkload>(machine, host.vantage.get(), noise);
  host.vantage_noise->Start(0);

  PingTraffic::Config ping;
  ping.threads = kPingThreads;
  ping.pings_per_thread = kPingsPerThread;
  ping.max_spacing = kPingMaxSpacing;
  ping.seed = Mix(seed, 1);
  host.ping = std::make_unique<PingTraffic>(machine, host.vantage.get(), ping);
  if (host.telemetry) {
    host.ping->AttachTelemetry(host.telemetry.get());
  }
  host.ping->Start(0);

  for (int vm = 1; vm <= kWebVms; ++vm) {
    WebServerWorkload::Config web;
    web.file_bytes = 1024;
    host.servers.push_back(std::make_unique<WebServerWorkload>(
        machine, scenario.vcpus[static_cast<std::size_t>(vm)], web));
    OpenLoopClient::Config client;
    client.requests_per_sec = kWebRequestsPerSec;
    client.duration = kLoadDuration;
    host.clients.push_back(
        std::make_unique<OpenLoopClient>(machine, host.servers.back().get(), client));
    // Stagger the clients' constant-rate grids by a seeded phase.
    host.clients.back()->Start(static_cast<TimeNs>(Mix(seed, 100 + vm) % kMillisecond));
  }

  // Fig 6 I/O background: every other VM runs system noise plus I/O stress
  // (the harness's AttachVmNoise mix, with per-VM seeds drawn from the run
  // seed instead of the vCPU index).
  for (std::size_t i = 1 + kWebVms; i < scenario.vcpus.size(); ++i) {
    host.guests.push_back(std::make_unique<WorkQueueGuest>(machine, scenario.vcpus[i]));
    noise.seed = Mix(seed, 1000 + i);
    host.noises.push_back(
        std::make_unique<SystemNoiseWorkload>(machine, host.guests.back().get(), noise));
    host.noises.back()->Start(0);
    StressIoWorkload::Config stress;
    stress.seed = Mix(seed, 2000 + i);
    host.io.push_back(
        std::make_unique<StressIoWorkload>(machine, host.guests.back().get(), stress));
    host.io.back()->Start(0);
  }
  machine->Start();
}

struct Episode {
  double setup_s = 0;
  Samples chunk_ms;
  double run_s = 0;
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;
  Histogram web_latencies;
  double ping_p50_us = 0;
  double ping_p99_us = 0;
  double blackout_mean_us = 0;
  double queue_mean_us = 0;
  double lookup_ns = 0;
};

Episode RunEpisode(const Options& options, bool with_telemetry, Tracer& tracer,
                   SchedTimings* timings, std::uint64_t episode, RunResult& result) {
  Episode out;
  const std::int64_t setup_start = NowNs();
  DenseHost host;
  Build(options.seed, with_telemetry, host);
  out.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;

  Machine* machine = host.scenario.machine;
  const std::uint64_t events_before = machine->sim().events_executed();
  std::uint64_t chunk_index = 0;
  for (TimeNs at = 0; at < kEpisode; at += kChunk, ++chunk_index) {
    const std::uint64_t events_at = machine->sim().events_executed();
    const std::int64_t sched_ns_at = timings != nullptr ? timings->total_ns : 0;
    const int span = tracer.Begin("hypervisor.chunk", episode * 1'000'000 + chunk_index);
    const std::int64_t start = NowNs();
    machine->RunFor(kChunk);
    const std::int64_t elapsed = NowNs() - start;
    tracer.End(span, static_cast<std::int64_t>(machine->sim().events_executed() - events_at),
               timings != nullptr ? timings->total_ns - sched_ns_at : 0);
    out.chunk_ms.Add(static_cast<double>(elapsed) / 1e6);
    out.run_s += static_cast<double>(elapsed) / 1e9;
  }
  out.events = machine->sim().events_executed() - events_before;

  // Correctness gate: every ping and every web request completed.
  const std::uint64_t pings_sent =
      static_cast<std::uint64_t>(kPingThreads) * static_cast<std::uint64_t>(kPingsPerThread);
  const Histogram& pings = host.ping->latencies();
  result.attempted += pings_sent;
  result.failed += pings_sent - std::min<std::uint64_t>(pings.Count(), pings_sent);
  if (pings.Count() != pings_sent || host.ping->outstanding() != 0) {
    result.Fail("host_dense: " + std::to_string(pings.Count()) + " of " +
                std::to_string(pings_sent) + " pings answered");
  }
  for (int i = 0; i < kWebVms; ++i) {
    const WebServerWorkload& server = *host.servers[static_cast<std::size_t>(i)];
    const std::uint64_t sent = host.clients[static_cast<std::size_t>(i)]->sent();
    result.attempted += sent;
    result.failed += sent - std::min(server.completed(), sent);
    if (server.completed() != sent || sent == 0) {
      result.Fail("host_dense: web VM " + std::to_string(i + 1) + " completed " +
                  std::to_string(server.completed()) + " of " + std::to_string(sent));
    }
    out.web_latencies.Merge(server.latencies());
  }

  // Fingerprint of the simulated output: scheduler counters (via the
  // one-host cluster), ping and web latency distributions, dispatch counts.
  Fnv fnv;
  fnv.Value(host.scenario.cluster->Fingerprint());
  fnv.Value(machine->context_switches());
  fnv.Value(machine->schedule_invocations());
  const Histogram* histograms[] = {&pings, &out.web_latencies};
  for (const Histogram* histogram : histograms) {
    fnv.Value(histogram->Count());
    fnv.Value(histogram->Mean());
    fnv.Value(histogram->Max());
    fnv.Value(histogram->Percentile(0.5));
    fnv.Value(histogram->Percentile(0.99));
  }
  out.fingerprint = fnv.hash();
  out.ping_p50_us = static_cast<double>(pings.Percentile(0.5)) / 1e3;
  out.ping_p99_us = static_cast<double>(pings.Percentile(0.99)) / 1e3;
  if (host.telemetry) {
    out.blackout_mean_us =
        host.telemetry->AttributionHistogram(0, obs::LatencyComponent::kBlackout).Mean() / 1e3;
    out.queue_mean_us =
        host.telemetry->AttributionHistogram(0, obs::LatencyComponent::kWakeQueue).Mean() / 1e3;
  }
  if (tracer.enabled()) {
    out.lookup_ns = LookupSweepNs(host.scenario.plan.table, tracer, episode * 1'000'000);
  }
  result.fingerprints.push_back(out.fingerprint);
  return out;
}

double SimSpeed(const Samples& chunk_ms) {
  const double wall_s = chunk_ms.Sum() / 1e3;
  const double sim_s = static_cast<double>(chunk_ms.size()) * static_cast<double>(kChunk) / 1e9;
  return wall_s > 0 ? sim_s / wall_s : 0;
}

}  // namespace

void RunHostDense(const Options& options, RunResult& result) {
  Tracer untraced(false);
  Episode first;
  Samples base_chunks;
  Samples detached_chunks;  // Telemetry detached (traced run only).
  const double untraced_seconds = options.trace ? options.seconds * 0.4 : options.seconds;
  RepeatFor(untraced_seconds, 3, [&](int i) {
    // The traced run alternates telemetry attached / detached in its
    // baseline pass to price the telemetry layer.
    const bool with_telemetry = !options.trace || i % 2 == 0;
    Episode episode =
        RunEpisode(options, with_telemetry, untraced, nullptr, static_cast<std::uint64_t>(i), result);
    if (!options.trace) {
      result.setup_s.Add(episode.setup_s);
    }
    if (i == 0) {
      first = std::move(episode);
      return 0.0;  // Warm-up: its steps are not measured.
    }
    (with_telemetry ? base_chunks : detached_chunks).Append(episode.chunk_ms);
    if (with_telemetry) {
      result.step_ms.Append(episode.chunk_ms);
    }
    return episode.run_s;
  }, options.trace ? nullptr : &result.step_ms);
  if (!options.trace) {
    return;
  }

  Tracer tracer(true);
  SchedTimings timings;
  Samples lookup_ns;
  std::uint64_t events = 0;
  {
    const ScopedSchedulerTiming timing(&timings);
    RepeatFor(options.seconds - untraced_seconds, 1, [&](int i) {
      const Episode episode = RunEpisode(options, /*with_telemetry=*/true, tracer, &timings,
                                         1000 + static_cast<std::uint64_t>(i), result);
      lookup_ns.Add(episode.lookup_ns);
      events = episode.events;
      return episode.run_s;
    });
  }

  const double base_speed = SimSpeed(base_chunks);
  result.Layer("sim_speed", base_speed, "s/s", base_chunks.size());
  result.Layer("ping_p50_us", first.ping_p50_us, "us", kPingThreads * kPingsPerThread);
  result.Layer("ping_p99_us", first.ping_p99_us, "us", kPingThreads * kPingsPerThread);
  result.Layer("web_p99_us", static_cast<double>(first.web_latencies.Percentile(0.99)) / 1e3,
               "us", first.web_latencies.Count());
  result.Layer("ping.blackout_mean_us", first.blackout_mean_us, "us",
               kPingThreads * kPingsPerThread);
  result.Layer("ping.queue_mean_us", first.queue_mean_us, "us", kPingThreads * kPingsPerThread);
  const double detached_speed = SimSpeed(detached_chunks);
  result.Layer("obs.telemetry_overhead_frac",
               base_speed > 0 ? detached_speed / base_speed - 1 : 0, "ratio",
               detached_chunks.size());

  const Samples traced_chunks = tracer.DurationsMs("hypervisor.chunk");
  const double traced_speed = SimSpeed(traced_chunks);
  result.Layer("trace.sim_speed", traced_speed, "s/s", traced_chunks.size());
  result.Layer("trace.overhead_frac", traced_speed > 0 ? base_speed / traced_speed - 1 : 0,
               "ratio", traced_chunks.size());
  result.LayerTiming("hypervisor.chunk_ms", traced_chunks, "ms");
  result.Layer("sim.events", static_cast<double>(events), "count", 1);
  const double base_episodes =
      static_cast<double>(base_chunks.size()) / static_cast<double>(kEpisode / kChunk);
  result.Layer("sim.ns_per_event",
               base_chunks.Sum() * 1e6 / (base_episodes * static_cast<double>(first.events)), "ns",
               base_chunks.size());
  result.Layer("table.lookup_ns", lookup_ns.Quantile(0.5), "ns", lookup_ns.size());
  ReportSchedTimings(timings, result);
  const std::string trace_path = options.out_dir + "/trace_host_dense.json";
  if (!tracer.WriteJson(trace_path)) {
    result.Fail("cannot write " + trace_path);
  }
}

}  // namespace perfbench
