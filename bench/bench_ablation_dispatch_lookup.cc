// Ablation: O(1) slice-table lookup vs. linear allocation scan (Sec. 6,
// "O(1) dispatch"). Uses google-benchmark to measure the real host-CPU cost
// of the two dispatcher lookup paths on planner-generated tables of
// increasing density, plus the planner itself. The dispatcher's own
// LookupSlot (slot cursor over the slice lookup) runs on dispatch-like time
// sequences, next to the stateless slice lookup on the same sequences.
#include <benchmark/benchmark.h>

#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <tuple>
#include <vector>

#include "src/common/math_util.h"
#include "src/common/rng.h"
#include "src/core/dispatcher.h"
#include "src/core/planner.h"
#include "src/rt/hyperperiod.h"

namespace tableau {
namespace {

SchedulingTable MakeTable(int num_vms, TimeNs latency_goal) {
  PlannerConfig config;
  config.num_cpus = 12;
  const Planner planner(config);
  std::vector<VcpuRequest> requests;
  for (int i = 0; i < num_vms; ++i) {
    requests.push_back(VcpuRequest{i, 12.0 / num_vms, latency_goal});
  }
  PlanResult plan = planner.Solve(PlanRequest::Full(requests));
  TABLEAU_CHECK_MSG(plan.success, "%s", plan.error.c_str());
  return std::move(plan.table);
}

void BM_SliceLookup(benchmark::State& state) {
  const SchedulingTable table = MakeTable(static_cast<int>(state.range(0)),
                                          state.range(1) * kMillisecond);
  TimeNs offset = 0;
  int cpu = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Lookup(cpu, offset));
    offset = (offset + 313'373) % table.length();
    cpu = (cpu + 1) % table.num_cpus();
  }
}

void BM_LinearLookup(benchmark::State& state) {
  const SchedulingTable table = MakeTable(static_cast<int>(state.range(0)),
                                          state.range(1) * kMillisecond);
  TimeNs offset = 0;
  int cpu = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.LookupLinear(cpu, offset));
    offset = (offset + 313'373) % table.length();
    cpu = (cpu + 1) % table.num_cpus();
  }
}

// A dispatch-like query stream over `hosts` 12-pCPU planner tables (one
// dispatcher each) sharing one time line, as in a fleet step: every core
// re-decides at its slot ends (the slot-end timer), and after a seeded one
// decision in four a wake-up probes a random core of the same host at a
// random instant before the next slot end anywhere (InOwnSlot), so inside
// the slot that core holds. 64 hosts' tables overflow the cache.
struct DispatchStream {
  struct Query {
    std::int32_t host;
    std::int32_t cpu;
    TimeNs now;
  };
  std::vector<std::shared_ptr<const SchedulingTable>> tables;
  // Per host: a whole number of rounds past the last query. Pass p of the
  // stream runs at now + p * shift, so every pass stays in step with each
  // table and the time line never runs backwards.
  std::vector<TimeNs> shift;
  std::vector<Query> queries;

  TimeNs At(const Query& query, std::int64_t pass) const {
    return query.now + pass * shift[static_cast<std::size_t>(query.host)];
  }
};

const DispatchStream& Stream(int hosts) {
  static std::map<int, DispatchStream> streams;
  DispatchStream& stream = streams[hosts];
  if (!stream.queries.empty()) {
    return stream;
  }
  for (int h = 0; h < hosts; ++h) {
    stream.tables.push_back(std::make_shared<const SchedulingTable>(
        MakeTable(36 + 12 * (h % 3), (h % 2 == 0 ? 1 : 5) * kMillisecond)));
  }
  using Timer = std::tuple<TimeNs, int, int>;  // (slot end, host, cpu)
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers;
  for (int h = 0; h < hosts; ++h) {
    for (int c = 0; c < stream.tables[static_cast<std::size_t>(h)]->num_cpus(); ++c) {
      timers.emplace(0, h, c);
    }
  }
  Rng rng(hosts);
  constexpr std::size_t kQueries = 1 << 18;
  while (stream.queries.size() < kQueries) {
    const auto [now, host, cpu] = timers.top();
    timers.pop();
    stream.queries.push_back({host, cpu, now});
    const SchedulingTable& table = *stream.tables[static_cast<std::size_t>(host)];
    const TimeNs offset = now % table.length();
    timers.emplace(now - offset + table.Lookup(cpu, offset).interval_end, host, cpu);
    if (rng.UniformInt(0, 3) == 0) {
      const auto woken = static_cast<std::int32_t>(rng.UniformInt(0, table.num_cpus() - 1));
      stream.queries.push_back({host, woken, rng.UniformInt(now, std::get<0>(timers.top()))});
    }
  }
  const TimeNs span = stream.queries.back().now + 1;
  for (const auto& table : stream.tables) {
    stream.shift.push_back(RoundUp(span, table->length()));
  }
  return stream;
}

// The stateless lookup the dispatcher made on every decision before the
// slot cursor: now % length, then the slice table.
void BM_SliceLookupOnDispatchStream(benchmark::State& state) {
  const DispatchStream& stream = Stream(static_cast<int>(state.range(0)));
  std::size_t i = 0;
  std::int64_t pass = 0;
  for (auto _ : state) {
    const DispatchStream::Query& query = stream.queries[i];
    const SchedulingTable& table = *stream.tables[static_cast<std::size_t>(query.host)];
    benchmark::DoNotOptimize(table.Lookup(query.cpu, stream.At(query, pass) % table.length()));
    if (++i == stream.queries.size()) {
      i = 0;
      ++pass;
    }
  }
}

// TableauDispatcher::LookupSlot on the same stream: cursor hits, short
// walks, and the slice lookup as the fallback.
void BM_DispatcherLookupSlot(benchmark::State& state) {
  const DispatchStream& stream = Stream(static_cast<int>(state.range(0)));
  std::vector<std::unique_ptr<TableauDispatcher>> dispatchers;
  double table_bytes = 0;
  for (const auto& table : stream.tables) {
    dispatchers.push_back(
        std::make_unique<TableauDispatcher>(table->num_cpus(), TableauDispatcher::Config{}));
    dispatchers.back()->InstallTable(table, 0);
    table_bytes += static_cast<double>(table->SerializedSizeBytes());
  }
  state.counters["table_MiB"] = table_bytes / (1 << 20);
  std::size_t i = 0;
  std::int64_t pass = 0;
  for (auto _ : state) {
    const DispatchStream::Query& query = stream.queries[i];
    benchmark::DoNotOptimize(dispatchers[static_cast<std::size_t>(query.host)]->LookupSlot(
        query.cpu, stream.At(query, pass)));
    if (++i == stream.queries.size()) {
      i = 0;
      ++pass;
    }
  }
}

void BM_PlannerEndToEnd(benchmark::State& state) {
  PlannerConfig config;
  config.num_cpus = 12;
  const Planner planner(config);
  std::vector<VcpuRequest> requests;
  const int num_vms = static_cast<int>(state.range(0));
  for (int i = 0; i < num_vms; ++i) {
    requests.push_back(VcpuRequest{i, 12.0 / num_vms, 20 * kMillisecond});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.Solve(PlanRequest::Full(requests)));
  }
}

// (num_vms, latency goal in ms): denser tables stress the lookup more.
BENCHMARK(BM_SliceLookup)->Args({48, 20})->Args({48, 1})->Args({96, 1});
// Hosts sharing the stream's time line: one table, or a fleet-sized working
// set of 64.
BENCHMARK(BM_SliceLookupOnDispatchStream)->Arg(1)->Arg(64);
BENCHMARK(BM_DispatcherLookupSlot)->Arg(1)->Arg(64);
BENCHMARK(BM_LinearLookup)->Args({48, 20})->Args({48, 1})->Args({96, 1});
BENCHMARK(BM_PlannerEndToEnd)->Arg(16)->Arg(48)->Arg(96);

}  // namespace
}  // namespace tableau

BENCHMARK_MAIN();
