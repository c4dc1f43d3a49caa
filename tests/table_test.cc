#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "src/common/rng.h"
#include "src/rt/edf_sim.h"
#include "src/rt/hyperperiod.h"
#include "src/table/scheduling_table.h"

namespace tableau {
namespace {

SchedulingTable SimpleTable() {
  // CPU 0: [0,100) -> 0, [100,250) -> 1, idle [250,300), [300,400) -> 0.
  // CPU 1: [50,150) -> 2.
  std::vector<std::vector<Allocation>> per_cpu(2);
  per_cpu[0] = {{0, 0, 100}, {1, 100, 250}, {0, 300, 400}};
  per_cpu[1] = {{2, 50, 150}};
  return SchedulingTable::Build(400, std::move(per_cpu));
}

TEST(SchedulingTable, BuildSortsAndValidates) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{1, 100, 250}, {0, 0, 100}};  // Unsorted input.
  const SchedulingTable table = SchedulingTable::Build(400, std::move(per_cpu));
  EXPECT_EQ(table.Validate(), "");
  EXPECT_EQ(table.cpu(0).allocations[0].vcpu, 0);
  EXPECT_EQ(table.cpu(0).allocations[1].vcpu, 1);
}

TEST(SchedulingTable, LookupInsideAllocation) {
  const SchedulingTable table = SimpleTable();
  const LookupResult result = table.Lookup(0, 50);
  EXPECT_EQ(result.vcpu, 0);
  EXPECT_EQ(result.interval_end, 100);
}

TEST(SchedulingTable, LookupAtAllocationBoundary) {
  const SchedulingTable table = SimpleTable();
  const LookupResult result = table.Lookup(0, 100);
  EXPECT_EQ(result.vcpu, 1);
  EXPECT_EQ(result.interval_end, 250);
}

TEST(SchedulingTable, LookupInIdleGap) {
  const SchedulingTable table = SimpleTable();
  const LookupResult result = table.Lookup(0, 260);
  EXPECT_EQ(result.vcpu, kIdleVcpu);
  EXPECT_EQ(result.interval_end, 300);
}

TEST(SchedulingTable, LookupIdleBeforeFirstAllocation) {
  const SchedulingTable table = SimpleTable();
  const LookupResult result = table.Lookup(1, 10);
  EXPECT_EQ(result.vcpu, kIdleVcpu);
  EXPECT_EQ(result.interval_end, 50);
}

TEST(SchedulingTable, LookupIdleTail) {
  const SchedulingTable table = SimpleTable();
  const LookupResult result = table.Lookup(1, 200);
  EXPECT_EQ(result.vcpu, kIdleVcpu);
  EXPECT_EQ(result.interval_end, 400);
}

TEST(SchedulingTable, EmptyCpuIsAllIdle) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  const SchedulingTable table = SchedulingTable::Build(1000, std::move(per_cpu));
  const LookupResult result = table.Lookup(0, 123);
  EXPECT_EQ(result.vcpu, kIdleVcpu);
  EXPECT_EQ(result.interval_end, 1000);
}

TEST(SchedulingTable, SliceLengthIsShortestAllocationRoundedToPow2) {
  const SchedulingTable table = SimpleTable();
  // Shortest allocation is 100 on both CPUs; slices round down to 64 so the
  // lookup indexes with a shift.
  EXPECT_EQ(table.cpu(0).slice_length, 64);
  EXPECT_EQ(table.cpu(0).slice_shift, 6);
  EXPECT_EQ(table.cpu(1).slice_length, 64);
}

TEST(SchedulingTable, ExactSlicesKeepShortestAllocationLength) {
  std::vector<std::vector<Allocation>> per_cpu(2);
  per_cpu[0] = {{0, 0, 100}, {1, 100, 250}, {0, 300, 400}};
  per_cpu[1] = {{2, 50, 150}};
  const SchedulingTable table = SchedulingTable::BuildWithExactSlices(400, std::move(per_cpu));
  EXPECT_EQ(table.Validate(), "");
  EXPECT_EQ(table.cpu(0).slice_length, 100);  // Shortest of 100/150/100.
  EXPECT_EQ(table.cpu(0).slice_shift, -1);    // 100 is not a power of two.
  EXPECT_EQ(table.cpu(1).slice_length, 100);
}

TEST(SchedulingTable, SliceOverlapsAtMostTwoAllocations) {
  // Construct a table with many small allocations and check the invariant
  // structurally via Build's internal TABLEAU_CHECK plus Validate().
  Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Allocation> allocations;
    TimeNs t = 0;
    VcpuId id = 0;
    while (t < 9000) {
      const TimeNs len = rng.UniformInt(50, 400);
      const TimeNs gap = rng.UniformInt(0, 100);
      if (t + gap + len > 10000) {
        break;
      }
      allocations.push_back(Allocation{id++ % 5, t + gap, t + gap + len});
      t += gap + len;
    }
    std::vector<std::vector<Allocation>> per_cpu = {allocations};
    const SchedulingTable table = SchedulingTable::Build(10000, std::move(per_cpu));
    EXPECT_EQ(table.Validate(), "");
  }
}

TEST(SchedulingTable, SliceLookupAgreesWithLinearEverywhere) {
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Allocation> allocations;
    TimeNs t = rng.UniformInt(0, 50);
    VcpuId id = 0;
    while (t < 4500) {
      const TimeNs len = rng.UniformInt(100, 600);
      allocations.push_back(Allocation{id++ % 3, t, std::min<TimeNs>(t + len, 5000)});
      t += len + rng.UniformInt(0, 300);
    }
    std::vector<std::vector<Allocation>> per_cpu = {allocations};
    const SchedulingTable table = SchedulingTable::Build(5000, std::move(per_cpu));
    for (TimeNs offset = 0; offset < 5000; ++offset) {
      const LookupResult fast = table.Lookup(0, offset);
      const LookupResult slow = table.LookupLinear(0, offset);
      ASSERT_EQ(fast.vcpu, slow.vcpu) << "offset " << offset;
      ASSERT_EQ(fast.interval_end, slow.interval_end) << "offset " << offset;
      ASSERT_EQ(fast.next, slow.next) << "offset " << offset;
    }
  }
}

// Property: the sliced lookup agrees with the linear-scan oracle on random
// tables, probed at the hot-path edges — every slice boundary (one ns either
// side), the table wrap (offset length-1, then 0), and inside idle gaps —
// for both the power-of-two (shift) layout and the exact-slice (division)
// layout that deserialized v1 blobs use.
TEST(SchedulingTable, LookupMatchesLinearAtSliceEdgesBothLayouts) {
  Rng rng(21);
  for (int trial = 0; trial < 40; ++trial) {
    const TimeNs length = rng.UniformInt(1000, 20000);
    std::vector<Allocation> allocations;
    TimeNs t = rng.UniformInt(0, 200);
    VcpuId id = 0;
    while (true) {
      const TimeNs len = rng.UniformInt(60, 900);
      if (t + len > length) {
        break;
      }
      allocations.push_back(Allocation{id++ % 6, t, t + len});
      t += len + rng.UniformInt(0, 250);
    }
    for (const bool pow2 : {true, false}) {
      std::vector<std::vector<Allocation>> per_cpu = {allocations};
      const SchedulingTable table =
          pow2 ? SchedulingTable::Build(length, std::move(per_cpu))
               : SchedulingTable::BuildWithExactSlices(length, std::move(per_cpu));
      ASSERT_EQ(table.Validate(), "");
      const TimeNs slice = table.cpu(0).slice_length;
      std::vector<TimeNs> probes = {0, length - 1};
      for (TimeNs edge = slice; edge < length; edge += slice) {
        probes.push_back(edge - 1);
        probes.push_back(edge);
        if (edge + 1 < length) {
          probes.push_back(edge + 1);
        }
      }
      for (int extra = 0; extra < 64; ++extra) {
        probes.push_back(rng.UniformInt(0, length - 1));
      }
      for (const TimeNs offset : probes) {
        const LookupResult fast = table.Lookup(0, offset);
        const LookupResult slow = table.LookupLinear(0, offset);
        ASSERT_EQ(fast.vcpu, slow.vcpu)
            << "offset " << offset << " pow2 " << pow2 << " trial " << trial;
        ASSERT_EQ(fast.interval_end, slow.interval_end)
            << "offset " << offset << " pow2 " << pow2 << " trial " << trial;
        ASSERT_EQ(fast.next, slow.next)
            << "offset " << offset << " pow2 " << pow2 << " trial " << trial;
      }
    }
  }
}

TEST(SchedulingTable, LookupWrapsFromLastNanosecondToZero) {
  // offset == length-1 must report an interval ending exactly at length so
  // the dispatcher's next decision lands on offset 0 of the next cycle.
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 250}, {1, 750, 1000}};
  const SchedulingTable table = SchedulingTable::Build(1000, std::move(per_cpu));
  const LookupResult last = table.Lookup(0, 999);
  EXPECT_EQ(last.vcpu, 1);
  EXPECT_EQ(last.interval_end, 1000);
  EXPECT_EQ(last.next, 2);  // Nothing left in the round.
  const LookupResult wrapped = table.Lookup(0, 0);
  EXPECT_EQ(wrapped.vcpu, 0);
  EXPECT_EQ(wrapped.interval_end, 250);
  EXPECT_EQ(wrapped.next, 1);
  const LookupResult gap = table.Lookup(0, 500);
  EXPECT_EQ(gap.vcpu, kIdleVcpu);
  EXPECT_EQ(gap.interval_end, 750);
  EXPECT_EQ(gap.next, 1);  // The walk resumes at the allocation ending the gap.
}

TEST(SchedulingTable, SingleSliceTableBothLayouts) {
  // One allocation spanning the whole table -> a single slice (the slice
  // length equals the table length), for both layouts.
  for (const bool pow2 : {true, false}) {
    std::vector<std::vector<Allocation>> per_cpu(1);
    per_cpu[0] = {{3, 0, 1024}};  // 1024 is a power of two: 1 slice either way.
    const SchedulingTable table =
        pow2 ? SchedulingTable::Build(1024, std::move(per_cpu))
             : SchedulingTable::BuildWithExactSlices(1024, std::move(per_cpu));
    ASSERT_EQ(table.Validate(), "");
    EXPECT_EQ(table.cpu(0).num_slices(), 1u);
    for (const TimeNs offset : {TimeNs{0}, TimeNs{512}, TimeNs{1023}}) {
      const LookupResult fast = table.Lookup(0, offset);
      const LookupResult slow = table.LookupLinear(0, offset);
      EXPECT_EQ(fast.vcpu, slow.vcpu);
      EXPECT_EQ(fast.interval_end, slow.interval_end);
    }
  }
  // Non-pow2 single-slice: allocation covers [0, 900) of a 900-long table.
  std::vector<std::vector<Allocation>> odd(1);
  odd[0] = {{1, 0, 900}};
  const SchedulingTable table = SchedulingTable::BuildWithExactSlices(900, std::move(odd));
  ASSERT_EQ(table.Validate(), "");
  EXPECT_EQ(table.cpu(0).num_slices(), 1u);
  EXPECT_EQ(table.cpu(0).slice_shift, -1);
  EXPECT_EQ(table.Lookup(0, 899).vcpu, 1);
  EXPECT_EQ(table.Lookup(0, 899).interval_end, 900);
}

TEST(SchedulingTable, CpusOf) {
  const SchedulingTable table = SimpleTable();
  EXPECT_EQ(table.CpusOf(0), (std::vector<int>{0}));
  EXPECT_EQ(table.CpusOf(2), (std::vector<int>{1}));
  EXPECT_TRUE(table.CpusOf(99).empty());
}

TEST(SchedulingTable, TotalService) {
  const SchedulingTable table = SimpleTable();
  EXPECT_EQ(table.TotalService(0), 200);
  EXPECT_EQ(table.TotalService(1), 150);
  EXPECT_EQ(table.TotalService(2), 100);
  EXPECT_EQ(table.TotalService(99), 0);
}

TEST(SchedulingTable, MaxBlackoutSimple) {
  const SchedulingTable table = SimpleTable();
  // vCPU 0: service [0,100) and [300,400); gap 200 inside, wrap gap 0.
  EXPECT_EQ(table.MaxBlackout(0), 200);
  // vCPU 1: [100,250): wrap gap = 150 + 100 = 250.
  EXPECT_EQ(table.MaxBlackout(1), 250);
  // Unknown vCPU: never served.
  EXPECT_EQ(table.MaxBlackout(99), 400);
}

TEST(SchedulingTable, MaxBlackoutAcrossCpus) {
  // A split vCPU served on two CPUs back to back has no blackout between.
  std::vector<std::vector<Allocation>> per_cpu(2);
  per_cpu[0] = {{0, 0, 100}};
  per_cpu[1] = {{0, 100, 200}};
  const SchedulingTable table = SchedulingTable::Build(400, std::move(per_cpu));
  EXPECT_EQ(table.MaxBlackout(0), 200);  // Only the wrap gap [200, 400+0).
}

TEST(SchedulingTable, ValidateDetectsConcurrentAllocation) {
  std::vector<std::vector<Allocation>> per_cpu(2);
  per_cpu[0] = {{0, 0, 100}};
  per_cpu[1] = {{0, 50, 150}};  // Same vCPU overlapping in time on CPU 1.
  const SchedulingTable table = SchedulingTable::Build(400, std::move(per_cpu));
  EXPECT_NE(table.Validate(), "");
}

// Reference for Validate's slice-floor check: rescans from allocation 0 for
// every slice, O(slices x allocations) but plainly right. Returns Validate's
// message for the first desynced slice, or "" if every floor is right.
std::string QuadraticSliceFloorCheck(const SchedulingTable& table) {
  for (int c = 0; c < table.num_cpus(); ++c) {
    const CpuTable& cpu = table.cpu(c);
    for (std::size_t s = 0; s < cpu.slice_floor.size(); ++s) {
      const TimeNs slice_start = static_cast<TimeNs>(s) * cpu.slice_length;
      std::size_t want = 0;
      while (want < cpu.allocations.size() && cpu.allocations[want].end <= slice_start) {
        ++want;
      }
      if (cpu.slice_floor[s] != static_cast<std::int32_t>(want)) {
        return "cpu " + std::to_string(c) + ": slice floor desynced at slice " +
               std::to_string(s);
      }
    }
  }
  return "";
}

// Up to four pCPUs of random allocations (some pCPUs empty, lengths from one
// nanosecond, allocations may end exactly at the table length). vCPU ids are
// per-pCPU, so only the slice floors can make Validate fail.
std::vector<std::vector<Allocation>> RandomPerCpu(Rng& rng, TimeNs length) {
  std::vector<std::vector<Allocation>> per_cpu(static_cast<std::size_t>(rng.UniformInt(1, 4)));
  for (std::size_t c = 0; c < per_cpu.size(); ++c) {
    if (rng.UniformInt(0, 5) == 0) {
      continue;
    }
    const TimeNs min_len = rng.UniformInt(1, 40);
    const TimeNs max_len = min_len + rng.UniformInt(0, 800);
    TimeNs t = rng.UniformInt(0, 100);
    while (t < length) {
      const TimeNs end = std::min(t + rng.UniformInt(min_len, max_len), length);
      per_cpu[c].push_back(
          Allocation{static_cast<VcpuId>(10 * c + rng.UniformInt(0, 4)), t, end});
      t = end + rng.UniformInt(0, 300);
    }
  }
  return per_cpu;
}

// Validate's linear slice-floor check must agree with the quadratic reference
// on fuzzed tables from all three constructors (Build, BuildWithExactSlices,
// and Deserialize of either), and on the same tables with one slice floor
// bumped by +-1 at a seeded slice: both must name the same first bad slice.
TEST(SchedulingTable, ValidateSliceFloorMatchesQuadraticReference) {
  Rng rng(1313);
  for (int trial = 0; trial < 300; ++trial) {
    const TimeNs length = rng.UniformInt(200, 30000);
    const std::vector<std::vector<Allocation>> per_cpu = RandomPerCpu(rng, length);
    const SchedulingTable built = trial % 2 == 0
                                      ? SchedulingTable::Build(length, per_cpu)
                                      : SchedulingTable::BuildWithExactSlices(length, per_cpu);
    SchedulingTable tables[] = {built, SchedulingTable::Deserialize(built.Serialize())};
    for (SchedulingTable& table : tables) {
      ASSERT_EQ(QuadraticSliceFloorCheck(table), "") << "trial " << trial;
      ASSERT_EQ(table.Validate(), "") << "trial " << trial;

      const int c = static_cast<int>(rng.UniformInt(0, table.num_cpus() - 1));
      auto& floors = const_cast<std::vector<std::int32_t>&>(table.cpu(c).slice_floor);
      const auto s = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(floors.size()) - 1));
      const std::int32_t bump = rng.UniformInt(0, 1) == 0 ? -1 : 1;
      floors[s] += bump;
      const std::string expected =
          "cpu " + std::to_string(c) + ": slice floor desynced at slice " + std::to_string(s);
      ASSERT_EQ(QuadraticSliceFloorCheck(table), expected) << "trial " << trial;
      ASSERT_EQ(table.Validate(), expected) << "trial " << trial;
      floors[s] -= bump;
      ASSERT_EQ(table.Validate(), "") << "trial " << trial;
    }
  }
}

// Reference for Validate's cross-core exclusion check: the per-vCPU event
// sweep over a std::map it replaced, run over every vCPU of every pCPU.
// Returns Validate's message for the smallest overlapping vCPU, or "".
std::string MapExclusionCheck(const SchedulingTable& table) {
  struct Event {
    TimeNs time;
    int delta;  // +1 start, -1 end.
  };
  std::map<VcpuId, std::vector<Event>> events;
  for (int c = 0; c < table.num_cpus(); ++c) {
    for (const Allocation& alloc : table.cpu(c).allocations) {
      events[alloc.vcpu].push_back(Event{alloc.start, +1});
      events[alloc.vcpu].push_back(Event{alloc.end, -1});
    }
  }
  for (auto& [vcpu, list] : events) {
    std::sort(list.begin(), list.end(), [](const Event& a, const Event& b) {
      if (a.time != b.time) return a.time < b.time;
      return a.delta < b.delta;  // Process ends before starts at the same instant.
    });
    int depth = 0;
    for (const Event& e : list) {
      depth += e.delta;
      if (depth > 1) {
        return "vcpu " + std::to_string(vcpu) + " allocated on two pCPUs concurrently";
      }
    }
  }
  return "";
}

// One pCPU of random sorted, non-overlapping allocations. vCPUs come from a
// pool shared by all pCPUs (ids 0..pool-1); with `busy` given, a pool vCPU is
// kept only if none of its allocations elsewhere overlaps, and the slot gets
// a pCPU-private id (100 + 10 * c + k) otherwise.
std::vector<Allocation> RandomCore(Rng& rng, TimeNs length, int c, int pool,
                                   std::vector<std::vector<Allocation>>* busy) {
  std::vector<Allocation> core;
  TimeNs t = rng.UniformInt(0, 50);
  while (t < length) {
    const TimeNs end = std::min(t + rng.UniformInt(1, 400), length);
    auto vcpu = static_cast<VcpuId>(rng.UniformInt(0, pool - 1));
    if (busy != nullptr) {
      auto& mine = (*busy)[static_cast<std::size_t>(vcpu)];
      const bool free = std::none_of(mine.begin(), mine.end(), [&](const Allocation& a) {
        return a.start < end && t < a.end;
      });
      if (free) {
        mine.push_back(Allocation{vcpu, t, end});
      } else {
        vcpu = static_cast<VcpuId>(100 + 10 * c + rng.UniformInt(0, 3));
      }
    }
    core.push_back(Allocation{vcpu, t, end});
    t = end + rng.UniformInt(0, 200);
  }
  return core;
}

// Two to six pCPUs whose vCPUs span pCPUs without ever overlapping in time:
// a valid table with real multi-core vCPUs.
std::vector<std::vector<Allocation>> SharedVcpuPerCpu(Rng& rng, TimeNs length) {
  const int pool = static_cast<int>(rng.UniformInt(1, 6));
  std::vector<std::vector<Allocation>> busy(static_cast<std::size_t>(pool));
  std::vector<std::vector<Allocation>> per_cpu(static_cast<std::size_t>(rng.UniformInt(2, 6)));
  for (std::size_t c = 0; c < per_cpu.size(); ++c) {
    per_cpu[c] = RandomCore(rng, length, static_cast<int>(c), pool, &busy);
  }
  return per_cpu;
}

// Relabels one allocation on another pCPU that overlaps a random allocation
// `a` in time with a's vCPU. Returns false if no such pair exists.
bool PlantCrossCoreOverlap(Rng& rng, std::vector<std::vector<Allocation>>& per_cpu) {
  const auto c1 = static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(per_cpu.size()) - 1));
  if (per_cpu[c1].empty()) {
    return false;
  }
  const Allocation a = per_cpu[c1][static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(per_cpu[c1].size()) - 1))];
  for (std::size_t c2 = 0; c2 < per_cpu.size(); ++c2) {
    for (Allocation& b : per_cpu[c2]) {
      if (c2 != c1 && b.start < a.end && a.start < b.end) {
        b.vcpu = a.vcpu;
        return true;
      }
    }
  }
  return false;
}

bool HasMultiCoreVcpu(const SchedulingTable& table) {
  std::map<VcpuId, int> cores;
  for (int c = 0; c < table.num_cpus(); ++c) {
    for (const VcpuId vcpu : table.cpu(c).local_vcpus) {
      if (++cores[vcpu] > 1) {
        return true;
      }
    }
  }
  return false;
}

// Validate's flat sweep over multi-core vCPUs must agree with the map-based
// reference on fuzzed tables whose vCPUs span pCPUs, with and without a
// planted cross-core overlap, built or deserialized.
TEST(SchedulingTable, ValidateExclusionMatchesMapReference) {
  Rng rng(1414);
  int multi_core = 0;
  int planted = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const TimeNs length = rng.UniformInt(500, 20000);
    std::vector<std::vector<Allocation>> per_cpu = SharedVcpuPerCpu(rng, length);
    const bool plant = trial % 2 == 1 && PlantCrossCoreOverlap(rng, per_cpu);
    const SchedulingTable table = SchedulingTable::Build(length, std::move(per_cpu));
    const std::string want = MapExclusionCheck(table);
    ASSERT_EQ(want.empty(), !plant) << "trial " << trial;
    ASSERT_EQ(table.Validate(), want) << "trial " << trial;
    ASSERT_EQ(SchedulingTable::Deserialize(table.Serialize()).Validate(), want)
        << "trial " << trial;
    multi_core += HasMultiCoreVcpu(table) ? 1 : 0;
    planted += plant ? 1 : 0;
  }
  EXPECT_GT(multi_core, 300);
  EXPECT_GT(planted, 150);
}

template <typename T>
void Put(std::vector<std::uint8_t>& out, T value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

// A hand-built v1 wire blob of one 1000-ns pCPU holding vCPU 3 on [0, 500)
// and vCPU 7 on [500, 1000) (slice length 256, four slices), carrying
// `locals` as its local-vCPU list.
std::vector<std::uint8_t> OneCpuBlob(const std::vector<VcpuId>& locals) {
  std::vector<std::uint8_t> out;
  Put<std::uint32_t>(out, 0x53'4c'42'54);  // "TBLS".
  Put<std::uint32_t>(out, 1);              // Version.
  Put<TimeNs>(out, 1000);                  // Table length.
  Put<std::uint32_t>(out, 1);              // pCPUs.
  Put<std::uint32_t>(out, 2);              // Allocations.
  Put<TimeNs>(out, 256);                   // Slice length.
  Put<std::uint32_t>(out, 4);              // Slices.
  Put<std::uint32_t>(out, static_cast<std::uint32_t>(locals.size()));
  for (const Allocation& alloc : {Allocation{3, 0, 500}, Allocation{7, 500, 1000}}) {
    Put(out, alloc.vcpu);
    Put(out, alloc.start);
    Put(out, alloc.end);
  }
  for (const std::int32_t index : {0, -1, 0, 1, 1, -1, 1, -1}) {  // {first, second} per slice.
    Put(out, index);
  }
  for (const VcpuId vcpu : locals) {
    Put(out, vcpu);
  }
  return out;
}

// Deserialize takes the local-vCPU list from the wire and the second-level
// scheduler trusts it, so Validate must reject any list that is not the
// sorted distinct vCPUs of the pCPU's allocations.
TEST(SchedulingTable, ValidateRejectsWrongLocalVcpus) {
  const std::vector<std::uint8_t> good = OneCpuBlob({3, 7});
  EXPECT_EQ(good, SchedulingTable::Build(1000, {{{3, 0, 500}, {7, 500, 1000}}}).Serialize());
  EXPECT_EQ(SchedulingTable::Deserialize(good).Validate(), "");
  const std::vector<std::vector<VcpuId>> wrong = {{}, {3}, {7}, {7, 3}, {3, 3, 7}, {3, 7, 9}, {3, 8}};
  for (const std::vector<VcpuId>& locals : wrong) {
    const SchedulingTable table = SchedulingTable::Deserialize(OneCpuBlob(locals));
    EXPECT_EQ(table.Validate(), "cpu 0: local_vcpus != distinct vCPUs of its allocations")
        << "locals of size " << locals.size();
    EXPECT_EQ(table.ValidateCores({0}), table.Validate());
  }
}

// WithCores shares every pCPU it does not replace and builds the replaced
// ones exactly as Build would.
TEST(SchedulingTable, WithCoresSharesUntouchedCores) {
  Rng rng(1616);
  for (int trial = 0; trial < 100; ++trial) {
    const TimeNs length = rng.UniformInt(500, 20000);
    std::vector<std::vector<Allocation>> per_cpu = SharedVcpuPerCpu(rng, length);
    const SchedulingTable base = SchedulingTable::Build(length, per_cpu);
    const int c = static_cast<int>(rng.UniformInt(0, base.num_cpus() - 1));
    std::vector<Allocation> replacement = RandomCore(rng, length, c, 1000, nullptr);
    per_cpu[static_cast<std::size_t>(c)] = replacement;
    std::reverse(replacement.begin(), replacement.end());  // Unsorted input is sorted.
    const SchedulingTable next = SchedulingTable::WithCores(base, {{c, std::move(replacement)}});
    EXPECT_EQ(next.Serialize(), SchedulingTable::Build(length, per_cpu).Serialize());
    for (int other = 0; other < base.num_cpus(); ++other) {
      EXPECT_EQ(next.SharesCpu(base, other), other != c);
      EXPECT_EQ(&next.cpu(other) == &base.cpu(other), other != c);
    }
  }
}

// The scoped self-check a delta Solve runs must agree with full Validate()
// on tables made from a valid base by replacing k random pCPUs, whether the
// replacements are valid, overlap a carried-over vCPU in time, or carry a
// corrupted slice floor or local-vCPU list.
TEST(SchedulingTable, ValidateCoresMatchesFullValidate) {
  Rng rng(1515);
  int overlapping = 0;  // Mode-1 tables with a cross-core overlap.
  for (int trial = 0; trial < 600; ++trial) {
    const TimeNs length = rng.UniformInt(500, 20000);
    const SchedulingTable base = SchedulingTable::Build(length, SharedVcpuPerCpu(rng, length));
    ASSERT_EQ(base.Validate(), "") << "trial " << trial;
    const int mode = trial % 4;
    std::vector<int> cores;
    for (int c = 0; c < base.num_cpus(); ++c) {
      cores.push_back(c);
    }
    for (std::size_t i = cores.size() - 1; i > 0; --i) {
      std::swap(cores[i], cores[static_cast<std::size_t>(
                              rng.UniformInt(0, static_cast<std::int64_t>(i)))]);
    }
    cores.resize(static_cast<std::size_t>(rng.UniformInt(1, base.num_cpus())));
    std::vector<std::pair<int, std::vector<Allocation>>> replaced;
    for (const int c : cores) {
      if (mode == 1) {
        // Pool vCPUs drawn with no regard for the other pCPUs: often a real
        // cross-core overlap, sometimes not.
        replaced.emplace_back(c, RandomCore(rng, length, c, 6, nullptr));
      } else {
        // Valid: the same pCPU re-drawn with pCPU-private vCPUs.
        std::vector<Allocation> core = RandomCore(rng, length, c, 1, nullptr);
        for (Allocation& alloc : core) {
          alloc.vcpu = static_cast<VcpuId>(1000 + c);
        }
        replaced.emplace_back(c, std::move(core));
      }
    }
    SchedulingTable table = SchedulingTable::WithCores(base, std::move(replaced));
    const int victim = cores[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(cores.size()) - 1))];
    auto& cpu = const_cast<CpuTable&>(table.cpu(victim));
    if (mode == 2) {
      const auto s = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(cpu.slice_floor.size()) - 1));
      cpu.slice_floor[s] += 1;
    } else if (mode == 3) {
      cpu.local_vcpus.push_back(5000);
    }
    const std::string full = table.Validate();
    ASSERT_EQ(table.ValidateCores(cores), full) << "trial " << trial;
    if (mode == 0) {
      ASSERT_EQ(full, "") << "trial " << trial;
    } else if (mode >= 2) {
      ASSERT_NE(full, "") << "trial " << trial;
    } else {
      overlapping += full.empty() ? 0 : 1;
    }
  }
  EXPECT_GT(overlapping, 100);
}

TEST(SchedulingTable, SerializeRoundTrip) {
  const SchedulingTable table = SimpleTable();
  const std::vector<std::uint8_t> bytes = table.Serialize();
  const SchedulingTable copy = SchedulingTable::Deserialize(bytes);
  EXPECT_EQ(copy.length(), table.length());
  EXPECT_EQ(copy.num_cpus(), table.num_cpus());
  for (int c = 0; c < table.num_cpus(); ++c) {
    EXPECT_EQ(copy.cpu(c).allocations, table.cpu(c).allocations);
    EXPECT_EQ(copy.cpu(c).slice_length, table.cpu(c).slice_length);
    EXPECT_EQ(copy.cpu(c).local_vcpus, table.cpu(c).local_vcpus);
  }
  // And lookups behave identically.
  for (TimeNs offset = 0; offset < 400; offset += 7) {
    EXPECT_EQ(copy.Lookup(0, offset).vcpu, table.Lookup(0, offset).vcpu);
  }
}

TEST(SchedulingTable, SerializedSizeGrowsWithAllocations) {
  std::vector<std::vector<Allocation>> small(1);
  small[0] = {{0, 0, 1000}};
  std::vector<std::vector<Allocation>> big(1);
  for (TimeNs t = 0; t < 1000; t += 100) {
    big[0].push_back({static_cast<VcpuId>(t / 100), t, t + 100});
  }
  const auto small_size = SchedulingTable::Build(1000, std::move(small)).SerializedSizeBytes();
  const auto big_size = SchedulingTable::Build(1000, std::move(big)).SerializedSizeBytes();
  EXPECT_GT(big_size, small_size);
}

// SerializedSizeBytes is closed-form, and Serialize fills a buffer of that
// size: both must agree on tables from every constructor.
TEST(SchedulingTable, SerializedSizeMatchesSerializeOnFuzzedTables) {
  Rng rng(1717);
  for (int trial = 0; trial < 200; ++trial) {
    const TimeNs length = rng.UniformInt(200, 30000);
    const std::vector<std::vector<Allocation>> per_cpu = RandomPerCpu(rng, length);
    const SchedulingTable built = trial % 2 == 0
                                      ? SchedulingTable::Build(length, per_cpu)
                                      : SchedulingTable::BuildWithExactSlices(length, per_cpu);
    for (const SchedulingTable& table : {built, SchedulingTable::Deserialize(built.Serialize())}) {
      ASSERT_EQ(table.SerializedSizeBytes(), table.Serialize().size()) << "trial " << trial;
    }
  }
}

TEST(SchedulingTable, LocalVcpusDerived) {
  const SchedulingTable table = SimpleTable();
  EXPECT_EQ(table.cpu(0).local_vcpus, (std::vector<VcpuId>{0, 1}));
  EXPECT_EQ(table.cpu(1).local_vcpus, (std::vector<VcpuId>{2}));
}

TEST(SchedulingTable, LookupAtLastNanosecond) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 1000}};  // Allocation covers the whole table.
  const SchedulingTable table = SchedulingTable::Build(1000, std::move(per_cpu));
  const LookupResult result = table.Lookup(0, 999);
  EXPECT_EQ(result.vcpu, 0);
  EXPECT_EQ(result.interval_end, 1000);
}

TEST(SchedulingTable, AllocationEndingExactlyAtLength) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 400}, {1, 600, 1000}};
  const SchedulingTable table = SchedulingTable::Build(1000, std::move(per_cpu));
  EXPECT_EQ(table.Validate(), "");
  EXPECT_EQ(table.Lookup(0, 999).vcpu, 1);
  EXPECT_EQ(table.Lookup(0, 500).vcpu, kIdleVcpu);
  EXPECT_EQ(table.Lookup(0, 500).interval_end, 600);
}

TEST(SchedulingTable, SliceCountNeverExceedsCeil) {
  // Slice count is ceil(length / slice_length) even when the shortest
  // allocation does not divide the table length.
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 300}, {1, 500, 800}};
  const SchedulingTable table = SchedulingTable::Build(1000, std::move(per_cpu));
  EXPECT_EQ(table.cpu(0).slice_length, 256);  // Pow2 floor of the shortest (300).
  EXPECT_EQ(table.cpu(0).num_slices(), 4u);   // ceil(1000/256).

  std::vector<std::vector<Allocation>> exact(1);
  exact[0] = {{0, 0, 300}, {1, 500, 800}};
  const SchedulingTable old_layout = SchedulingTable::BuildWithExactSlices(1000, std::move(exact));
  EXPECT_EQ(old_layout.cpu(0).slice_length, 300);
  EXPECT_EQ(old_layout.cpu(0).num_slices(), 4u);  // ceil(1000/300).
}

TEST(SchedulingTableDeathTest, BuildRejectsOverlap) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 500}, {1, 400, 800}};
  EXPECT_DEATH(SchedulingTable::Build(1000, std::move(per_cpu)), "bad allocation");
}

TEST(SchedulingTableDeathTest, BuildRejectsOutOfBounds) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 500, 1200}};
  EXPECT_DEATH(SchedulingTable::Build(1000, std::move(per_cpu)), "bad allocation");
}

TEST(SchedulingTableDeathTest, DeserializeRejectsCorruptMagic) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 500}};
  const SchedulingTable table = SchedulingTable::Build(1000, std::move(per_cpu));
  auto bytes = table.Serialize();
  bytes[0] ^= 0xff;
  EXPECT_DEATH(SchedulingTable::Deserialize(bytes), "");
}

TEST(SchedulingTableDeathTest, DeserializeRejectsTruncation) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 500}};
  const SchedulingTable table = SchedulingTable::Build(1000, std::move(per_cpu));
  auto bytes = table.Serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_DEATH(SchedulingTable::Deserialize(bytes), "");
}

// ---------- Coalescing ----------

TEST(Coalesce, MergesContiguousSameVcpu) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 100}, {0, 100, 200}, {1, 200, 300}};
  const auto result = CoalesceAllocations(std::move(per_cpu), 50, nullptr);
  ASSERT_EQ(result[0].size(), 2u);
  EXPECT_EQ(result[0][0], (Allocation{0, 0, 200}));
}

TEST(Coalesce, AbsorbsSubThresholdIntoPredecessor) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 100}, {1, 100, 120}, {2, 120, 220}};  // 20 < threshold 50.
  std::vector<std::pair<VcpuId, TimeNs>> donated;
  const auto result = CoalesceAllocations(std::move(per_cpu), 50, &donated);
  ASSERT_EQ(result[0].size(), 2u);
  EXPECT_EQ(result[0][0], (Allocation{0, 0, 120}));  // Predecessor absorbed the sliver.
  EXPECT_EQ(result[0][1], (Allocation{2, 120, 220}));
  ASSERT_EQ(donated.size(), 1u);
  EXPECT_EQ(donated[0].first, 1);
  EXPECT_EQ(donated[0].second, 20);
}

TEST(Coalesce, SliverIsNotDonatedToASplitVcpuRunningElsewhere) {
  // vCPU 0 runs on both pCPUs; on pCPU 1 it holds [105, 200), so stretching
  // its pCPU 0 piece over the [100, 120) sliver would run it twice at once.
  const std::vector<std::vector<Allocation>> per_cpu = {
      {{0, 0, 100}, {1, 100, 120}, {2, 120, 220}},
      {{0, 105, 200}},
  };
  std::vector<std::pair<VcpuId, TimeNs>> donated;
  const auto result = CoalesceAllocations(per_cpu, 50, &donated);
  ASSERT_EQ(result[0].size(), 2u);
  EXPECT_EQ(result[0][0], (Allocation{0, 0, 100}));  // The sliver stays idle.
  EXPECT_EQ(result[0][1], (Allocation{2, 120, 220}));
  EXPECT_EQ(result[1], per_cpu[1]);
  ASSERT_EQ(donated.size(), 1u);
  EXPECT_EQ(donated[0], (std::pair<VcpuId, TimeNs>{1, 20}));
  // Where the split vCPU's other piece does not overlap the sliver, the
  // sliver is donated as usual.
  std::vector<std::vector<Allocation>> apart = per_cpu;
  apart[1] = {{0, 130, 200}};
  EXPECT_EQ(CoalesceAllocations(apart, 50, nullptr)[0][0], (Allocation{0, 0, 120}));
}

TEST(Coalesce, IsolatedSliverBecomesIdle) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 100}, {1, 150, 170}};  // Isolated 20ns sliver.
  std::vector<std::pair<VcpuId, TimeNs>> donated;
  const auto result = CoalesceAllocations(std::move(per_cpu), 50, &donated);
  ASSERT_EQ(result[0].size(), 1u);
  EXPECT_EQ(donated.size(), 1u);
}

TEST(Coalesce, KeepsEverythingAboveThreshold) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 100}, {1, 100, 200}, {2, 250, 350}};
  std::vector<std::pair<VcpuId, TimeNs>> donated;
  const auto result = CoalesceAllocations(std::move(per_cpu), 50, &donated);
  EXPECT_EQ(result[0].size(), 3u);
  EXPECT_TRUE(donated.empty());
}

TEST(Coalesce, PreservesTotalAllocatedTimeWhenAdjacent) {
  // When all slivers are adjacent to a neighbour, total allocated time is
  // conserved (only ownership changes).
  Rng rng(12);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Allocation> allocations;
    TimeNs t = 0;
    VcpuId id = 0;
    while (t < 9000) {
      const TimeNs len = rng.UniformInt(10, 300);
      allocations.push_back(Allocation{id++ % 4, t, t + len});
      t += len;
    }
    TimeNs total_before = 0;
    for (const Allocation& alloc : allocations) {
      total_before += alloc.Length();
    }
    std::vector<std::vector<Allocation>> per_cpu = {allocations};
    const auto result = CoalesceAllocations(std::move(per_cpu), 50, nullptr);
    TimeNs total_after = 0;
    for (const Allocation& alloc : result[0]) {
      total_after += alloc.Length();
    }
    // The first allocation may be an isolated sliver (no predecessor); all
    // other slivers are absorbed. Tolerate one dropped leading sliver.
    EXPECT_GE(total_after, total_before - 50);
  }
}

}  // namespace
}  // namespace tableau
