#include <gtest/gtest.h>

#include <cstring>

#include "src/common/rng.h"
#include "src/core/planner.h"
#include "src/table/table_delta.h"

namespace tableau {
namespace {

SchedulingTable Simple(std::vector<std::vector<Allocation>> per_cpu, TimeNs len = 1000) {
  return SchedulingTable::Build(len, std::move(per_cpu));
}

TEST(TableDelta, RoundTripSingleDirtyCore) {
  const SchedulingTable base = Simple({{{0, 0, 500}}, {{1, 0, 300}}});
  const SchedulingTable next = Simple({{{0, 0, 500}}, {{1, 100, 400}, {2, 400, 600}}});
  const auto delta = SerializeDelta(base, next);
  EXPECT_EQ(DeltaDirtyCores(delta), 1);
  const SchedulingTable applied = ApplyDelta(base, delta);
  EXPECT_EQ(applied.Validate(), "");
  for (int cpu = 0; cpu < 2; ++cpu) {
    EXPECT_EQ(applied.cpu(cpu).allocations, next.cpu(cpu).allocations);
    EXPECT_EQ(applied.cpu(cpu).slice_length, next.cpu(cpu).slice_length);
    EXPECT_EQ(applied.cpu(cpu).local_vcpus, next.cpu(cpu).local_vcpus);
  }
}

TEST(TableDelta, IdenticalTablesYieldEmptyDelta) {
  const SchedulingTable base = Simple({{{0, 0, 500}}, {{1, 0, 300}}});
  const auto delta = SerializeDelta(base, base);
  EXPECT_EQ(DeltaDirtyCores(delta), 0);
  const SchedulingTable applied = ApplyDelta(base, delta);
  EXPECT_EQ(applied.cpu(0).allocations, base.cpu(0).allocations);
}

TEST(TableDelta, MuchSmallerThanFullPushForLocalChange) {
  // Paper-scale table; one VM arrives via incremental replanning: the delta
  // must be far smaller than the full serialized table.
  PlannerConfig config;
  config.num_cpus = 12;
  const Planner planner(config);
  std::vector<VcpuRequest> requests;
  for (int i = 0; i < 47; ++i) {
    requests.push_back({i, 0.25, 20 * kMillisecond});
  }
  const PlanResult base = planner.Plan(requests);
  ASSERT_TRUE(base.success);
  const PlanResult next =
      planner.PlanIncremental(base, {{47, 0.25, 20 * kMillisecond}}, {});
  ASSERT_TRUE(next.success);
  ASSERT_EQ(next.dirty_cores.size(), 1u);

  const auto delta = SerializeDelta(base.table, next.table);
  EXPECT_EQ(DeltaDirtyCores(delta), 1);
  EXPECT_LT(delta.size() * 5, next.table.SerializedSizeBytes());
  const SchedulingTable applied = ApplyDelta(base.table, delta);
  for (int cpu = 0; cpu < 12; ++cpu) {
    EXPECT_EQ(applied.cpu(cpu).allocations, next.table.cpu(cpu).allocations);
  }
}

// The pCPU indices a delta encodes, in wire order.
std::vector<int> EncodedCores(const std::vector<std::uint8_t>& delta) {
  const auto read_u32 = [&](std::size_t pos) {
    std::uint32_t value;
    std::memcpy(&value, delta.data() + pos, sizeof(value));
    return value;
  };
  std::size_t pos = 2 * sizeof(std::uint32_t) + sizeof(TimeNs) + sizeof(std::uint32_t);
  const std::uint32_t count = read_u32(pos);
  pos += sizeof(std::uint32_t);
  std::vector<int> cores;
  for (std::uint32_t i = 0; i < count; ++i) {
    cores.push_back(static_cast<int>(read_u32(pos)));
    const std::uint32_t allocations = read_u32(pos + sizeof(std::uint32_t));
    pos += 2 * sizeof(std::uint32_t) + allocations * (sizeof(VcpuId) + 2 * sizeof(TimeNs));
  }
  EXPECT_EQ(pos, delta.size());
  return cores;
}

// A one-core delta Solve shares every other pCPU with its base. Over an
// arrival/departure stream, the delta from the previous plan's table and
// the delta from the table the receiver rebuilt last (as the hypercall path
// chains them) both encode exactly dirty_cores, and applying either
// reproduces the planner's table byte for byte.
TEST(TableDelta, OneCoreSolveEncodesExactlyDirtyCores) {
  PlannerConfig config;
  config.num_cpus = 12;
  const Planner planner(config);
  std::vector<VcpuRequest> requests;
  for (VcpuId id = 0; id < 44; ++id) {
    requests.push_back({id, 0.25, (id % 3 == 0 ? 1 : 20) * kMillisecond});
  }
  PlanResult plan = planner.Plan(requests);
  ASSERT_TRUE(plan.success);
  SchedulingTable installed = SchedulingTable::Deserialize(plan.table.Serialize());
  Rng rng(2024);
  std::vector<VcpuId> live;
  for (const VcpuRequest& request : requests) {
    live.push_back(request.vcpu);
  }
  VcpuId next_id = 44;
  for (int step = 0; step < 40; ++step) {
    std::vector<VcpuRequest> added;
    std::vector<VcpuId> departed;
    if (step % 2 == 0) {
      const auto index = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      departed.push_back(live[index]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
    } else {
      added.push_back({next_id, 0.25, (next_id % 3 == 0 ? 1 : 20) * kMillisecond});
      live.push_back(next_id++);
    }
    PlanResult next = planner.Solve(PlanRequest::Delta(plan, added, departed));
    ASSERT_TRUE(next.success) << "step " << step;
    ASSERT_EQ(next.dirty_cores.size(), 1u) << "step " << step;
    for (int c = 0; c < config.num_cpus; ++c) {
      EXPECT_EQ(next.table.SharesCpu(plan.table, c), c != next.dirty_cores.front())
          << "step " << step << " cpu " << c;
    }
    const std::vector<std::uint8_t> wire = next.table.Serialize();
    for (const SchedulingTable* base : {&plan.table, &installed}) {
      const std::vector<std::uint8_t> delta = SerializeDelta(*base, next.table);
      EXPECT_EQ(EncodedCores(delta), next.dirty_cores) << "step " << step;
      EXPECT_EQ(ApplyDelta(*base, delta).Serialize(), wire) << "step " << step;
    }
    installed = ApplyDelta(installed, SerializeDelta(installed, next.table));
    plan = std::move(next);
  }
}

// Draws a random table with the given geometry: each core gets a random
// number of non-overlapping, sorted allocations with random vcpus and gaps.
SchedulingTable FuzzTable(Rng& rng, int num_cpus, TimeNs length) {
  std::vector<std::vector<Allocation>> per_cpu(num_cpus);
  for (int cpu = 0; cpu < num_cpus; ++cpu) {
    TimeNs cursor = 0;
    while (cursor < length) {
      cursor += rng.UniformInt(0, length / 4);  // Maybe leave a gap.
      const TimeNs start = cursor;
      const TimeNs end = std::min<TimeNs>(length, start + rng.UniformInt(1, length / 3));
      if (start >= end) {
        break;
      }
      // Disjoint vcpu namespace per core keeps Validate()'s cross-core
      // exclusion check satisfiable for arbitrary random draws.
      per_cpu[cpu].push_back(
          {cpu * 16 + static_cast<int>(rng.UniformInt(0, 15)), start, end});
      cursor = end;
    }
  }
  return SchedulingTable::Build(length, std::move(per_cpu));
}

// Property: for fuzzed same-geometry pairs (base, next), applying
// SerializeDelta(base, next) to base reconstructs next byte-for-byte — the
// applied table's serialization is identical to next's, and the dirty-core
// count matches the number of cores whose allocation lists differ.
TEST(TableDelta, FuzzedPairsRoundTripByteIdentical) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    const int num_cpus = static_cast<int>(rng.UniformInt(1, 8));
    const TimeNs length = rng.UniformInt(100, 100000);
    const SchedulingTable base = FuzzTable(rng, num_cpus, length);
    const SchedulingTable next = FuzzTable(rng, num_cpus, length);

    int expect_dirty = 0;
    for (int cpu = 0; cpu < num_cpus; ++cpu) {
      if (base.cpu(cpu).allocations != next.cpu(cpu).allocations) {
        ++expect_dirty;
      }
    }

    const auto delta = SerializeDelta(base, next);
    EXPECT_EQ(DeltaDirtyCores(delta), expect_dirty) << "seed " << seed;
    const SchedulingTable applied = ApplyDelta(base, delta);
    EXPECT_EQ(applied.Validate(), "") << "seed " << seed;
    EXPECT_EQ(applied.Serialize(), next.Serialize()) << "seed " << seed;
  }
}

// Property: a delta applied to the table it was derived from is idempotent in
// serialization terms even when base == next (the degenerate pair).
TEST(TableDelta, FuzzedSelfDeltaIsEmptyAndByteStable) {
  for (std::uint64_t seed = 1000; seed < 1100; ++seed) {
    Rng rng(seed);
    const int num_cpus = static_cast<int>(rng.UniformInt(1, 6));
    const SchedulingTable base = FuzzTable(rng, num_cpus, rng.UniformInt(100, 50000));
    const auto delta = SerializeDelta(base, base);
    EXPECT_EQ(DeltaDirtyCores(delta), 0) << "seed " << seed;
    const SchedulingTable applied = ApplyDelta(base, delta);
    EXPECT_EQ(applied.Serialize(), base.Serialize()) << "seed " << seed;
  }
}

TEST(TableDeltaDeathTest, RejectsGeometryMismatch) {
  const SchedulingTable base = Simple({{{0, 0, 500}}});
  const SchedulingTable other = Simple({{{0, 0, 500}}, {{1, 0, 300}}});
  EXPECT_DEATH(SerializeDelta(base, other), "identical table geometry");
  const SchedulingTable next = Simple({{{0, 0, 400}}});
  const auto delta = SerializeDelta(base, next);
  EXPECT_DEATH(ApplyDelta(other, delta), "geometry");
}

TEST(TableDeltaDeathTest, RejectsCorruptMagic) {
  const SchedulingTable base = Simple({{{0, 0, 500}}});
  auto delta = SerializeDelta(base, base);
  delta[0] ^= 0xff;
  EXPECT_DEATH(ApplyDelta(base, delta), "bad delta magic");
}

}  // namespace
}  // namespace tableau
