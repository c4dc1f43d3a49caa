#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "src/common/rng.h"
#include "src/core/dispatcher.h"
#include "src/core/planner.h"
#include "src/table/scheduling_table.h"

namespace tableau {
namespace {

std::shared_ptr<const SchedulingTable> MakeTable(
    TimeNs length, std::vector<std::vector<Allocation>> per_cpu) {
  return std::make_shared<SchedulingTable>(
      SchedulingTable::Build(length, std::move(per_cpu)));
}

TableauDispatcher::Config WorkConserving() {
  TableauDispatcher::Config config;
  config.work_conserving = true;
  return config;
}

TEST(Dispatcher, FirstInstallTakesEffectImmediately) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{7, 0, 500}}}), /*now=*/0);
  const auto slot = dispatcher.LookupSlot(0, 100);
  EXPECT_EQ(slot.vcpu, 7);
  EXPECT_EQ(slot.slot_end, 500);
}

TEST(Dispatcher, LookupSlotAbsoluteTimesWrapModuloLength) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{7, 0, 500}}}), 0);
  // Third cycle, offset 100.
  const auto slot = dispatcher.LookupSlot(0, 2100);
  EXPECT_EQ(slot.vcpu, 7);
  EXPECT_EQ(slot.slot_end, 2500);
  // Idle part of the cycle.
  const auto idle = dispatcher.LookupSlot(0, 2600);
  EXPECT_EQ(idle.vcpu, kIdleVcpu);
  EXPECT_EQ(idle.slot_end, 3000);
}

TEST(Dispatcher, TableSwitchIsDeferredToSecondWrap) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 1000}}}), 0);
  // Push a new table mid-cycle at t=300: next_table is timed for the middle
  // of the next round, so the switch lands at the wrap after that (t=2000).
  dispatcher.InstallTable(MakeTable(1000, {{{2, 0, 1000}}}), 300);
  EXPECT_EQ(dispatcher.pending_switch_time(), 2000);
  EXPECT_EQ(dispatcher.LookupSlot(0, 500).vcpu, 1);
  EXPECT_EQ(dispatcher.LookupSlot(0, 1999).vcpu, 1);
  EXPECT_EQ(dispatcher.LookupSlot(0, 2000).vcpu, 2);
  EXPECT_EQ(dispatcher.pending_switch_time(), kTimeNever);
}

TEST(Dispatcher, SlotEndClampedToPendingSwitch) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 1000}}}), 0);
  dispatcher.InstallTable(MakeTable(1000, {{{2, 0, 1000}}}), 1500);
  // Switch at wrap after middle of next round: (1500/1000+2)*1000 = 3000.
  EXPECT_EQ(dispatcher.pending_switch_time(), 3000);
  const auto slot = dispatcher.LookupSlot(0, 2500);
  EXPECT_EQ(slot.vcpu, 1);
  EXPECT_EQ(slot.slot_end, 3000);
}

TEST(Dispatcher, AllCoresSwitchAtTheSameBoundary) {
  TableauDispatcher dispatcher(2, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 1000}}, {{2, 0, 1000}}}), 0);
  dispatcher.InstallTable(MakeTable(1000, {{{3, 0, 1000}}, {{4, 0, 1000}}}), 100);
  // Both cores still see the old table right before the boundary...
  EXPECT_EQ(dispatcher.LookupSlot(0, 1999).vcpu, 1);
  EXPECT_EQ(dispatcher.LookupSlot(1, 1999).vcpu, 2);
  // ...and the new one right at it.
  EXPECT_EQ(dispatcher.LookupSlot(0, 2000).vcpu, 3);
  EXPECT_EQ(dispatcher.LookupSlot(1, 2000).vcpu, 4);
}

// Re-install while a switch is pending: the latest table wins, and the
// promised switch time never moves earlier (cores were already handed
// slot_ends clamped to it).
TEST(Dispatcher, ReinstallDuringPendingSwitchKeepsLaterWrap) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 1000}}}), 0);
  dispatcher.InstallTable(MakeTable(1000, {{{2, 0, 1000}}}), 1500);
  EXPECT_EQ(dispatcher.pending_switch_time(), 3000);
  // Second install observed from a lagging clock: its recomputed wrap (2000)
  // is earlier than the promised 3000 and must not win.
  dispatcher.InstallTable(MakeTable(1000, {{{3, 0, 1000}}}), 900);
  EXPECT_EQ(dispatcher.pending_switch_time(), 3000);
  // The old table stays in effect until the promised boundary...
  EXPECT_EQ(dispatcher.LookupSlot(0, 2999).vcpu, 1);
  // ...and the switch lands on the *latest* installed table, not the dropped
  // intermediate one.
  EXPECT_EQ(dispatcher.LookupSlot(0, 3000).vcpu, 3);
}

TEST(Dispatcher, ReinstallDuringPendingSwitchMovesLaterWhenTimeAdvanced) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 1000}}}), 0);
  dispatcher.InstallTable(MakeTable(1000, {{{2, 0, 1000}}}), 300);
  EXPECT_EQ(dispatcher.pending_switch_time(), 2000);
  // A later re-install whose wrap computes past the promise pushes it out.
  dispatcher.InstallTable(MakeTable(1000, {{{3, 0, 1000}}}), 2100);
  EXPECT_EQ(dispatcher.pending_switch_time(), 4000);
  EXPECT_EQ(dispatcher.LookupSlot(0, 3999).vcpu, 1);
  EXPECT_EQ(dispatcher.LookupSlot(0, 4000).vcpu, 3);
}

TEST(Dispatcher, ReinstallAtSameRoundReplacesTableKeepsTime) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 1000}}}), 0);
  dispatcher.InstallTable(MakeTable(1000, {{{2, 0, 1000}}}), 300);
  dispatcher.InstallTable(MakeTable(1000, {{{3, 0, 1000}}}), 600);
  // Same round, same wrap: promise unchanged, latest table wins.
  EXPECT_EQ(dispatcher.pending_switch_time(), 2000);
  const auto slot = dispatcher.LookupSlot(0, 1500);
  EXPECT_EQ(slot.vcpu, 1);
  EXPECT_EQ(slot.slot_end, 2000);  // Still clamped to the promise.
  EXPECT_EQ(dispatcher.LookupSlot(0, 2000).vcpu, 3);
}

TEST(Dispatcher, WakeupTargetCurrentAllocation) {
  TableauDispatcher dispatcher(2, WorkConserving());
  dispatcher.InstallTable(
      MakeTable(1000, {{{1, 0, 500}}, {{1, 500, 800}, {2, 800, 1000}}}), 0);
  EXPECT_EQ(dispatcher.WakeupTargetCpu(1, 100), 0);   // In cpu0 allocation.
  EXPECT_EQ(dispatcher.WakeupTargetCpu(1, 600), 1);   // In cpu1 allocation.
  EXPECT_EQ(dispatcher.WakeupTargetCpu(2, 900), 1);
  EXPECT_EQ(dispatcher.WakeupTargetCpu(99, 0), -1);   // Unknown vCPU.
}

TEST(Dispatcher, WakeupTargetFallsBackToLastAllocation) {
  TableauDispatcher dispatcher(2, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{1, 100, 200}}, {{2, 0, 50}}}), 0);
  // t=500: vCPU 1 has no current allocation; last one was on cpu 0.
  EXPECT_EQ(dispatcher.WakeupTargetCpu(1, 500), 0);
  // t=60 for vCPU 2: last allocation (cyclically) ended at 50 on cpu 1.
  EXPECT_EQ(dispatcher.WakeupTargetCpu(2, 60), 1);
  // Before vCPU 1's first allocation: wraps to the previous cycle's last.
  EXPECT_EQ(dispatcher.WakeupTargetCpu(1, 50), 0);
}

TEST(Dispatcher, InOwnSlot) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{5, 200, 600}}}), 0);
  EXPECT_FALSE(dispatcher.InOwnSlot(5, 0, 100));
  EXPECT_TRUE(dispatcher.InOwnSlot(5, 0, 300));
  EXPECT_FALSE(dispatcher.InOwnSlot(5, 0, 700));
}

TEST(Dispatcher, IsSplitDetection) {
  TableauDispatcher dispatcher(2, WorkConserving());
  dispatcher.InstallTable(
      MakeTable(1000, {{{1, 0, 500}, {2, 500, 900}}, {{1, 500, 800}}}), 0);
  EXPECT_TRUE(dispatcher.IsSplit(1));
  EXPECT_FALSE(dispatcher.IsSplit(2));
  EXPECT_FALSE(dispatcher.IsSplit(99));
}

TEST(Dispatcher, SecondLevelPicksOnlyEligibleLocals) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 300}, {2, 300, 600}}}), 0);
  // Only vCPU 2 eligible.
  const auto pick = dispatcher.PickSecondLevel(
      0, 700, 1000, [](VcpuId id) { return id == 2; });
  EXPECT_EQ(pick.vcpu, 2);
  EXPECT_GT(pick.until, 700);
  EXPECT_LE(pick.until, 1000);
}

TEST(Dispatcher, SecondLevelIdleWhenNoneEligible) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 300}}}), 0);
  const auto pick =
      dispatcher.PickSecondLevel(0, 700, 1000, [](VcpuId) { return false; });
  EXPECT_EQ(pick.vcpu, kIdleVcpu);
  EXPECT_EQ(pick.until, 1000);
}

TEST(Dispatcher, SecondLevelDisabledWhenNotWorkConserving) {
  TableauDispatcher::Config config;
  config.work_conserving = false;
  TableauDispatcher dispatcher(1, config);
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 300}}}), 0);
  const auto pick =
      dispatcher.PickSecondLevel(0, 700, 1000, [](VcpuId) { return true; });
  EXPECT_EQ(pick.vcpu, kIdleVcpu);
}

TEST(Dispatcher, SecondLevelExcludesSplitVcpus) {
  // Mirrors the paper's prototype: split vCPUs do not take part in
  // second-level scheduling.
  TableauDispatcher dispatcher(2, WorkConserving());
  dispatcher.InstallTable(
      MakeTable(1000, {{{1, 0, 500}, {2, 500, 600}}, {{1, 500, 800}}}), 0);
  const auto pick = dispatcher.PickSecondLevel(
      0, 700, 1000, [](VcpuId) { return true; });
  EXPECT_EQ(pick.vcpu, 2);  // Never split vCPU 1.
}

TEST(Dispatcher, SecondLevelEpochFairShare) {
  // Two eligible locals: budgets replenish to epoch/2 and alternate by
  // highest-remaining-budget as budget is accrued.
  TableauDispatcher::Config config;
  config.work_conserving = true;
  config.second_level_epoch = 10 * kMillisecond;
  TableauDispatcher dispatcher(1, config);
  dispatcher.InstallTable(
      MakeTable(100 * kMillisecond,
                {{{1, 0, kMillisecond}, {2, kMillisecond, 2 * kMillisecond}}}),
      0);
  auto all = [](VcpuId) { return true; };

  const TimeNs now = 50 * kMillisecond;
  const auto first = dispatcher.PickSecondLevel(0, now, 100 * kMillisecond, all);
  ASSERT_NE(first.vcpu, kIdleVcpu);
  // Replenished to 5 ms each; grant capped at remaining budget.
  EXPECT_EQ(first.until, now + 5 * kMillisecond);

  // Burn 5 ms of the first pick's budget: the other vCPU must be next.
  dispatcher.AccrueSecondLevel(0, first.vcpu, 5 * kMillisecond);
  const auto second =
      dispatcher.PickSecondLevel(0, first.until, 100 * kMillisecond, all);
  ASSERT_NE(second.vcpu, kIdleVcpu);
  EXPECT_NE(second.vcpu, first.vcpu);

  // Burn the second budget too: both at zero triggers a fresh replenish.
  dispatcher.AccrueSecondLevel(0, second.vcpu, 5 * kMillisecond);
  const auto third =
      dispatcher.PickSecondLevel(0, second.until, 100 * kMillisecond, all);
  EXPECT_NE(third.vcpu, kIdleVcpu);
}

TEST(Dispatcher, SecondLevelGrantFlooredAtMinGrant) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(100 * kMillisecond, {{{1, 0, kMillisecond}}}), 0);
  auto all = [](VcpuId) { return true; };
  const auto first = dispatcher.PickSecondLevel(0, 0, 100 * kMillisecond, all);
  // Leave 1 ns of budget.
  dispatcher.AccrueSecondLevel(0, first.vcpu, 10 * kMillisecond - 1);
  const auto tiny = dispatcher.PickSecondLevel(0, 5, 100 * kMillisecond, all);
  EXPECT_EQ(tiny.vcpu, first.vcpu);
  EXPECT_GE(tiny.until - 5, kMinGrantNs);
}

TEST(Dispatcher, TrailingCorePolicyForSplitVcpus) {
  // With split_participation enabled, a split vCPU takes part in
  // second-level scheduling only on the core of its most recent allocation.
  TableauDispatcher::Config config;
  config.work_conserving = true;
  config.split_participation = true;
  TableauDispatcher dispatcher(2, config);
  // vCPU 1 split: cpu0 [0,400), cpu1 [500,800).
  dispatcher.InstallTable(
      MakeTable(1000, {{{1, 0, 400}}, {{1, 500, 800}}}), 0);
  ASSERT_TRUE(dispatcher.IsSplit(1));
  // At t=450 the last allocation was on cpu 0.
  EXPECT_TRUE(dispatcher.SecondLevelLocal(1, 0, 450));
  EXPECT_FALSE(dispatcher.SecondLevelLocal(1, 1, 450));
  // At t=900 the last allocation was on cpu 1.
  EXPECT_FALSE(dispatcher.SecondLevelLocal(1, 0, 900));
  EXPECT_TRUE(dispatcher.SecondLevelLocal(1, 1, 900));
  // And it is actually picked on its trailing core.
  const auto pick =
      dispatcher.PickSecondLevel(1, 900, 1000, [](VcpuId) { return true; });
  EXPECT_EQ(pick.vcpu, 1);
}

TEST(Dispatcher, SplitParticipationOffMatchesPrototype) {
  TableauDispatcher dispatcher(2, WorkConserving());
  dispatcher.InstallTable(
      MakeTable(1000, {{{1, 0, 400}}, {{1, 500, 800}}}), 0);
  EXPECT_FALSE(dispatcher.SecondLevelLocal(1, 0, 450));
  EXPECT_FALSE(dispatcher.SecondLevelLocal(1, 1, 900));
  // Non-split vCPUs are always local.
  dispatcher.InstallTable(MakeTable(1000, {{{2, 0, 400}}, {}}), 0);
  EXPECT_TRUE(dispatcher.SecondLevelLocal(2, 0, 450));
}

TEST(Dispatcher, LateSwitchPromotesImmediatelyByDefault) {
  // Default (kTimeNever tolerance): however late the first lookup after the
  // promised boundary arrives, the pending table promotes right away — the
  // pre-degradation behavior the goldens pin down.
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 1000}}}), 0);
  dispatcher.InstallTable(MakeTable(1000, {{{2, 0, 1000}}}), 300);
  EXPECT_EQ(dispatcher.pending_switch_time(), 2000);
  EXPECT_EQ(dispatcher.LookupSlot(0, 9700).vcpu, 2);  // 7.7 rounds late.
  EXPECT_EQ(dispatcher.pending_switch_time(), kTimeNever);
}

TEST(Dispatcher, SlipToleranceReArmsMissedSwitchAtNextWrap) {
  TableauDispatcher::Config config = WorkConserving();
  config.switch_slip_tolerance = 100;
  TableauDispatcher dispatcher(1, config);
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 1000}}}), 0);
  dispatcher.InstallTable(MakeTable(1000, {{{2, 0, 1000}}}), 300);
  EXPECT_EQ(dispatcher.pending_switch_time(), 2000);
  // First lookup observes the switch 500 > 100 late: the old table stays in
  // effect and the switch re-arms at the next wrap of the current table.
  EXPECT_EQ(dispatcher.LookupSlot(0, 2500).vcpu, 1);
  EXPECT_EQ(dispatcher.pending_switch_time(), 3000);
  // On time at the re-armed boundary: the new table takes over.
  EXPECT_EQ(dispatcher.LookupSlot(0, 3000).vcpu, 2);
  EXPECT_EQ(dispatcher.pending_switch_time(), kTimeNever);
}

TEST(Dispatcher, SlipWithinToleranceStillPromotes) {
  TableauDispatcher::Config config = WorkConserving();
  config.switch_slip_tolerance = 100;
  TableauDispatcher dispatcher(1, config);
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 1000}}}), 0);
  dispatcher.InstallTable(MakeTable(1000, {{{2, 0, 1000}}}), 300);
  // 50 ns late is within tolerance: promote as usual.
  EXPECT_EQ(dispatcher.LookupSlot(0, 2050).vcpu, 2);
  EXPECT_EQ(dispatcher.pending_switch_time(), kTimeNever);
}

TEST(Dispatcher, TimelinesRebuiltAfterSwitch) {
  TableauDispatcher dispatcher(2, WorkConserving());
  dispatcher.InstallTable(
      MakeTable(1000, {{{1, 0, 500}}, {{1, 500, 800}}}), 0);  // Split.
  EXPECT_TRUE(dispatcher.IsSplit(1));
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 500}}, {}}), 100);
  // After the switch boundary, vCPU 1 is no longer split.
  dispatcher.ActiveTable(2000);
  EXPECT_FALSE(dispatcher.IsSplit(1));
  EXPECT_EQ(dispatcher.WakeupTargetCpu(1, 2600), 0);
}

TableauDispatcher::Config TrailingCore() {
  TableauDispatcher::Config config;
  config.split_participation = true;
  return config;
}

// Promotes `table` on `dispatcher` through the switch protocol, then checks
// that every timeline-backed answer (split flag, wake-up target, trailing-
// core second-level locality) matches a fresh dispatcher that installed the
// same table directly, at sampled offsets for every vCPU id up to max_vcpu.
void SwitchAndCompare(TableauDispatcher& dispatcher, TimeNs& now,
                      const std::shared_ptr<const SchedulingTable>& table, VcpuId max_vcpu,
                      Rng& rng) {
  dispatcher.InstallTable(table, now);
  now = dispatcher.pending_switch_time();
  ASSERT_EQ(&dispatcher.ActiveTable(now), table.get());
  TableauDispatcher fresh(table->num_cpus(), TrailingCore());
  fresh.InstallTable(table, 0);
  for (VcpuId vcpu = 0; vcpu <= max_vcpu; ++vcpu) {
    ASSERT_EQ(dispatcher.IsSplit(vcpu), fresh.IsSplit(vcpu)) << "vcpu " << vcpu;
    for (int sample = 0; sample < 8; ++sample) {
      const TimeNs at = now + rng.UniformInt(0, table->length() - 1);
      ASSERT_EQ(dispatcher.WakeupTargetCpu(vcpu, at), fresh.WakeupTargetCpu(vcpu, at))
          << "vcpu " << vcpu << " at " << at;
      for (int cpu = 0; cpu < table->num_cpus(); ++cpu) {
        ASSERT_EQ(dispatcher.SecondLevelLocal(vcpu, cpu, at),
                  fresh.SecondLevelLocal(vcpu, cpu, at))
            << "vcpu " << vcpu << " cpu " << cpu << " at " << at;
      }
    }
  }
}

// Random arrival/departure streams of delta Solves: each switch must answer
// like a dispatcher that installed the same table first.
TEST(Dispatcher, IncrementalTimelinesMatchFreshInstall) {
  PlannerConfig config;
  config.num_cpus = 6;
  const Planner planner(config);
  std::vector<VcpuRequest> requests;
  for (VcpuId id = 0; id < 18; ++id) {
    requests.push_back({id, 0.2, (id % 2 == 0 ? 1 : 10) * kMillisecond});
  }
  PlanResult plan = planner.Plan(requests);
  ASSERT_TRUE(plan.success);
  TableauDispatcher dispatcher(config.num_cpus, TrailingCore());
  TimeNs now = 0;
  dispatcher.InstallTable(std::make_shared<const SchedulingTable>(plan.table), now);
  Rng rng(4242);
  std::vector<VcpuId> live;
  for (const VcpuRequest& request : requests) {
    live.push_back(request.vcpu);
  }
  VcpuId next_id = 18;
  for (int step = 0; step < 30; ++step) {
    std::vector<VcpuRequest> added;
    std::vector<VcpuId> departed;
    if (live.size() > 12 && rng.UniformInt(0, 1) == 0) {
      const auto index = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      departed.push_back(live[index]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
    } else {
      added.push_back({next_id, 0.2, (next_id % 2 == 0 ? 1 : 10) * kMillisecond});
      live.push_back(next_id++);
    }
    PlanResult next = planner.Solve(PlanRequest::Delta(plan, added, departed));
    ASSERT_TRUE(next.success) << "step " << step;
    ASSERT_LT(next.dirty_cores.size(), static_cast<std::size_t>(config.num_cpus));
    SwitchAndCompare(dispatcher, now, std::make_shared<const SchedulingTable>(next.table),
                     next_id, rng);
    plan = std::move(next);
  }
}

// The same with split vCPUs: random pCPUs of a table whose vCPUs span pCPUs
// are replaced, so vCPUs gain and lose cores, become or stop being split,
// and leave the table entirely.
TEST(Dispatcher, IncrementalTimelinesMatchFreshInstallWithSplitVcpus) {
  constexpr int kCpus = 4;
  constexpr TimeNs kLength = 10000;
  Rng rng(4343);
  const auto random_core = [&]() {
    std::vector<Allocation> core;
    for (TimeNs t = rng.UniformInt(0, 300); t < kLength; t += rng.UniformInt(0, 300)) {
      const TimeNs end = std::min(t + rng.UniformInt(1, 900), kLength);
      core.push_back(Allocation{static_cast<VcpuId>(rng.UniformInt(0, 7)), t, end});
      t = end;
    }
    return core;
  };
  std::vector<std::vector<Allocation>> per_cpu;
  for (int c = 0; c < kCpus; ++c) {
    per_cpu.push_back(random_core());
  }
  auto table = std::make_shared<const SchedulingTable>(
      SchedulingTable::Build(kLength, std::move(per_cpu)));
  TableauDispatcher dispatcher(kCpus, TrailingCore());
  TimeNs now = 0;
  dispatcher.InstallTable(table, now);
  for (int step = 0; step < 60; ++step) {
    std::vector<std::pair<int, std::vector<Allocation>>> replaced;
    const int cores = static_cast<int>(rng.UniformInt(1, kCpus - 1));
    for (int i = 0; i < cores; ++i) {
      const int c = static_cast<int>(rng.UniformInt(0, kCpus - 1));
      // Sometimes empty the pCPU, sometimes redraw it.
      replaced.emplace_back(c, rng.UniformInt(0, 4) == 0 ? std::vector<Allocation>{}
                                                          : random_core());
    }
    table = std::make_shared<const SchedulingTable>(
        SchedulingTable::WithCores(*table, std::move(replaced)));
    SwitchAndCompare(dispatcher, now, table, 8, rng);
  }
}

// The wake-up index the dispatcher used to keep: every allocation of the
// table inserted into a per-vCPU timeline, sorted by start, split when it
// spans two or more pCPUs. The dispatcher's flat index must answer alike.
class ReferenceTimelines {
 public:
  struct Entry {
    TimeNs start;
    TimeNs end;
    int cpu;
  };

  explicit ReferenceTimelines(const SchedulingTable& table) : length_(table.length()) {
    for (int c = 0; c < table.num_cpus(); ++c) {
      for (const Allocation& alloc : table.cpu(c).allocations) {
        timelines_[alloc.vcpu].push_back(Entry{alloc.start, alloc.end, c});
      }
    }
    for (auto& [vcpu, entries] : timelines_) {
      std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
        return a.start != b.start ? a.start < b.start : a.cpu < b.cpu;
      });
    }
  }

  const std::map<VcpuId, std::vector<Entry>>& timelines() const { return timelines_; }

  bool IsSplit(VcpuId vcpu) const {
    const auto it = timelines_.find(vcpu);
    return it != timelines_.end() &&
           std::any_of(it->second.begin(), it->second.end(),
                       [&](const Entry& e) { return e.cpu != it->second.front().cpu; });
  }

  int WakeupTargetCpu(VcpuId vcpu, TimeNs now) const {
    const auto it = timelines_.find(vcpu);
    if (it == timelines_.end()) {
      return -1;
    }
    const std::vector<Entry>& entries = it->second;
    const TimeNs offset = now % length_;
    const auto upper = std::upper_bound(entries.begin(), entries.end(), offset,
                                        [](TimeNs t, const Entry& e) { return t < e.start; });
    return upper == entries.begin() ? entries.back().cpu : std::prev(upper)->cpu;
  }

 private:
  TimeNs length_;
  std::map<VcpuId, std::vector<Entry>> timelines_;
};

// Promotes `table` through the switch protocol (or installs it first, on a
// fresh dispatcher) and checks IsSplit and WakeupTargetCpu against the
// reference for every vCPU in the table, at 0, length - 1 and every one of
// its allocations' start and end +-1, plus unknown vCPUs. Adds the number
// of split vCPUs to `split`.
void PromoteAndCheckAgainstReference(TableauDispatcher& dispatcher, TimeNs& now,
                                     const std::shared_ptr<const SchedulingTable>& table,
                                     int& split) {
  dispatcher.InstallTable(table, now);
  if (dispatcher.pending_switch_time() != kTimeNever) {
    now = dispatcher.pending_switch_time();
  }
  EXPECT_EQ(&dispatcher.ActiveTable(now), table.get());
  const ReferenceTimelines reference(*table);
  const TimeNs length = table->length();
  VcpuId max_vcpu = 0;
  for (const auto& [vcpu, entries] : reference.timelines()) {
    max_vcpu = std::max(max_vcpu, vcpu);
    EXPECT_EQ(dispatcher.IsSplit(vcpu), reference.IsSplit(vcpu)) << "vcpu " << vcpu;
    split += reference.IsSplit(vcpu) ? 1 : 0;
    std::vector<TimeNs> probes = {0, length - 1};
    for (const ReferenceTimelines::Entry& e : entries) {
      for (const TimeNs t : {e.start, e.end}) {
        probes.insert(probes.end(), {t - 1, t, t + 1});
      }
    }
    for (const TimeNs probe : probes) {
      const TimeNs at = now + (probe + length) % length;
      ASSERT_EQ(dispatcher.WakeupTargetCpu(vcpu, at), reference.WakeupTargetCpu(vcpu, at))
          << "vcpu " << vcpu << " at offset " << at % length;
    }
  }
  for (const VcpuId unknown : {max_vcpu + 1, max_vcpu + 1000}) {
    EXPECT_FALSE(dispatcher.IsSplit(unknown));
    EXPECT_EQ(dispatcher.WakeupTargetCpu(unknown, now), -1);
  }
}

// A random table that passes Validate() and splits many of its vCPUs: time
// is cut into random segments, and in each one a random subset of the vCPUs
// (sparse ids: gaps hold unknown vCPUs) runs on distinct pCPUs, so no vCPU
// is ever on two pCPUs at once.
std::vector<std::vector<Allocation>> RandomSplitAllocations(Rng& rng, int cpus, int vcpus,
                                                            TimeNs length) {
  std::vector<std::vector<Allocation>> per_cpu(static_cast<std::size_t>(cpus));
  std::vector<VcpuId> ids;
  for (int v = 0; v < vcpus; ++v) {
    ids.push_back(static_cast<VcpuId>(7 * v + 3));
  }
  for (TimeNs t = 0; t < length;) {
    const TimeNs end = std::min(length, t + rng.UniformInt(1, length / 8));
    for (std::size_t i = ids.size() - 1; i > 0; --i) {
      std::swap(ids[i], ids[static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(i)))]);
    }
    for (int c = 0; c < cpus; ++c) {
      if (rng.UniformInt(0, 3) != 0) {
        per_cpu[static_cast<std::size_t>(c)].push_back(
            Allocation{ids[static_cast<std::size_t>(c)], t, end});
      }
    }
    t = end;
  }
  return per_cpu;
}

// Fuzzed valid tables, both slice geometries, each followed by its wire
// round trip (a table that shares no pCPU with the one it replaces), and a
// WithCores stream that swaps, thins and empties pCPUs.
TEST(Dispatcher, IndexMatchesMapTimelinesOnFuzzedSplitTables) {
  Rng rng(977);
  int split = 0;
  for (int round = 0; round < 100; ++round) {
    const int cpus = static_cast<int>(rng.UniformInt(1, 6));
    const int vcpus = cpus + static_cast<int>(rng.UniformInt(0, 6));
    const TimeNs length = rng.UniformInt(2000, 20000);
    TableauDispatcher dispatcher(cpus, TrailingCore());
    TimeNs now = rng.UniformInt(0, 3 * length);
    for (const bool exact : {false, true}) {
      std::vector<std::vector<Allocation>> per_cpu =
          RandomSplitAllocations(rng, cpus, vcpus, length);
      auto table = std::make_shared<const SchedulingTable>(
          exact ? SchedulingTable::BuildWithExactSlices(length, std::move(per_cpu))
                : SchedulingTable::Build(length, std::move(per_cpu)));
      ASSERT_EQ(table->Validate(), "");
      ASSERT_NO_FATAL_FAILURE(PromoteAndCheckAgainstReference(dispatcher, now, table, split));
      auto wire = std::make_shared<const SchedulingTable>(
          SchedulingTable::Deserialize(table->Serialize()));
      ASSERT_EQ(wire->Validate(), "");
      ASSERT_NO_FATAL_FAILURE(PromoteAndCheckAgainstReference(dispatcher, now, wire, split));
    }
    auto table = std::make_shared<const SchedulingTable>(
        SchedulingTable::Build(length, RandomSplitAllocations(rng, cpus, vcpus, length)));
    for (int step = 0; step < 6; ++step) {
      // Swapping two pCPUs' lists, or dropping allocations from one, keeps
      // every instant's vCPUs distinct.
      const int a = static_cast<int>(rng.UniformInt(0, cpus - 1));
      const int b = static_cast<int>(rng.UniformInt(0, cpus - 1));
      std::vector<std::pair<int, std::vector<Allocation>>> replaced;
      if (a != b) {
        replaced.emplace_back(a, table->cpu(b).allocations);
        replaced.emplace_back(b, table->cpu(a).allocations);
      } else {
        std::vector<Allocation> kept;
        const std::int64_t drop = rng.UniformInt(0, 2);
        for (const Allocation& alloc : table->cpu(a).allocations) {
          if (drop != 2 && rng.UniformInt(0, 2) != drop) {
            kept.push_back(alloc);
          }
        }
        replaced.emplace_back(a, std::move(kept));
      }
      table = std::make_shared<const SchedulingTable>(
          SchedulingTable::WithCores(*table, std::move(replaced)));
      ASSERT_EQ(table->Validate(), "");
      ASSERT_NO_FATAL_FAILURE(PromoteAndCheckAgainstReference(dispatcher, now, table, split));
    }
  }
  EXPECT_GT(split, 100) << "the fuzzed tables should split many vCPUs";
}

// Planner streams: semi-partitioned (C=D) plans whose split vCPUs come and
// go with arrivals and departures, promoted both as Solve's table and as
// its wire round trip.
TEST(Dispatcher, IndexMatchesMapTimelinesOnPlannerDeltaStreams) {
  PlannerConfig config;
  config.num_cpus = 4;
  const Planner planner(config);
  std::vector<VcpuRequest> requests;
  for (VcpuId id = 0; id < 6; ++id) {
    requests.push_back({id, 0.6, 20 * kMillisecond});
  }
  PlanResult plan = planner.Plan(requests);
  ASSERT_TRUE(plan.success);
  TableauDispatcher dispatcher(config.num_cpus, TrailingCore());
  TimeNs now = 0;
  int split = 0;
  ASSERT_NO_FATAL_FAILURE(PromoteAndCheckAgainstReference(
      dispatcher, now, std::make_shared<const SchedulingTable>(plan.table), split));
  Rng rng(5151);
  std::vector<VcpuId> live = {0, 1, 2, 3, 4, 5};
  VcpuId next_id = 6;
  for (int step = 0; step < 24; ++step) {
    std::vector<VcpuRequest> added;
    std::vector<VcpuId> departed;
    if (live.size() > 4 && rng.UniformInt(0, 1) == 0) {
      const auto index = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      departed.push_back(live[index]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
    } else if (live.size() < 6) {
      const double u = rng.UniformInt(0, 1) == 0 ? 0.6 : 0.3;
      added.push_back({next_id, u, (rng.UniformInt(0, 1) == 0 ? 20 : 5) * kMillisecond});
      live.push_back(next_id++);
    }
    PlanResult next = planner.Solve(PlanRequest::Delta(plan, added, departed));
    ASSERT_TRUE(next.success) << "step " << step;
    auto table = std::make_shared<const SchedulingTable>(next.table);
    ASSERT_NO_FATAL_FAILURE(PromoteAndCheckAgainstReference(dispatcher, now, table, split));
    ASSERT_NO_FATAL_FAILURE(PromoteAndCheckAgainstReference(
        dispatcher, now,
        std::make_shared<const SchedulingTable>(SchedulingTable::Deserialize(table->Serialize())),
        split));
    plan = std::move(next);
  }
  EXPECT_GT(split, 0) << "the C=D plans should split vCPUs";
}

// Drives one dispatcher with dispatch-like time sequences and checks every
// LookupSlot answer against a stateless reference: the active table's slice
// Lookup at now % length, its end clamped to a pending switch. Tables are
// kept alive here, so a cursor that outlived its generation would still read
// the old table and answer wrongly rather than crash.
class CursorProbe {
 public:
  CursorProbe(int cpus, TableauDispatcher::Config config, std::uint64_t seed)
      : dispatcher_(cpus, config), rng_(seed) {}

  std::int64_t checks() const { return checks_; }

  // One LookupSlot at `at` on `cpu`, against the reference.
  void Check(int cpu, TimeNs at) {
    const TableauDispatcher::SlotInfo slot = dispatcher_.LookupSlot(cpu, at);
    const SchedulingTable& table = dispatcher_.ActiveTable(at);
    const TimeNs offset = at % table.length();
    const LookupResult want = table.Lookup(cpu, offset);
    const TimeNs want_end =
        std::min(at - offset + want.interval_end, dispatcher_.pending_switch_time());
    ASSERT_EQ(slot.vcpu, want.vcpu) << "cpu " << cpu << " at " << at << " (offset " << offset
                                    << ", generation " << dispatcher_.table_generation() << ")";
    ASSERT_EQ(slot.slot_end, want_end) << "cpu " << cpu << " at " << at << " (offset " << offset
                                       << ", generation " << dispatcher_.table_generation() << ")";
    ASSERT_TRUE(dispatcher_.InOwnSlot(want.vcpu, cpu, at));  // The wake-up path.
    ++checks_;
  }

  // Installs `table` and, if the switch is deferred, probes the old table up
  // to the switch: slot-end chains that land on the clamp, wake-ups, and
  // sometimes a re-install (`replacement`, which then wins). The switch is
  // crossed on time or late by up to a round; with a finite slip tolerance a
  // late crossing re-arms at the next wrap, which is probed too.
  void SwitchTo(std::shared_ptr<const SchedulingTable> table,
                std::shared_ptr<const SchedulingTable> replacement = nullptr) {
    tables_.push_back(table);
    dispatcher_.InstallTable(table, now_);
    if (dispatcher_.pending_switch_time() == kTimeNever) {
      return;  // The first install takes effect at once.
    }
    const int cpus = dispatcher_.ActiveTable(now_).num_cpus();
    const TimeNs length = dispatcher_.ActiveTable(now_).length();
    ASSERT_NO_FATAL_FAILURE(Chain(static_cast<int>(rng_.UniformInt(0, cpus - 1)), 64));
    if (replacement != nullptr) {
      tables_.push_back(replacement);
      now_ += rng_.UniformInt(0, length);
      dispatcher_.InstallTable(replacement, now_);
    }
    ASSERT_NO_FATAL_FAILURE(Wakeups(8, dispatcher_.pending_switch_time() - now_));
    for (int c = 0; c < cpus; ++c) {
      ASSERT_NO_FATAL_FAILURE(Chain(c, 64));  // Up to the clamp, if in reach.
    }
    for (int attempt = 0; attempt < 3 && dispatcher_.pending_switch_time() != kTimeNever;
         ++attempt) {
      const TimeNs switch_at = dispatcher_.pending_switch_time();
      const bool late = attempt < 2 && rng_.UniformInt(0, 1) == 0;  // The last is on time.
      now_ = std::max(now_, switch_at + (late ? rng_.UniformInt(1, length) : 0));
      for (int c = 0; c < cpus; ++c) {
        ASSERT_NO_FATAL_FAILURE(Check(c, now_));
      }
    }
    ASSERT_EQ(dispatcher_.pending_switch_time(), kTimeNever);
    ASSERT_EQ(&dispatcher_.ActiveTable(now_),
              (replacement != nullptr ? replacement : table).get());
  }

  // Every probe sequence on the active table, from the current time on.
  void ProbeActive() {
    ASSERT_NO_FATAL_FAILURE(Boundaries());
    const int cpus = dispatcher_.ActiveTable(now_).num_cpus();
    for (int c = 0; c < cpus; ++c) {
      ASSERT_NO_FATAL_FAILURE(Chain(c, 40));
    }
    ASSERT_NO_FATAL_FAILURE(Jumps());
    ASSERT_NO_FATAL_FAILURE(Wakeups(64, dispatcher_.ActiveTable(now_).length()));
  }

 private:
  // Monotone: every allocation start and end, +-1, on every core, over two
  // rounds, in time order across cores.
  void Boundaries() {
    const SchedulingTable& table = dispatcher_.ActiveTable(now_);
    const TimeNs length = table.length();
    const TimeNs base = (now_ / length + 1) * length;
    std::vector<std::pair<TimeNs, int>> probes;
    for (int c = 0; c < table.num_cpus(); ++c) {
      std::vector<TimeNs> offsets = {0, 1, length - 1};
      for (const Allocation& alloc : table.cpu(c).allocations) {
        for (const TimeNs t : {alloc.start, alloc.end}) {
          offsets.insert(offsets.end(), {t - 1, t, t + 1});
        }
      }
      for (const TimeNs offset : offsets) {
        if (offset >= 0 && offset < length) {
          probes.emplace_back(base + offset, c);
          probes.emplace_back(base + length + offset, c);
        }
      }
    }
    std::sort(probes.begin(), probes.end());
    probes.erase(std::unique(probes.begin(), probes.end()), probes.end());
    for (const auto& [at, cpu] : probes) {
      ASSERT_NO_FATAL_FAILURE(Check(cpu, at));
    }
    now_ = probes.empty() ? now_ : probes.back().first;
  }

  // The slot-end timer: each lookup lands exactly on the previous slot end.
  void Chain(int cpu, int steps) {
    TimeNs at = now_;
    for (int step = 0; step < steps; ++step) {
      ASSERT_NO_FATAL_FAILURE(Check(cpu, at));
      const TimeNs end = dispatcher_.LookupSlot(cpu, at).slot_end;
      if (end == dispatcher_.pending_switch_time()) {
        break;  // Clamped: the next lookup would promote.
      }
      at = end;
    }
  }

  // Jumps of 0, 1, a round, more than a round and many rounds, and
  // backwards by 1, part of a round and more than a round.
  void Jumps() {
    const SchedulingTable& table = dispatcher_.ActiveTable(now_);
    const TimeNs length = table.length();
    const int cpus = table.num_cpus();
    for (int cpu = 0; cpu < cpus; ++cpu) {
      const TimeNs part = rng_.UniformInt(1, length - 1);
      for (const TimeNs step : {TimeNs{0}, TimeNs{1}, length, length - 1, length + 1,
                                length + part, 2 * length, 2 * length + part,
                                7 * length + part, TimeNs{-1}, -part, -length - part,
                                TimeNs{0}, part}) {
        now_ = std::max<TimeNs>(0, now_ + step);
        ASSERT_NO_FATAL_FAILURE(Check(cpu, now_));
      }
    }
  }

  // Seeded wake-ups: a random core, a random instant within `span` ahead
  // (so mostly inside the slot a core already holds).
  void Wakeups(int count, TimeNs span) {
    const int cpus = dispatcher_.ActiveTable(now_).num_cpus();
    for (int i = 0; i < count; ++i) {
      const TimeNs at = now_ + rng_.UniformInt(0, std::max<TimeNs>(span - 1, 0) / 16);
      ASSERT_NO_FATAL_FAILURE(Check(static_cast<int>(rng_.UniformInt(0, cpus - 1)), at));
      now_ = at;
    }
  }

  TableauDispatcher dispatcher_;
  Rng rng_;
  TimeNs now_ = 0;
  std::int64_t checks_ = 0;
  std::vector<std::shared_ptr<const SchedulingTable>> tables_;
};

TableauDispatcher::Config SlipTolerance(TimeNs tolerance) {
  TableauDispatcher::Config config;
  config.switch_slip_tolerance = tolerance;
  return config;
}

// Fuzzed valid tables (split vCPUs, empty cores, both slice geometries),
// their wire round trips and WithCores streams, promoted one after another,
// with the slip tolerance off and finite.
TEST(Dispatcher, SlotCursorMatchesLookupOnFuzzedTables) {
  Rng rng(6101);
  std::int64_t checks = 0;
  for (int round = 0; round < 40; ++round) {
    const int cpus = static_cast<int>(rng.UniformInt(1, 5));
    const int vcpus = cpus + static_cast<int>(rng.UniformInt(0, 5));
    const TimeNs length = rng.UniformInt(2000, 20000);
    const TimeNs tolerance = round % 2 == 0 ? kTimeNever : rng.UniformInt(0, length / 2);
    CursorProbe probe(cpus, SlipTolerance(tolerance), 7000 + round);
    const auto random_table = [&](bool exact) {
      std::vector<std::vector<Allocation>> per_cpu =
          RandomSplitAllocations(rng, cpus, vcpus, length);
      if (rng.UniformInt(0, 2) == 0) {
        per_cpu[static_cast<std::size_t>(rng.UniformInt(0, cpus - 1))].clear();
      }
      return std::make_shared<const SchedulingTable>(
          exact ? SchedulingTable::BuildWithExactSlices(length, std::move(per_cpu))
                : SchedulingTable::Build(length, std::move(per_cpu)));
    };
    std::shared_ptr<const SchedulingTable> table;
    for (int step = 0; step < 6; ++step) {
      std::shared_ptr<const SchedulingTable> replacement;
      if (step % 3 == 0) {
        table = random_table(rng.UniformInt(0, 1) == 0);
      } else if (step % 3 == 1) {
        table = std::make_shared<const SchedulingTable>(
            SchedulingTable::Deserialize(table->Serialize()));
      } else {
        // Swap two cores' lists, or empty one (keeps every instant's vCPUs
        // distinct); sometimes re-install a fresh table during the switch.
        const int a = static_cast<int>(rng.UniformInt(0, cpus - 1));
        const int b = static_cast<int>(rng.UniformInt(0, cpus - 1));
        std::vector<std::pair<int, std::vector<Allocation>>> replaced;
        replaced.emplace_back(a, table->cpu(b).allocations);
        replaced.emplace_back(b, a == b ? std::vector<Allocation>{} : table->cpu(a).allocations);
        table = std::make_shared<const SchedulingTable>(
            SchedulingTable::WithCores(*table, std::move(replaced)));
        if (rng.UniformInt(0, 1) == 0) {
          replacement = random_table(false);
        }
      }
      ASSERT_EQ(table->Validate(), "");
      ASSERT_NO_FATAL_FAILURE(probe.SwitchTo(table, replacement));
      ASSERT_NO_FATAL_FAILURE(probe.ProbeActive());
    }
    checks += probe.checks();
  }
  EXPECT_GT(checks, 50000);
}

// Planner delta streams (C=D plans with split vCPUs coming and going) and
// their wire round trips, with the slip tolerance off and finite.
TEST(Dispatcher, SlotCursorMatchesLookupOnPlannerDeltaStreams) {
  PlannerConfig config;
  config.num_cpus = 4;
  const Planner planner(config);
  for (const TimeNs tolerance : {kTimeNever, 100 * kMicrosecond}) {
    std::vector<VcpuRequest> requests;
    for (VcpuId id = 0; id < 6; ++id) {
      requests.push_back({id, 0.6, 20 * kMillisecond});
    }
    PlanResult plan = planner.Solve(PlanRequest::Full(requests));
    ASSERT_TRUE(plan.success);
    CursorProbe probe(config.num_cpus, SlipTolerance(tolerance), 8181);
    ASSERT_NO_FATAL_FAILURE(probe.SwitchTo(std::make_shared<const SchedulingTable>(plan.table)));
    ASSERT_NO_FATAL_FAILURE(probe.ProbeActive());
    Rng rng(5252);
    std::vector<VcpuId> live = {0, 1, 2, 3, 4, 5};
    VcpuId next_id = 6;
    for (int step = 0; step < 16; ++step) {
      std::vector<VcpuRequest> added;
      std::vector<VcpuId> departed;
      if (live.size() > 4 && rng.UniformInt(0, 1) == 0) {
        const auto index = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
        departed.push_back(live[index]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
      } else if (live.size() < 6) {
        const double u = rng.UniformInt(0, 1) == 0 ? 0.6 : 0.3;
        added.push_back({next_id, u, (rng.UniformInt(0, 1) == 0 ? 20 : 5) * kMillisecond});
        live.push_back(next_id++);
      }
      PlanResult next = planner.Solve(PlanRequest::Delta(plan, added, departed));
      ASSERT_TRUE(next.success) << "step " << step;
      auto table = std::make_shared<const SchedulingTable>(next.table);
      ASSERT_NO_FATAL_FAILURE(probe.SwitchTo(table));
      ASSERT_NO_FATAL_FAILURE(probe.ProbeActive());
      ASSERT_NO_FATAL_FAILURE(probe.SwitchTo(std::make_shared<const SchedulingTable>(
          SchedulingTable::Deserialize(table->Serialize()))));
      ASSERT_NO_FATAL_FAILURE(probe.ProbeActive());
      plan = std::move(next);
    }
  }
}

}  // namespace
}  // namespace tableau
