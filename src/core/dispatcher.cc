#include "src/core/dispatcher.h"

#include <algorithm>

#include "src/common/check.h"

namespace tableau {

TableauDispatcher::TableauDispatcher(int num_cpus, Config config)
    : num_cpus_(num_cpus), config_(config) {
  TABLEAU_CHECK(num_cpus_ > 0);
  TABLEAU_CHECK(config_.second_level_epoch > 0);
  second_level_.resize(static_cast<std::size_t>(num_cpus_));
}

void TableauDispatcher::InstallTable(std::shared_ptr<const SchedulingTable> table,
                                     TimeNs now) {
  TABLEAU_CHECK(table != nullptr);
  TABLEAU_CHECK(table->num_cpus() >= num_cpus_);
  if (current_ == nullptr) {
    current_ = std::move(table);
    ++generation_;
    BuildIndex();
    return;
  }
  // Time-synchronized switch: the planner times the next_table pointers to
  // be set in the middle of the next round of the current table, so every
  // core observes them before the wrap that follows — all cores switch at
  // that wrap, two rounds out at most.
  const TimeNs len = current_->length();
  const TimeNs proposed = (now / len + 2) * len;
  if (next_ != nullptr) {
    // Re-install during a pending switch: the new table supersedes the
    // still-pending one, but the switch time may only stay or move later.
    // Cores have already been handed slot_ends clamped to the promised
    // switch_at_; pulling it earlier (possible when `now` runs behind the
    // first install, e.g. observed from a core with a lagging clock) would
    // switch tables inside an interval a core believes it owns.
    switch_at_ = std::max(switch_at_, proposed);
  } else {
    switch_at_ = proposed;
  }
  next_ = std::move(table);
}

void TableauDispatcher::AttachMetrics(obs::MetricsRegistry* registry) {
  TABLEAU_CHECK(registry != nullptr);
  m_table_switches_ = registry->GetCounter("tableau.table_switches");
  m_switch_rearms_ = registry->GetCounter("tableau.switch_rearms");
  m_switch_slip_ns_ = registry->GetHistogram("tableau.switch_slip_ns");
}

const SchedulingTable& TableauDispatcher::ActiveTable(TimeNs now) {
  TABLEAU_CHECK_MSG(current_ != nullptr, "no table installed");
  if (next_ != nullptr && now >= switch_at_) {
    if (config_.switch_slip_tolerance != kTimeNever &&
        now - switch_at_ > config_.switch_slip_tolerance) {
      // Deadline missed by more than the tolerance: promoting now would put
      // this core on the new table mid-round while peers may still be
      // handing out slots from the old one. Re-arm at the next wrap of the
      // current table and switch there, synchronized again.
      const TimeNs len = current_->length();
      switch_at_ = (now / len + 1) * len;
      if (m_switch_rearms_ != nullptr) {
        m_switch_rearms_->Increment();
      }
      return *current_;
    }
    last_switch_slip_ = now - switch_at_;
    if (m_table_switches_ != nullptr) {
      m_table_switches_->Increment();
      m_switch_slip_ns_->Record(last_switch_slip_);
    }
    // The old table is released here: "garbage collected two rounds after
    // the new table has been uploaded".
    current_ = std::move(next_);
    next_ = nullptr;
    switch_at_ = kTimeNever;
    ++generation_;
    BuildIndex();
  }
  return *current_;
}

void TableauDispatcher::BuildIndex() {
  // One row per (vCPU, core) pair from the validated local_vcpus lists,
  // grouped by vCPU; a vCPU listed by one core keeps its row as it is.
  homes_.clear();
  split_entries_.clear();
  // Cursors of the old generation are stale and re-seed on first use.
  cursors_.resize(std::max(cursors_.size(), static_cast<std::size_t>(current_->num_cpus())));
  for (int c = 0; c < current_->num_cpus(); ++c) {
    for (const VcpuId vcpu : current_->cpu(c).local_vcpus) {
      homes_.push_back(VcpuHome{vcpu, c, 0, 0});
    }
  }
  std::sort(homes_.begin(), homes_.end(),
            [](const VcpuHome& a, const VcpuHome& b) { return a.vcpu < b.vcpu; });
  // Compact in place to one row per vCPU. A split vCPU's row points at its
  // allocations, gathered from just the cores that list it.
  std::size_t out = 0;
  for (std::size_t i = 0; i < homes_.size();) {
    const VcpuId vcpu = homes_[i].vcpu;
    std::size_t j = i + 1;
    while (j < homes_.size() && homes_[j].vcpu == vcpu) {
      ++j;
    }
    if (j - i > 1) {
      const std::size_t first = split_entries_.size();
      for (std::size_t k = i; k < j; ++k) {
        const int c = homes_[k].cpu;
        for (const Allocation& alloc : current_->cpu(c).allocations) {
          if (alloc.vcpu == vcpu) {
            split_entries_.emplace_back(alloc.start, c);
          }
        }
      }
      // Start times are unique per vCPU in a valid table; the cpu tie-break
      // only makes the order total.
      std::sort(split_entries_.begin() + static_cast<std::ptrdiff_t>(first),
                split_entries_.end());
      homes_[i] = VcpuHome{vcpu, -1, static_cast<std::uint32_t>(first),
                           static_cast<std::uint32_t>(split_entries_.size() - first)};
    }
    homes_[out++] = homes_[i];
    i = j;
  }
  homes_.resize(out);
}

const TableauDispatcher::VcpuHome* TableauDispatcher::FindHome(VcpuId vcpu) const {
  const auto it = std::lower_bound(
      homes_.begin(), homes_.end(), vcpu,
      [](const VcpuHome& home, VcpuId id) { return home.vcpu < id; });
  return it != homes_.end() && it->vcpu == vcpu ? &*it : nullptr;
}

bool TableauDispatcher::Walk(SlotCursor& cursor, TimeNs length, TimeNs now) {
  TimeNs round = cursor.round;
  std::int32_t k = cursor.next;
  if (now - round >= length) {
    round += length;
    k = 0;
    if (now - round >= length) {
      return false;  // More than one round ahead.
    }
  }
  const TimeNs offset = now - round;
  // First allocation from k on that ends past the offset: Lookup's answer.
  const std::int32_t limit = std::min(cursor.count, k + kMaxWalkSteps);
  while (k < limit && cursor.allocs[k].end <= offset) {
    ++k;
  }
  if (k == limit && k < cursor.count) {
    return false;  // Too far to walk.
  }
  cursor.from = now;
  cursor.round = round;
  if (k == cursor.count) {
    cursor.vcpu = kIdleVcpu;  // Idle to the end of the round.
    cursor.end = round + length;
  } else {
    // Served by allocation k, or idle up to its start; a select, not a
    // branch, since slot ends alternate between the two unpredictably.
    const Allocation& alloc = cursor.allocs[k];
    const bool served = alloc.start <= offset;
    cursor.vcpu = served ? alloc.vcpu : kIdleVcpu;
    cursor.end = round + (served ? alloc.end : alloc.start);
    k += static_cast<std::int32_t>(served);
  }
  cursor.next = k;
  return true;
}

TableauDispatcher::SlotInfo TableauDispatcher::LookupSlot(int cpu, TimeNs now) {
  const SchedulingTable& table = ActiveTable(now);
  SlotCursor& cursor = cursors_[static_cast<std::size_t>(cpu)];
  // Hit: the cached interval covers `now`. Walk: `now` is past it, on the
  // same table. Anything else (a promotion, a backward `now`, a jump too far
  // to walk) re-seeds the cursor from the slice lookup.
  if (cursor.generation != generation_ || now < cursor.from ||
      (now >= cursor.end && !Walk(cursor, table.length(), now))) {
    const TimeNs offset = now % table.length();
    const LookupResult lookup = table.Lookup(cpu, offset);
    const std::vector<Allocation>& allocs = table.cpu(cpu).allocations;
    cursor = SlotCursor{generation_,
                        now,
                        now - offset + lookup.interval_end,
                        now - offset,
                        allocs.data(),
                        static_cast<std::int32_t>(allocs.size()),
                        lookup.next,
                        lookup.vcpu};
  }
  SlotInfo slot;
  slot.vcpu = cursor.vcpu;
  slot.slot_end = cursor.end;
  if (next_ != nullptr && switch_at_ > now) {
    slot.slot_end = std::min(slot.slot_end, switch_at_);
  }
  return slot;
}

TableauDispatcher::SecondLevelPick TableauDispatcher::PickSecondLevel(
    int cpu, TimeNs now, TimeNs slot_end, const std::function<bool(VcpuId)>& eligible) {
  const SchedulingTable& table = ActiveTable(now);
  const std::vector<VcpuId>& locals = table.cpu(cpu).local_vcpus;
  SecondLevelState& state = second_level_[static_cast<std::size_t>(cpu)];

  SecondLevelPick pick;
  pick.vcpu = kIdleVcpu;
  pick.until = slot_end;
  if (!config_.work_conserving) {
    return pick;
  }

  auto find_best = [&]() {
    VcpuId best = kIdleVcpu;
    TimeNs best_budget = 0;
    for (const VcpuId vcpu : locals) {
      if (!SecondLevelLocal(vcpu, cpu, now) || !eligible(vcpu)) {
        continue;
      }
      const auto it = state.budgets.find(vcpu);
      const TimeNs budget = it == state.budgets.end() ? 0 : it->second;
      if (budget > best_budget) {
        best = vcpu;
        best_budget = budget;
      }
    }
    return std::pair<VcpuId, TimeNs>(best, best_budget);
  };

  auto [best, budget] = find_best();
  if (best == kIdleVcpu) {
    // All eligible budgets exhausted (or first use): replenish by dividing
    // the epoch evenly among the currently eligible vCPUs, then retry.
    int count = 0;
    for (const VcpuId vcpu : locals) {
      if (SecondLevelLocal(vcpu, cpu, now) && eligible(vcpu)) {
        ++count;
      }
    }
    if (count == 0) {
      return pick;  // Nothing runnable: idle.
    }
    const TimeNs share = config_.second_level_epoch / count;
    for (const VcpuId vcpu : locals) {
      if (SecondLevelLocal(vcpu, cpu, now) && eligible(vcpu)) {
        state.budgets[vcpu] = std::max<TimeNs>(share, 1);
      }
    }
    std::tie(best, budget) = find_best();
    TABLEAU_CHECK(best != kIdleVcpu);
  }
  pick.vcpu = best;
  // Floor the grant at the enforceability threshold so dispatch overhead can
  // never outpace budget consumption.
  pick.until = std::min(slot_end, now + std::max(budget, kMinGrantNs));
  return pick;
}

void TableauDispatcher::AccrueSecondLevel(int cpu, VcpuId vcpu, TimeNs amount) {
  SecondLevelState& state = second_level_[static_cast<std::size_t>(cpu)];
  const auto it = state.budgets.find(vcpu);
  if (it != state.budgets.end()) {
    it->second = std::max<TimeNs>(0, it->second - amount);
  }
}

int TableauDispatcher::WakeupTargetCpu(VcpuId vcpu, TimeNs now) {
  const SchedulingTable& table = ActiveTable(now);
  const VcpuHome* home = FindHome(vcpu);
  if (home == nullptr) {
    return -1;
  }
  if (home->cpu >= 0) {
    return home->cpu;  // Every allocation, current or most recent, is there.
  }
  const auto entries = split_entries_.begin() + home->first;
  const auto entries_end = entries + home->count;
  const TimeNs offset = now % table.length();
  // Last entry with start <= offset; if none, wrap to the final entry of the
  // previous cycle.
  const auto upper = std::upper_bound(
      entries, entries_end, offset,
      [](TimeNs t, const std::pair<TimeNs, int>& e) { return t < e.first; });
  return upper == entries ? std::prev(entries_end)->second : std::prev(upper)->second;
}

bool TableauDispatcher::InOwnSlot(VcpuId vcpu, int cpu, TimeNs now) {
  const SlotInfo slot = LookupSlot(cpu, now);
  return slot.vcpu == vcpu;
}

bool TableauDispatcher::IsSplit(VcpuId vcpu) {
  const VcpuHome* home = FindHome(vcpu);
  return home != nullptr && home->cpu < 0;
}

bool TableauDispatcher::SecondLevelLocal(VcpuId vcpu, int cpu, TimeNs now) {
  if (!IsSplit(vcpu)) {
    return true;
  }
  if (!config_.split_participation) {
    return false;
  }
  // Trailing-core policy: only where the vCPU last had (or currently has) a
  // guaranteed allocation, avoiding any cross-core synchronization.
  return WakeupTargetCpu(vcpu, now) == cpu;
}

}  // namespace tableau
