// Per-call wall-time measurement of scheduler operations: a decorator around
// the real Tableau scheduler, installed through the scheduler factory's
// RegisterScheduler hook so every Machine built while it is registered (the
// harness host and every fleet host) times PickNext / OnWakeup / OnBlock /
// OnDeschedule. The decorator forwards every call unchanged, including
// Attach and table_driven(), and MadeScheduler::tableau keeps pointing at the
// inner scheduler, so the simulated schedule is identical with and without it.
#ifndef PERFBENCH_SCHED_TIMING_H_
#define PERFBENCH_SCHED_TIMING_H_

#include <cstdint>

#include "perfbench/perfbench.h"
#include "src/stats/histogram.h"

namespace perfbench {

struct SchedTimings {
  tableau::Histogram pick_next;
  tableau::Histogram on_wakeup;
  tableau::Histogram on_block;
  tableau::Histogram on_deschedule;
  // Running totals, read at chunk boundaries for aggregated child time.
  std::int64_t total_ns = 0;
  std::uint64_t ops = 0;
};

// Adds the sched.* per-layer metrics (median and p99 per operation, ops).
void ReportSchedTimings(const SchedTimings& timings, RunResult& result);

// Registers the timing decorator for SchedKind::kTableau for its lifetime;
// the destructor restores the built-in builder. `timings` must outlive every
// machine built meanwhile.
class ScopedSchedulerTiming {
 public:
  explicit ScopedSchedulerTiming(SchedTimings* timings);
  ~ScopedSchedulerTiming();
  ScopedSchedulerTiming(const ScopedSchedulerTiming&) = delete;
  ScopedSchedulerTiming& operator=(const ScopedSchedulerTiming&) = delete;
};

}  // namespace perfbench

#endif  // PERFBENCH_SCHED_TIMING_H_
