// Event tracing for the simulated hypervisor — the analog of Xen's xentrace
// infrastructure, which the paper uses to collect its overhead samples
// ("Overhead samples were collected using Xen's built-in tracing framework
// by adding tracepoints around key operations within the scheduler",
// Sec. 7.2).
//
// A bounded ring buffer of typed records; recording is O(1) and can be
// toggled at runtime. Query helpers filter by event type, vCPU, CPU, and
// time window, and compute derived statistics (per-vCPU service timelines,
// dispatch-source breakdowns).
#ifndef SRC_HYPERVISOR_TRACE_H_
#define SRC_HYPERVISOR_TRACE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/rt/periodic_task.h"

namespace tableau {

class Machine;

enum class TraceEvent : std::uint8_t {
  kDispatch = 0,    // vCPU starts running on a CPU (arg = 1 if second-level).
  kDeschedule = 1,  // vCPU stops running (arg = DeschedReason).
  kBlock = 2,       // vCPU blocked.
  kWakeup = 3,      // vCPU became runnable.
  kIdle = 4,        // CPU went idle.
  kTableSwitch = 5,  // Dispatcher switched tables (Tableau only).
};

const char* TraceEventName(TraceEvent event);

struct TraceRecord {
  TimeNs time = 0;
  TraceEvent event = TraceEvent::kDispatch;
  std::int16_t cpu = -1;
  VcpuId vcpu = kIdleVcpu;
  std::int64_t arg = 0;
};

class TraceBuffer {
 public:
  // `capacity` records; the buffer keeps the most recent ones (ring).
  explicit TraceBuffer(std::size_t capacity = 1 << 16);

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void Record(TimeNs time, TraceEvent event, int cpu, VcpuId vcpu, std::int64_t arg = 0);

  // Number of records currently retained (<= capacity).
  std::size_t size() const;
  // Total records ever recorded (including overwritten ones).
  std::uint64_t total_recorded() const { return total_; }
  // Records recorded but no longer retained: ring overwrites plus records
  // discarded by Clear(). Exact — total_recorded() == dropped() + size().
  std::uint64_t dropped() const { return dropped_; }

  // Timestamp of the oldest retained record (0 when empty). With a wrapped
  // ring this is the left edge of the observable window; intervals that
  // straddle it come back truncated from ServiceTimeline().
  TimeNs oldest_retained_time() const;

  // Visits retained records in chronological order.
  void ForEach(const std::function<void(const TraceRecord&)>& fn) const;

  // Retained records matching a filter (any field set to its "match all"
  // default is ignored): event, vcpu, cpu, and [from, to) window.
  struct Filter {
    std::optional<TraceEvent> event;
    VcpuId vcpu = kIdleVcpu;  // kIdleVcpu = any.
    int cpu = -1;             // -1 = any.
    TimeNs from = 0;
    TimeNs to = kTimeNever;
  };
  std::vector<TraceRecord> Query(const Filter& filter) const;

  // Contiguous service intervals of `vcpu` reconstructed from
  // dispatch/deschedule pairs within the retained window. Intervals cut off
  // by the ring are reported, not invented: a deschedule whose dispatch was
  // overwritten yields an interval starting at oldest_retained_time() with
  // truncated_start set; a dispatch still open at the end of the buffer
  // yields an interval ending at the newest record's time with truncated_end
  // set.
  struct ServiceInterval {
    TimeNs start;
    TimeNs end;
    int cpu;
    bool second_level;
    bool truncated_start = false;
    bool truncated_end = false;
  };
  std::vector<ServiceInterval> ServiceTimeline(VcpuId vcpu) const;

  // Renders a record as a single human-readable line.
  static std::string Format(const TraceRecord& record);

  void Clear();

 private:
  std::vector<TraceRecord> ring_;
  std::size_t capacity_;
  std::size_t next_ = 0;
  bool wrapped_ = false;
  bool enabled_ = true;
  std::uint64_t total_ = 0;
  std::uint64_t dropped_ = 0;
};

// FNV-1a over every retained trace record of `machine` plus its aggregate
// counters (records ever traced, engine events executed, context switches,
// schedule invocations). Two runs with equal fingerprints executed the same
// event sequence; the engine goldens (tests/engine_golden_test.cc) pin it.
std::uint64_t TraceFingerprint(const Machine& machine);

}  // namespace tableau

#endif  // SRC_HYPERVISOR_TRACE_H_
