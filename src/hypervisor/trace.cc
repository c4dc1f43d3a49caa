#include "src/hypervisor/trace.h"

#include <cstdio>

#include "src/common/check.h"
#include "src/hypervisor/machine.h"

namespace tableau {

const char* TraceEventName(TraceEvent event) {
  switch (event) {
    case TraceEvent::kDispatch:
      return "dispatch";
    case TraceEvent::kDeschedule:
      return "deschedule";
    case TraceEvent::kBlock:
      return "block";
    case TraceEvent::kWakeup:
      return "wakeup";
    case TraceEvent::kIdle:
      return "idle";
    case TraceEvent::kTableSwitch:
      return "table-switch";
  }
  return "?";
}

TraceBuffer::TraceBuffer(std::size_t capacity) : capacity_(capacity) {
  TABLEAU_CHECK(capacity_ > 0);
  // The ring is a fixed arena sized once here: Record() appends into the
  // reserved region until the ring fills and overwrites in place after, so
  // the per-event path never touches the allocator (asserted by
  // tests/alloc_steady_state_test.cc).
  ring_.reserve(capacity_);
}

void TraceBuffer::Record(TimeNs time, TraceEvent event, int cpu, VcpuId vcpu,
                         std::int64_t arg) {
  if (!enabled_) {
    return;
  }
  ++total_;
  const TraceRecord record{time, event, static_cast<std::int16_t>(cpu), vcpu, arg};
  if (ring_.size() < capacity_) {
    ring_.push_back(record);  // Within the reserved arena: never reallocates.
  } else {
    ring_[next_] = record;
    wrapped_ = true;
    ++dropped_;
  }
  if (++next_ == capacity_) {
    next_ = 0;
  }
}

std::size_t TraceBuffer::size() const { return ring_.size(); }

TimeNs TraceBuffer::oldest_retained_time() const {
  if (ring_.empty()) {
    return 0;
  }
  return wrapped_ ? ring_[next_].time : ring_.front().time;
}

void TraceBuffer::ForEach(const std::function<void(const TraceRecord&)>& fn) const {
  if (!wrapped_) {
    for (const TraceRecord& record : ring_) {
      fn(record);
    }
    return;
  }
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    fn(ring_[(next_ + i) % capacity_]);
  }
}

std::vector<TraceRecord> TraceBuffer::Query(const Filter& filter) const {
  std::vector<TraceRecord> result;
  result.reserve(ring_.size());
  // Hoist the filter-field decisions out of the per-record loop: each check
  // below is a plain comparison against a pre-resolved local.
  const bool match_event = filter.event.has_value();
  const TraceEvent event = match_event ? *filter.event : TraceEvent::kDispatch;
  const VcpuId vcpu = filter.vcpu;
  const int cpu = filter.cpu;
  const TimeNs from = filter.from;
  const TimeNs to = filter.to;
  ForEach([&](const TraceRecord& record) {
    if (match_event && record.event != event) {
      return;
    }
    if (vcpu != kIdleVcpu && record.vcpu != vcpu) {
      return;
    }
    if (cpu != -1 && record.cpu != cpu) {
      return;
    }
    if (record.time < from || record.time >= to) {
      return;
    }
    result.push_back(record);
  });
  return result;
}

std::vector<TraceBuffer::ServiceInterval> TraceBuffer::ServiceTimeline(
    VcpuId vcpu) const {
  std::vector<ServiceInterval> timeline;
  const TimeNs window_start = oldest_retained_time();
  TimeNs newest = window_start;
  bool running = false;
  bool saw_any = false;
  ServiceInterval current{};
  ForEach([&](const TraceRecord& record) {
    newest = record.time;
    if (record.vcpu != vcpu) {
      return;
    }
    if (record.event == TraceEvent::kDispatch) {
      if (running) {
        // Matching deschedule fell off the ring between two retained
        // dispatches: close the dangling interval at the window edge it
        // straddles rather than folding it into the next one.
        current.end = record.time;
        current.truncated_end = true;
        timeline.push_back(current);
      }
      running = true;
      current = ServiceInterval{};
      current.start = record.time;
      current.cpu = record.cpu;
      current.second_level = record.arg != 0;
    } else if (record.event == TraceEvent::kDeschedule ||
               record.event == TraceEvent::kBlock) {
      if (running) {
        current.end = record.time;
        timeline.push_back(current);
        running = false;
      } else if (!saw_any && wrapped_) {
        // The interval was open when the oldest retained records were
        // overwritten; report the visible tail instead of dropping it.
        ServiceInterval head{};
        head.start = window_start;
        head.end = record.time;
        head.cpu = record.cpu;
        head.second_level = false;
        head.truncated_start = true;
        timeline.push_back(head);
      }
    }
    saw_any = true;
  });
  if (running) {
    // Still on-CPU at the end of the trace: report up to the newest record.
    current.end = newest;
    current.truncated_end = true;
    timeline.push_back(current);
  }
  return timeline;
}

std::string TraceBuffer::Format(const TraceRecord& record) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%14s %-12s cpu%-3d vcpu%-4d arg=%lld",
                FormatDuration(record.time).c_str(), TraceEventName(record.event),
                record.cpu, record.vcpu, static_cast<long long>(record.arg));
  return buf;
}

void TraceBuffer::Clear() {
  // Retained records are discarded, not un-recorded: total_ keeps counting
  // across the clear so dropped() + size() == total_recorded() stays exact.
  dropped_ += ring_.size();
  ring_.clear();
  next_ = 0;
  wrapped_ = false;
}

std::uint64_t TraceFingerprint(const Machine& machine) {
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };
  machine.trace().ForEach([&](const TraceRecord& record) {
    mix(static_cast<std::uint64_t>(record.time));
    mix(static_cast<std::uint64_t>(record.event));
    mix(static_cast<std::uint64_t>(record.cpu));
    mix(static_cast<std::uint64_t>(record.vcpu));
    mix(static_cast<std::uint64_t>(record.arg));
  });
  mix(machine.trace().total_recorded());
  mix(machine.sim().events_executed());
  mix(machine.context_switches());
  mix(machine.schedule_invocations());
  return hash;
}

}  // namespace tableau
