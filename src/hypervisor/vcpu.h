// Virtual CPU state, as seen by the hypervisor substrate.
//
// Each VM in the paper's evaluation has exactly one vCPU; we keep a VM id on
// the vCPU for grouping but model scheduling per vCPU, as Xen does.
#ifndef SRC_HYPERVISOR_VCPU_H_
#define SRC_HYPERVISOR_VCPU_H_

#include <functional>
#include <memory>
#include <string>

#include "src/common/check.h"
#include "src/common/time.h"
#include "src/rt/periodic_task.h"
#include "src/stats/histogram.h"

namespace tableau {

using CpuId = int;
inline constexpr CpuId kNoCpu = -1;

enum class VcpuState { kBlocked, kRunnable, kRunning };

// Static scheduling parameters of a vCPU, interpreted by the scheduler in
// use: Credit uses weight and cap; RTDS and Tableau use the reservation.
struct VcpuParams {
  int weight = 256;
  // CPU cap as a fraction of one core (0 = uncapped). E.g. 0.25 for the
  // paper's four-VMs-per-core setup.
  double cap = 0.0;
  // Reservation for RTDS/Tableau: minimum utilization and latency goal.
  double utilization = 0.0;
  TimeNs latency_goal = 0;
  std::string name;
};

class Vcpu {
 public:
  Vcpu(VcpuId id, VcpuParams params) : id_(id), params_(std::move(params)) {}

  VcpuId id() const { return id_; }
  const VcpuParams& params() const { return params_; }

  VcpuState state() const { return state_; }
  bool runnable() const { return state_ != VcpuState::kBlocked; }
  CpuId running_on() const { return running_on_; }
  CpuId last_cpu() const { return last_cpu_; }

  // --- Guest-side burst control (driven by workloads) ---

  // Remaining CPU demand before the guest's next voluntary action;
  // kTimeNever means CPU-bound.
  TimeNs remaining_burst() const { return remaining_burst_; }
  void set_remaining_burst(TimeNs burst) { remaining_burst_ = burst; }

  // Invoked by the machine when the current burst completes. The handler
  // must either set a new burst or block the vCPU.
  std::function<void()> on_burst_complete;

  // --- Accounting (maintained by the machine) ---

  TimeNs total_service() const { return total_service_; }
  std::uint64_t dispatch_count() const { return dispatch_count_; }
  // End of the previous service interval and time of the last
  // block->runnable edge (for blackout/latency instrumentation).
  TimeNs last_service_end() const { return last_service_end_; }
  TimeNs wake_time() const { return wake_time_; }

  // Enables per-vCPU latency instrumentation (the "vantage VM"): creates
  // the two histograms below, which uninstrumented vCPUs do not carry.
  void EnableInstrumentation() {
    if (!instrumented()) {
      service_gaps_ = std::make_unique<Histogram>();
      wakeup_latency_ = std::make_unique<Histogram>();
    }
  }
  bool instrumented() const { return service_gaps_ != nullptr; }

  // Gaps between consecutive service intervals while continuously runnable
  // (redis-cli --intrinsic-latency, Fig. 5). Instrumented vCPUs only.
  Histogram& service_gaps() {
    TABLEAU_CHECK_MSG(instrumented(), "vCPU %d is not instrumented", id_);
    return *service_gaps_;
  }
  // Delay from wake-up to first subsequent dispatch (ping, Fig. 6).
  // Instrumented vCPUs only.
  Histogram& wakeup_latency() {
    TABLEAU_CHECK_MSG(instrumented(), "vCPU %d is not instrumented", id_);
    return *wakeup_latency_;
  }

 private:
  friend class Machine;

  const VcpuId id_;
  const VcpuParams params_;

  VcpuState state_ = VcpuState::kBlocked;
  CpuId running_on_ = kNoCpu;
  CpuId last_cpu_ = kNoCpu;
  TimeNs remaining_burst_ = 0;

  TimeNs service_start_ = 0;       // Valid while running.
  TimeNs last_service_end_ = 0;    // End of the previous service interval.
  TimeNs wake_time_ = 0;           // Time of the last block->runnable edge.
  bool woke_since_dispatch_ = false;

  TimeNs total_service_ = 0;
  std::uint64_t dispatch_count_ = 0;

  std::unique_ptr<Histogram> service_gaps_;
  std::unique_ptr<Histogram> wakeup_latency_;
};

}  // namespace tableau

#endif  // SRC_HYPERVISOR_VCPU_H_
