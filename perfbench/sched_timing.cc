#include "perfbench/sched_timing.h"

#include <memory>
#include <string>
#include <utility>

#include "perfbench/perfbench.h"
#include "src/schedulers/factory.h"
#include "src/schedulers/tableau_scheduler.h"

namespace perfbench {
namespace {

using tableau::CpuId;
using tableau::Decision;
using tableau::DeschedReason;
using tableau::Machine;
using tableau::TimeNs;
using tableau::Vcpu;

class TimedScheduler : public tableau::VcpuScheduler {
 public:
  TimedScheduler(std::unique_ptr<tableau::VcpuScheduler> inner, SchedTimings* timings)
      : inner_(std::move(inner)), timings_(timings) {}

  std::string Name() const override { return inner_->Name(); }
  void Attach(Machine* machine) override {
    machine_ = machine;
    inner_->Attach(machine);
  }
  void AddVcpu(Vcpu* vcpu) override { inner_->AddVcpu(vcpu); }
  Decision PickNext(CpuId cpu) override {
    const std::int64_t start = NowNs();
    const Decision decision = inner_->PickNext(cpu);
    Record(timings_->pick_next, start);
    return decision;
  }
  void OnWakeup(Vcpu* vcpu) override {
    const std::int64_t start = NowNs();
    inner_->OnWakeup(vcpu);
    Record(timings_->on_wakeup, start);
  }
  void OnBlock(Vcpu* vcpu, CpuId cpu) override {
    const std::int64_t start = NowNs();
    inner_->OnBlock(vcpu, cpu);
    Record(timings_->on_block, start);
  }
  void OnDeschedule(Vcpu* vcpu, CpuId cpu, DeschedReason reason) override {
    const std::int64_t start = NowNs();
    inner_->OnDeschedule(vcpu, cpu, reason);
    Record(timings_->on_deschedule, start);
  }
  void OnServiceAccrued(Vcpu* vcpu, CpuId cpu, TimeNs amount) override {
    inner_->OnServiceAccrued(vcpu, cpu, amount);
  }
  void Start() override { inner_->Start(); }
  bool table_driven() const override { return inner_->table_driven(); }

 private:
  void Record(tableau::Histogram& histogram, std::int64_t start) {
    const std::int64_t elapsed = NowNs() - start;
    histogram.Record(elapsed);
    timings_->total_ns += elapsed;
    ++timings_->ops;
  }

  std::unique_ptr<tableau::VcpuScheduler> inner_;
  SchedTimings* timings_;
};

}  // namespace

void ReportSchedTimings(const SchedTimings& timings, RunResult& result) {
  const auto report = [&](const std::string& name, const tableau::Histogram& histogram) {
    result.Layer(name, static_cast<double>(histogram.Percentile(0.5)), "ns", histogram.Count());
    result.Layer(name + ".p99", static_cast<double>(histogram.Percentile(0.99)), "ns",
                 histogram.Count());
  };
  report("sched.pick_next_ns", timings.pick_next);
  report("sched.on_wakeup_ns", timings.on_wakeup);
  report("sched.on_block_ns", timings.on_block);
  report("sched.on_deschedule_ns", timings.on_deschedule);
  result.Layer("sched.ops", static_cast<double>(timings.ops), "count", timings.ops);
}

ScopedSchedulerTiming::ScopedSchedulerTiming(SchedTimings* timings) {
  tableau::RegisterScheduler(
      tableau::SchedKind::kTableau, [timings](const tableau::SchedulerSpec& spec) {
        // Same construction as the factory's built-in Tableau builder.
        tableau::TableauDispatcher::Config dispatcher;
        dispatcher.work_conserving = !spec.capped;
        dispatcher.second_level_epoch = spec.second_level_epoch;
        dispatcher.switch_slip_tolerance = spec.switch_slip_tolerance;
        auto inner = std::make_unique<tableau::TableauScheduler>(dispatcher);
        tableau::TableauScheduler* view = inner.get();
        return tableau::MadeScheduler{
            std::make_unique<TimedScheduler>(std::move(inner), timings), view};
      });
}

ScopedSchedulerTiming::~ScopedSchedulerTiming() {
  tableau::RegisterScheduler(tableau::SchedKind::kTableau, nullptr);
}

}  // namespace perfbench
