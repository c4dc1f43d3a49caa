// tableau_perfbench, the repository benchmark: shared types for the three
// workloads (plan_churn, host_dense, fleet_elastic), the in-memory span
// tracer, and metric reporting. See perfbench/README.md for the workloads'
// rationale.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace tableau {
class SchedulingTable;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory the traced run writes its span file into.
  std::string out_dir = ".";
};

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// min(4, hardware threads): the load generator's thread budget.
int LoadThreads();

// FNV-1a, chained: fingerprints of installed tables and simulated outputs.
class Fnv {
 public:
  void Bytes(const void* data, std::size_t size);
  template <typename T>
  void Value(const T& value) {
    Bytes(&value, sizeof(value));
  }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

// A sample of per-call values (wall ms, ns, ...), summarized by quantiles.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double front() const { return values_.empty() ? 0 : values_.front(); }
  // Nearest-rank quantile (q in [0, 1]); 0 when empty.
  double Quantile(double q) const;
  double Sum() const;

 private:
  std::vector<double> values_;
};

// One reported metric: its value, unit, and how many samples it summarizes.
struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

// Spans recorded by the benchmark around its own calls into each layer.
// Spans carry name, start, end, parent (the enclosing open span) and the id
// of the churn event / chunk / control tick that caused them, plus a count
// recorded at the same boundary (bytes, dirty cores, events, resizes...).
// Everything stays in memory until WriteJson at exit. A disabled tracer
// records nothing and costs one branch per call.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t id = 0;
    std::int32_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t count = 0;
    // Time inside this span spent in children that were aggregated rather
    // than recorded one span each (per-call scheduler-op timings).
    std::int64_t aggregated_child_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open span; returns its index, or -1
  // when disabled.
  int Begin(const char* name, std::uint64_t id);
  void End(int span, std::int64_t count = 0, std::int64_t aggregated_child_ns = 0);

  // RAII span; set `count` before it closes.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t id)
        : tracer_(tracer), span_(tracer.Begin(name, id)) {}
    ~Scope() { tracer_.End(span_, count); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int64_t count = 0;

   private:
    Tracer& tracer_;
    int span_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  // Durations (ms) of every closed span with this name.
  Samples DurationsMs(std::string_view name) const;
  // Per-span self time: duration minus the time covered by its children
  // (recorded children plus aggregated ones).
  std::vector<std::int64_t> SelfTimesNs() const;
  // Writes every span plus a per-name summary (count, total, self) as JSON.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// What one workload run measured.
struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Set-ups of an untraced run (end-to-end metrics).
  Samples setup_s;
  // Steps of untraced episodes: the whole untraced run, or a traced run's
  // untraced baseline pass (telemetry attached, on host_dense).
  Samples step_ms;
  // Fingerprints of every episode, untraced and traced; all must match.
  std::vector<std::uint64_t> fingerprints;
  // Per-layer metrics (filled by traced runs).
  std::map<std::string, Metric> layer;

  void Fail(std::string error) {
    correct = false;
    errors.push_back(std::move(error));
  }
  void Layer(const std::string& name, double value, const char* unit,
             std::uint64_t samples) {
    layer[name] = Metric{value, unit, samples};
  }
  // "<name>" = median and "<name>.p99" = tail of a per-call sample.
  void LayerTiming(const std::string& name, const Samples& samples, const char* unit);
};

// Steps a p99 needs: ten samples beyond it.
inline constexpr std::size_t kMinTailSamples = 1000;

// Runs episodes (setup + fixed work) until the time they measured reaches
// `seconds`, `steps` (if given) holds kMinTailSamples, and at least
// `min_episodes` ran. `episode(i)` returns the seconds it measured: untimed
// work (set-up, correctness checks) does not count, but wall time is capped
// so a run always ends.
template <typename Fn>
void RepeatFor(double seconds, int min_episodes, Fn&& episode, const Samples* steps = nullptr) {
  const std::int64_t wall_cap = NowNs() + static_cast<std::int64_t>((2 * seconds + 30) * 1e9);
  double measured = 0;
  for (int i = 0; i < min_episodes || ((measured < seconds ||
                                        (steps != nullptr && steps->size() < kMinTailSamples)) &&
                                       NowNs() < wall_cap);
       ++i) {
    measured += episode(i);
  }
}

// Sweeps SchedulingTable::Lookup (the dispatcher's hot path) over evenly
// spaced offsets of every pCPU's table inside one "table.lookup_sweep" span;
// returns the mean wall ns per lookup.
double LookupSweepNs(const tableau::SchedulingTable& table, Tracer& tracer, std::uint64_t id);

void RunPlanChurn(const Options& options, RunResult& result);
void RunHostDense(const Options& options, RunResult& result);
void RunFleetElastic(const Options& options, RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
