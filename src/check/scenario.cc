#include "src/check/scenario.h"

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <cstddef>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "src/common/parse.h"
#include "src/common/rng.h"

namespace tableau::check {
namespace {

// --- Values ----------------------------------------------------------------
// Read() parses one whole value with the src/common/parse.h helpers; Text()
// writes the canonical form Read() takes back.

constexpr std::string_view kWorkloadNames[] = {"hog", "stress", "stress_heavy",
                                               "noise", "ping"};

bool Read(const char* text, int* out) { return ParseInt(text, INT_MIN, out); }
bool Read(const char* text, std::int64_t* out) {
  return ParseI64(text, std::numeric_limits<std::int64_t>::min(), out);
}
bool Read(const char* text, std::uint64_t* out) { return ParseU64(text, out); }
bool Read(const char* text, double* out) { return ParseReal(text, false, out); }

bool Read(const char* text, bool* out) {
  const std::string_view value(text);
  *out = value == "1";
  return value == "0" || value == "1";
}

bool Read(const char* text, SchedKind* out) {
  const std::optional<SchedKind> kind = SchedKindFromName(text);
  *out = kind.value_or(*out);
  return kind.has_value();
}

bool Read(const char* text, MutantKind* out) {
  const std::optional<MutantKind> kind = MutantKindFromName(text);
  *out = kind.value_or(*out);
  return kind.has_value();
}

bool Read(const char* text, WorkloadKind* out) {
  for (std::size_t i = 0; i < std::size(kWorkloadNames); ++i) {
    if (kWorkloadNames[i] == text) {
      *out = static_cast<WorkloadKind>(i);
      return true;
    }
  }
  return false;
}

// A demand trace: comma-separated fractions, "x" for a no-data window.
bool Read(const char* text, std::vector<double>* out) {
  std::istringstream in(text);
  for (std::string token; std::getline(in, token, ',');) {
    double value = -1.0;
    if (token != "x" && !ParseReal(token.c_str(), /*positive=*/false, &value)) {
      return false;
    }
    out->push_back(value);
  }
  return true;
}

template <class T>
std::string Text(T value) requires std::is_integral_v<T> {
  return std::is_same_v<T, bool> ? (value ? "1" : "0") : std::to_string(value);
}
std::string Text(double value) { return FormatReal(value); }
std::string Text(SchedKind kind) { return SchedKindName(kind); }
std::string Text(MutantKind kind) { return MutantKindName(kind); }
std::string Text(WorkloadKind kind) {
  return std::string(kWorkloadNames[static_cast<std::size_t>(kind)]);
}
std::string Text(const std::vector<double>& demand) {
  std::string out;
  for (std::size_t i = 0; i < demand.size(); ++i) {
    out += i > 0 ? "," : "";
    out += demand[i] < 0 ? "x" : FormatReal(demand[i]);
  }
  return out;
}

// A number must lie in [min, max]; a list's length must.
template <class T>
bool InRange(const T& value, double min, double max) {
  if constexpr (std::is_arithmetic_v<T>) {
    return static_cast<double>(value) >= min && static_cast<double>(value) <= max;
  } else if constexpr (std::is_same_v<T, std::vector<double>>) {
    return static_cast<double>(value.size()) <= max;
  } else {
    return true;  // A name is checked by its Read().
  }
}

// --- Field tables ----------------------------------------------------------

constexpr double kAny = std::numeric_limits<double>::infinity();

// One row of a family's field table: the key, the allowed range of the
// value (see InRange) and how the member it names reads and writes.
template <class S>
struct Field {
  std::string_view key;
  double min;
  double max;
  bool (*parse)(const Field& field, const char* text, S& spec);
  std::string (*format)(const S& spec);
};

template <class M>
struct OwnerOf;
template <class C, class T>
struct OwnerOf<T C::*> {
  using type = C;
};

// The row for the member that the chain of member pointers `First, Rest...`
// reaches, so a row can name a field of a nested config. The value is read
// whole and range-checked before the member changes.
template <auto First, auto... Rest>
constexpr auto Row(std::string_view key, double min = 0, double max = kAny) {
  using S = typename OwnerOf<decltype(First)>::type;
  return Field<S>{
      key, min, max,
      [](const Field<S>& field, const char* text, S& spec) {
        auto& member = ((spec.*First) .* ... .* Rest);
        std::remove_reference_t<decltype(member)> value{};
        if (!Read(text, &value) || !InRange(value, field.min, field.max)) {
          return false;
        }
        member = std::move(value);
        return true;
      },
      [](const S& spec) { return Text(((spec.*First) .* ... .* Rest)); }};
}

template <class S, std::size_t N>
const Field<S>* Find(const Field<S> (&fields)[N], std::string_view key) {
  for (const Field<S>& field : fields) {
    if (field.key == key) {
      return &field;
    }
  }
  return nullptr;
}

// Bounds on every count and duration a reproducer may name. Text from
// outside the process must get an error, not an abort or an hours-long
// replay, so each is finite. Each covers its family's Draw() range and
// every committed reproducer (tests/repro/**) with headroom:
//
//   host   guest_cpus, cores_per_socket  <= 16     Draw <= 4
//          vcpus (per VM)                <= 8      Draw <= 2
//          vm= lines                     <= 16     Draw <= 6
//          duration_ns, replan_at_ns,
//          slip_ns, latency_ns           <= 1 s    Draw <= 60 ms, corpus <= 120 ms
//          mutant_stride                 <= 10^6   Draw 0, selftest 7
//          util                          <= 1      a per-vCPU share; Draw <= 0.4
//   adapt  num_cpus, cores_per_socket    <= 64     Draw <= 8
//          slots_per_core                <= 8      Draw <= 2
//          vm= lines                     <= 64     Draw <= 6
//          windows, demand entries,
//          predictor_history, _fit_window,
//          _horizon, cooldown_windows    <= 1024   Draw <= 40 (defaults <= 32)
//          window_ns, latency_ns         <= 1 s    Draw <= 50 ms
//
// Lower bounds stay at 0; a value that parses but cannot be built (zero
// CPUs, say) replays as one "spec:" violation, as before.
constexpr double kHostCpus = 16;
constexpr double kHostVcpusPerVm = 8;
constexpr double kAdaptCpus = 64;
constexpr double kAdaptSlotsPerCore = 8;
constexpr double kAdaptWindows = 1024;
constexpr double kMaxNs = 1e9;

// Shrinking candidates: each one is the spec with one edit applied.
template <class Spec>
struct Candidates {
  const Spec& spec;
  std::vector<Spec> list = {};

  template <class Edit>
  void Add(Edit edit) {
    list.push_back(spec);
    edit(list.back());
  }
};

template <class Spec>
struct Family;

template <>
struct Family<ScenarioSpec> {
  using S = ScenarioSpec;
  using V = VmFuzzSpec;
  static constexpr std::string_view kHeader = "tableau-repro v1";
  static constexpr std::size_t kMaxVms = 16;
  static constexpr Field<S> kFields[] = {
      Row<&S::seed>("seed"),
      Row<&S::scheduler>("scheduler"),
      Row<&S::capped>("capped"),
      Row<&S::guest_cpus>("guest_cpus", 0, kHostCpus),
      Row<&S::cores_per_socket>("cores_per_socket", 0, kHostCpus),
      Row<&S::duration>("duration_ns", 0, kMaxNs),
      Row<&S::fault_intensity>("fault_intensity"),
      Row<&S::fault_seed>("fault_seed"),
      Row<&S::planner_failure>("planner_failure"),
      Row<&S::replan_at>("replan_at_ns", 0, kMaxNs),
      Row<&S::slip_ns>("slip_ns", 0, kMaxNs),
      Row<&S::mutant>("mutant"),
      Row<&S::mutant_stride>("mutant_stride", 0, 1e6),
  };
  static constexpr Field<V> kVmFields[] = {
      Row<&V::vcpus>("vcpus", 0, kHostVcpusPerVm),
      Row<&V::utilization>("util", 0, 1),
      Row<&V::latency_goal>("latency_ns", 0, kMaxNs),
      Row<&V::workload>("workload"),
      Row<&V::gang>("gang"),
  };

  static S Draw(std::uint64_t seed, int attempt);
  static S Fallback(std::uint64_t seed);
  static std::vector<S> ShrinkCandidates(const S& spec);
};

template <>
struct Family<AdaptScenarioSpec> {
  using S = AdaptScenarioSpec;
  using V = AdaptVmFuzzSpec;
  using P = adapt::PolicyConfig;
  using Q = adapt::PredictorConfig;
  static constexpr std::string_view kHeader = "tableau-adapt-repro v1";
  static constexpr std::size_t kMaxVms = 64;
  static constexpr Field<S> kFields[] = {
      Row<&S::seed>("seed"),
      Row<&S::num_cpus>("num_cpus", 0, kAdaptCpus),
      Row<&S::cores_per_socket>("cores_per_socket", 0, kAdaptCpus),
      Row<&S::slots_per_core>("slots_per_core", 0, kAdaptSlotsPerCore),
      Row<&S::window_ns>("window_ns", 0, kMaxNs),
      Row<&S::windows>("windows", 0, kAdaptWindows),
      Row<&S::min_utilization>("min_utilization"),
      Row<&S::max_utilization>("max_utilization"),
      Row<&S::policy, &P::predictor, &Q::history>("predictor_history", 0, kAdaptWindows),
      Row<&S::policy, &P::predictor, &Q::fit_window>("predictor_fit_window", 0,
                                                     kAdaptWindows),
      Row<&S::policy, &P::predictor, &Q::horizon>("predictor_horizon", 0, kAdaptWindows),
      Row<&S::policy, &P::predictor, &Q::quantile>("predictor_quantile"),
      Row<&S::policy, &P::headroom>("headroom"),
      Row<&S::policy, &P::quantize>("quantize"),
      Row<&S::policy, &P::grow_deadband>("grow_deadband"),
      Row<&S::policy, &P::shrink_deadband>("shrink_deadband"),
      Row<&S::policy, &P::cooldown_windows>("cooldown_windows", 0, kAdaptWindows),
      Row<&S::policy, &P::saturation_threshold>("saturation_threshold"),
      Row<&S::policy, &P::saturation_growth>("saturation_growth"),
      Row<&S::policy, &P::floor_quantile>("floor_quantile"),
  };
  static constexpr Field<V> kVmFields[] = {
      Row<&V::initial>("init"),
      Row<&V::latency_goal>("latency_ns", 0, kMaxNs),
      Row<&V::demand>("demand", 0, kAdaptWindows),
  };

  static S Draw(std::uint64_t seed, int attempt);
  static S Fallback(std::uint64_t seed);
  static std::vector<S> ShrinkCandidates(const S& spec);
};

// One vm= line: whitespace-separated name:value fields, each of the
// family's vm fields exactly once, in any order.
template <class V, std::size_t N>
bool ParseVm(const Field<V> (&fields)[N], const char* text, V* vm) {
  std::array<bool, N> seen{};
  std::istringstream in(text);
  for (std::string token; in >> token;) {
    const std::size_t colon = token.find(':');
    const Field<V>* field =
        colon == std::string::npos ? nullptr : Find(fields, token.substr(0, colon));
    if (field == nullptr || seen[static_cast<std::size_t>(field - fields)] ||
        !field->parse(*field, token.c_str() + colon + 1, *vm)) {
      return false;
    }
    seen[static_cast<std::size_t>(field - fields)] = true;
  }
  return std::all_of(seen.begin(), seen.end(), [](bool s) { return s; });
}

// The lines after the header; a key given twice keeps its last value.
template <class Spec>
std::optional<AnySpec> ParseBody(std::istream& in) {
  using F = Family<Spec>;
  Spec spec;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return std::nullopt;
    }
    const std::string key = line.substr(0, eq);
    const char* value = line.c_str() + eq + 1;
    if (key == "vm") {
      if (spec.vms.size() >= F::kMaxVms ||
          !ParseVm(F::kVmFields, value, &spec.vms.emplace_back())) {
        return std::nullopt;
      }
    } else if (const auto* field = Find(F::kFields, key);
               field == nullptr || !field->parse(*field, value, spec)) {
      return std::nullopt;
    }
  }
  if (spec.vms.empty()) {
    return std::nullopt;
  }
  return spec;
}

}  // namespace

std::optional<AnySpec> Parse(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line) && (line.empty() || line[0] == '#')) {
  }
  if (line == Family<ScenarioSpec>::kHeader) {
    return ParseBody<ScenarioSpec>(in);
  }
  if (line == Family<AdaptScenarioSpec>::kHeader) {
    return ParseBody<AdaptScenarioSpec>(in);
  }
  return std::nullopt;
}

template <class Spec>
std::string Format(const Spec& spec) {
  using F = Family<Spec>;
  std::string out = std::string(F::kHeader) + "\n";
  for (const auto& field : F::kFields) {
    out += std::string(field.key) + "=" + field.format(spec) + "\n";
  }
  for (const auto& vm : spec.vms) {
    out += "vm=";
    for (const auto& field : F::kVmFields) {
      out += (&field == F::kVmFields ? "" : " ") + std::string(field.key) + ":" +
             field.format(vm);
    }
    out += "\n";
  }
  return out;
}

template <class Spec>
Spec Generate(std::uint64_t seed) {
  for (int attempt = 0; attempt < 32; ++attempt) {
    Spec spec = Family<Spec>::Draw(seed, attempt);
    if (FeasibleSpec(spec)) {
      return spec;
    }
  }
  return Family<Spec>::Fallback(seed);  // Unreachable in practice.
}

std::string CategoryOf(const std::vector<std::string>& violations) {
  if (violations.empty()) {
    return "";
  }
  const std::string& first = violations.front();
  std::size_t cut = 0;
  while (cut < first.size() && !(first[cut] >= '0' && first[cut] <= '9')) {
    ++cut;
  }
  std::string category = first.substr(0, cut);
  while (!category.empty() && category.back() == ' ') {
    category.pop_back();
  }
  if (category.empty()) {
    category = first.substr(0, std::min<std::size_t>(16, first.size()));
  }
  return category;
}

template <class Spec>
ShrinkResult<Spec> Shrink(const Spec& spec, const std::string& category) {
  ShrinkResult<Spec> result{spec};
  if (category.empty()) {
    return result;
  }
  constexpr int kMaxRuns = 200;
  bool progress = true;
  while (progress && result.runs < kMaxRuns) {
    progress = false;
    for (const Spec& candidate : Family<Spec>::ShrinkCandidates(result.spec)) {
      if (!FeasibleSpec(candidate)) {
        continue;
      }
      ++result.runs;
      if (CategoryOf(RunCheckedScenario(candidate).violations) == category) {
        result.spec = candidate;
        progress = true;
        break;
      }
      if (result.runs >= kMaxRuns) {
        break;
      }
    }
  }
  return result;
}

template std::string Format(const ScenarioSpec&);
template std::string Format(const AdaptScenarioSpec&);
template ScenarioSpec Generate(std::uint64_t);
template AdaptScenarioSpec Generate(std::uint64_t);
template ShrinkResult<ScenarioSpec> Shrink(const ScenarioSpec&, const std::string&);
template ShrinkResult<AdaptScenarioSpec> Shrink(const AdaptScenarioSpec&,
                                                const std::string&);

// --- Host family: draws and shrinking candidates ---------------------------

ScenarioSpec Family<ScenarioSpec>::Draw(std::uint64_t seed, int attempt) {
  Rng rng(MixSeeds(seed, static_cast<std::uint64_t>(attempt)));
  ScenarioSpec spec;
  spec.seed = seed;
  spec.scheduler = kAllSchedKinds[rng.UniformInt(0, 4)];
  switch (spec.scheduler) {
    case SchedKind::kCredit2:
      spec.capped = false;
      break;
    case SchedKind::kRtds:
      spec.capped = true;
      break;
    default:
      spec.capped = rng.UniformDouble() < 0.5;
      break;
  }
  spec.guest_cpus = static_cast<int>(rng.UniformInt(1, 4));
  spec.cores_per_socket =
      spec.guest_cpus <= 2 ? spec.guest_cpus : (spec.guest_cpus + 1) / 2;
  spec.duration = rng.UniformInt(4, 12) * 5 * kMillisecond;
  spec.fault_seed = MixSeeds(seed, 0x5eed);
  if (rng.UniformDouble() < 0.5) {
    spec.fault_intensity = 0.05 * rng.UniformInt(1, 10);
  }
  const bool tableau = spec.scheduler == SchedKind::kTableau;
  if (tableau && rng.UniformDouble() < 0.35) {
    spec.replan_at = spec.duration / 2;
    if (rng.UniformDouble() < 0.5) {
      spec.planner_failure = 0.25;
    }
  }
  if (tableau && rng.UniformDouble() < 0.35) {
    spec.slip_ns = 200 * kMicrosecond * rng.UniformInt(1, 5);
  }
  static constexpr TimeNs kLatencyChoices[] = {
      5 * kMillisecond, 10 * kMillisecond, 20 * kMillisecond, 40 * kMillisecond,
      80 * kMillisecond};
  const int max_vms = std::min(6, 2 * spec.guest_cpus);
  const int num_vms = static_cast<int>(rng.UniformInt(1, max_vms));
  for (int i = 0; i < num_vms; ++i) {
    VmFuzzSpec vm;
    vm.vcpus = rng.UniformDouble() < 0.25 ? 2 : 1;
    vm.gang = vm.vcpus > 1 && rng.UniformDouble() < 0.5;
    vm.utilization = 0.05 * rng.UniformInt(1, 8);
    vm.latency_goal = kLatencyChoices[rng.UniformInt(0, 4)];
    vm.workload = static_cast<WorkloadKind>(rng.UniformInt(0, 4));
    spec.vms.push_back(vm);
  }
  return spec;
}

ScenarioSpec Family<ScenarioSpec>::Fallback(std::uint64_t seed) {
  ScenarioSpec fallback;
  fallback.seed = seed;
  fallback.scheduler = SchedKind::kCredit;
  fallback.guest_cpus = 1;
  fallback.cores_per_socket = 1;
  fallback.duration = 20 * kMillisecond;
  fallback.vms.push_back(VmFuzzSpec{});
  return fallback;
}

std::vector<ScenarioSpec> Family<ScenarioSpec>::ShrinkCandidates(
    const ScenarioSpec& spec) {
  // Biggest reductions first: whole VMs, then per-VM simplifications, then
  // knobs, then time and space.
  Candidates<ScenarioSpec> out{spec};
  for (std::size_t i = 0; spec.vms.size() > 1 && i < spec.vms.size(); ++i) {
    out.Add([i](ScenarioSpec& c) { c.vms.erase(c.vms.begin() + static_cast<std::ptrdiff_t>(i)); });
  }
  for (std::size_t i = 0; i < spec.vms.size(); ++i) {
    if (spec.vms[i].vcpus > 1) {
      out.Add([i](ScenarioSpec& c) {
        c.vms[i].vcpus = 1;
        c.vms[i].gang = false;
      });
    }
    if (spec.vms[i].workload != WorkloadKind::kHog) {
      out.Add([i](ScenarioSpec& c) { c.vms[i].workload = WorkloadKind::kHog; });
    }
    if (spec.vms[i].gang) {
      out.Add([i](ScenarioSpec& c) { c.vms[i].gang = false; });
    }
  }
  if (spec.fault_intensity > 0.0) {
    out.Add([](ScenarioSpec& c) { c.fault_intensity = 0.0; });
  }
  if (spec.planner_failure > 0.0) {
    out.Add([](ScenarioSpec& c) { c.planner_failure = 0.0; });
  }
  if (spec.replan_at > 0) {
    out.Add([](ScenarioSpec& c) {
      c.replan_at = 0;
      c.planner_failure = 0.0;
    });
  }
  if (spec.slip_ns > 0) {
    out.Add([](ScenarioSpec& c) { c.slip_ns = 0; });
  }
  if (spec.duration > 10 * kMillisecond) {
    out.Add([](ScenarioSpec& c) { c.duration /= 2; });
  }
  if (spec.guest_cpus > 1) {
    out.Add([](ScenarioSpec& c) {
      --c.guest_cpus;
      c.cores_per_socket = std::min(c.cores_per_socket, c.guest_cpus);
    });
  }
  return std::move(out.list);
}

// --- Adapt family: draws and shrinking candidates --------------------------

AdaptScenarioSpec Family<AdaptScenarioSpec>::Draw(std::uint64_t seed, int attempt) {
  Rng rng(MixSeeds(seed, static_cast<std::uint64_t>(attempt)));
  AdaptScenarioSpec spec;
  spec.seed = seed;
  spec.num_cpus = 1 << rng.UniformInt(1, 3);  // 2, 4, or 8.
  spec.cores_per_socket = spec.num_cpus <= 2 ? spec.num_cpus : spec.num_cpus / 2;
  spec.slots_per_core = static_cast<int>(rng.UniformInt(1, 2));
  spec.window_ns = 10 * kMillisecond;
  spec.windows = static_cast<int>(rng.UniformInt(8, 40));
  static constexpr double kQuantizeChoices[] = {1.0 / 64, 1.0 / 32, 1.0 / 16};
  spec.policy.quantize = kQuantizeChoices[rng.UniformInt(0, 2)];
  spec.policy.headroom = 1.0 + 0.1 * static_cast<double>(rng.UniformInt(0, 5));
  spec.policy.grow_deadband = 1.0 / 64;
  static constexpr double kShrinkChoices[] = {1.0 / 32, 1.0 / 16, 1.0 / 8};
  spec.policy.shrink_deadband = kShrinkChoices[rng.UniformInt(0, 2)];
  spec.policy.cooldown_windows = static_cast<int>(rng.UniformInt(1, 6));
  spec.min_utilization = 1.0 / 32;
  spec.max_utilization = 0.25 * static_cast<double>(rng.UniformInt(2, 4));
  static constexpr TimeNs kLatencyChoices[] = {10 * kMillisecond,
                                               20 * kMillisecond,
                                               50 * kMillisecond};
  const int max_vms = std::min(6, spec.num_cpus * spec.slots_per_core);
  const int num_vms = static_cast<int>(rng.UniformInt(1, max_vms));
  // Aggregate budget so the initial set admits and leaves growth headroom
  // (resize failures are still legal — kept-previous, not a violation).
  double budget = 0.6 * static_cast<double>(spec.num_cpus);
  for (int i = 0; i < num_vms; ++i) {
    AdaptVmFuzzSpec vm;
    vm.initial = spec.policy.quantize * static_cast<double>(rng.UniformInt(2, 8));
    vm.initial = std::clamp(vm.initial, spec.min_utilization,
                            std::min(spec.max_utilization, 0.5));
    if (budget - vm.initial < 0) {
      vm.initial = spec.min_utilization;
    }
    budget -= vm.initial;
    vm.latency_goal = kLatencyChoices[rng.UniformInt(0, 2)];
    // Bursty regime walk: a base level that occasionally jumps, per-window
    // jitter, saturation spikes, and explicit no-data (idle) windows.
    double base = 0.05 * static_cast<double>(rng.UniformInt(0, 10));
    vm.demand.reserve(static_cast<std::size_t>(spec.windows));
    for (int w = 0; w < spec.windows; ++w) {
      if (rng.UniformDouble() < 0.12) {
        base = 0.05 * static_cast<double>(rng.UniformInt(0, 10));
      }
      const double roll = rng.UniformDouble();
      double demand;
      if (roll < 0.15) {
        demand = -1.0;  // Idle window: no data.
      } else if (roll < 0.20) {
        demand = 0.9 + 0.1 * rng.UniformDouble();  // Saturation spike.
      } else {
        demand = std::clamp(base + 0.05 * (rng.UniformDouble() - 0.5), 0.0, 1.0);
      }
      vm.demand.push_back(demand);
    }
    spec.vms.push_back(std::move(vm));
  }
  return spec;
}

AdaptScenarioSpec Family<AdaptScenarioSpec>::Fallback(std::uint64_t seed) {
  AdaptScenarioSpec fallback;
  fallback.seed = seed;
  fallback.num_cpus = 2;
  fallback.cores_per_socket = 2;
  fallback.slots_per_core = 1;
  fallback.vms.push_back(AdaptVmFuzzSpec{});
  fallback.vms.back().demand.assign(static_cast<std::size_t>(fallback.windows), 0.25);
  return fallback;
}

std::vector<AdaptScenarioSpec> Family<AdaptScenarioSpec>::ShrinkCandidates(
    const AdaptScenarioSpec& spec) {
  using A = AdaptScenarioSpec;
  // Biggest reductions first: whole VMs, then the window trace, then
  // per-trace simplifications, then host size.
  Candidates<A> out{spec};
  for (std::size_t i = 0; spec.vms.size() > 1 && i < spec.vms.size(); ++i) {
    out.Add([i](A& c) { c.vms.erase(c.vms.begin() + static_cast<std::ptrdiff_t>(i)); });
  }
  for (const int windows : {spec.windows / 2, spec.windows - 1}) {
    if (spec.windows > 4) {
      out.Add([windows](A& c) {
        c.windows = windows;
        for (AdaptVmFuzzSpec& vm : c.vms) {
          vm.demand.resize(std::min(vm.demand.size(), static_cast<std::size_t>(windows)));
        }
      });
    }
  }
  const auto off_grid = [](double d) {
    return d >= 0 && std::abs(std::round(d * 64.0) / 64.0 - d) > 1e-12;
  };
  for (std::size_t i = 0; i < spec.vms.size(); ++i) {
    const std::vector<double>& demand = spec.vms[i].demand;
    double sum = 0;
    int data = 0;
    for (const double d : demand) {
      if (d >= 0) {
        sum += d;
        ++data;
      }
    }
    const double mean = data > 0 ? sum / static_cast<double>(data) : 0.0;
    // Flatten the trace to its mean (keeps no-data markers in place).
    if (std::any_of(demand.begin(), demand.end(),
                    [mean](double d) { return d >= 0 && std::abs(d - mean) > 1e-12; })) {
      out.Add([i, mean](A& c) {
        for (double& d : c.vms[i].demand) d = d >= 0 ? mean : d;
      });
    }
    // Materialize the idle windows as mean demand.
    if (std::any_of(demand.begin(), demand.end(), [](double d) { return d < 0; })) {
      out.Add([i, mean](A& c) {
        for (double& d : c.vms[i].demand) d = d < 0 ? mean : d;
      });
    }
    // Round the trace onto a coarse grid.
    if (std::any_of(demand.begin(), demand.end(), off_grid)) {
      out.Add([i, off_grid](A& c) {
        for (double& d : c.vms[i].demand) d = off_grid(d) ? std::round(d * 64.0) / 64.0 : d;
      });
    }
  }
  if (spec.num_cpus > 2) {
    out.Add([](A& c) {
      c.num_cpus /= 2;
      c.cores_per_socket = std::min(c.cores_per_socket, c.num_cpus);
    });
  }
  return std::move(out.list);
}

}  // namespace tableau::check
