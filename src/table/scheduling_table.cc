#include "src/table/scheduling_table.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/common/math_util.h"

namespace tableau {
namespace {

constexpr std::uint32_t kMagic = 0x53'4c'42'54;  // "TBLS" little-endian.
constexpr std::uint32_t kVersion = 1;

// Writes `value` at `out` (inside a buffer sized by SerializedSizeBytes)
// and returns the position after it.
template <typename T>
std::uint8_t* Put(std::uint8_t* out, const T& value) {
  std::memcpy(out, &value, sizeof(T));
  return out + sizeof(T);
}

template <typename T>
T ReadAt(const std::vector<std::uint8_t>& in, std::size_t& pos) {
  TABLEAU_CHECK(pos + sizeof(T) <= in.size());
  T value;
  std::memcpy(&value, in.data() + pos, sizeof(T));
  pos += sizeof(T);
  return value;
}

// Sorted distinct vCPUs of `allocations`. A pCPU hosts a handful of vCPUs
// over hundreds of allocations, so insert into the sorted list on a miss.
std::vector<VcpuId> DistinctVcpus(const std::vector<Allocation>& allocations) {
  std::vector<VcpuId> vcpus;
  for (const Allocation& alloc : allocations) {
    const auto it = std::lower_bound(vcpus.begin(), vcpus.end(), alloc.vcpu);
    if (it == vcpus.end() || *it != alloc.vcpu) {
      vcpus.insert(it, alloc.vcpu);
    }
  }
  return vcpus;
}

}  // namespace

SchedulingTable SchedulingTable::Build(TimeNs length,
                                       std::vector<std::vector<Allocation>> per_cpu) {
  return BuildImpl(length, std::move(per_cpu), /*pow2_slices=*/true);
}

SchedulingTable SchedulingTable::BuildWithExactSlices(
    TimeNs length, std::vector<std::vector<Allocation>> per_cpu) {
  return BuildImpl(length, std::move(per_cpu), /*pow2_slices=*/false);
}

SchedulingTable SchedulingTable::BuildImpl(TimeNs length,
                                           std::vector<std::vector<Allocation>> per_cpu,
                                           bool pow2_slices) {
  TABLEAU_CHECK(length > 0);
  SchedulingTable table;
  table.length_ = length;
  table.cpus_.reserve(per_cpu.size());
  for (std::size_t c = 0; c < per_cpu.size(); ++c) {
    table.cpus_.push_back(MakeCpu(length, std::move(per_cpu[c]), pow2_slices, c));
  }
  return table;
}

SchedulingTable SchedulingTable::WithCores(
    const SchedulingTable& base, std::vector<std::pair<int, std::vector<Allocation>>> replaced) {
  SchedulingTable table = base;
  for (auto& [c, allocations] : replaced) {
    TABLEAU_CHECK(c >= 0 && c < table.num_cpus());
    table.cpus_[static_cast<std::size_t>(c)] =
        MakeCpu(table.length_, std::move(allocations), /*pow2_slices=*/true,
                static_cast<std::size_t>(c));
  }
  return table;
}

std::shared_ptr<const CpuTable> SchedulingTable::MakeCpu(TimeNs length,
                                                         std::vector<Allocation> allocations,
                                                         bool pow2_slices, std::size_t index) {
  auto cpu = std::make_shared<CpuTable>();
  cpu->allocations = std::move(allocations);
  std::sort(cpu->allocations.begin(), cpu->allocations.end(),
            [](const Allocation& a, const Allocation& b) { return a.start < b.start; });
  TimeNs prev_end = 0;
  TimeNs min_len = length;
  for (const Allocation& alloc : cpu->allocations) {
    TABLEAU_CHECK_MSG(alloc.start >= prev_end && alloc.end <= length && alloc.start < alloc.end,
                      "bad allocation [%lld,%lld) on cpu %zu",
                      static_cast<long long>(alloc.start), static_cast<long long>(alloc.end),
                      index);
    prev_end = alloc.end;
    min_len = std::min(min_len, alloc.Length());
  }
  cpu->local_vcpus = DistinctVcpus(cpu->allocations);

  // Slice length: the shortest allocation keeps every slice overlapping at
  // most two allocations; rounding down to a power of two preserves that
  // (slices only shrink) and turns the lookup division into a shift, for
  // at most 2x the slice count.
  cpu->slice_length = cpu->allocations.empty() ? length : min_len;
  if (pow2_slices) {
    cpu->slice_length =
        TimeNs{1} << (63 - __builtin_clzll(static_cast<std::uint64_t>(cpu->slice_length)));
  }
  FinalizeCpu(length, *cpu);
  return cpu;
}

void SchedulingTable::FinalizeCpu(TimeNs length, CpuTable& cpu) {
  TABLEAU_CHECK(cpu.slice_length > 0);
  const auto len = static_cast<std::uint64_t>(cpu.slice_length);
  cpu.slice_shift = (len & (len - 1)) == 0 ? __builtin_ctzll(len) : -1;

  // Column-wise mirror of `allocations` with two sentinel rows: a lookup may
  // advance one past its slice's floor allocation, and the idle tail peeks
  // one further for the next boundary — both land on {length, length, idle}
  // instead of needing bounds branches.
  const std::size_t n = cpu.allocations.size();
  cpu.alloc_start.resize(n + 2);
  cpu.alloc_end.resize(n + 2);
  cpu.alloc_vcpu.resize(n + 2);
  for (std::size_t i = 0; i < n; ++i) {
    cpu.alloc_start[i] = cpu.allocations[i].start;
    cpu.alloc_end[i] = cpu.allocations[i].end;
    cpu.alloc_vcpu[i] = cpu.allocations[i].vcpu;
  }
  for (std::size_t i = n; i < n + 2; ++i) {
    cpu.alloc_start[i] = length;
    cpu.alloc_end[i] = length;
    cpu.alloc_vcpu[i] = kIdleVcpu;
  }

  // slice_floor[s] = first allocation whose end is past the slice's start
  // (== the slice's first overlapping allocation when one exists, else the
  // next allocation after the slice, else the sentinel n).
  const std::size_t num_slices = static_cast<std::size_t>(CeilDiv(length, cpu.slice_length));
  cpu.slice_floor.resize(num_slices);
  std::size_t alloc_index = 0;
  for (std::size_t s = 0; s < num_slices; ++s) {
    const TimeNs slice_start = static_cast<TimeNs>(s) * cpu.slice_length;
    const TimeNs slice_end = std::min(slice_start + cpu.slice_length, length);
    while (alloc_index < n && cpu.allocations[alloc_index].end <= slice_start) {
      ++alloc_index;
    }
    cpu.slice_floor[s] = static_cast<std::int32_t>(alloc_index);
    // Invariant from the slice-length choice: no third overlap.
    TABLEAU_CHECK(alloc_index + 2 >= n || cpu.allocations[alloc_index + 2].start >= slice_end);
  }
}

LookupResult SchedulingTable::Lookup(int cpu_index, TimeNs offset) const {
  TABLEAU_CHECK(offset >= 0 && offset < length_);
  const CpuTable& cpu = *cpus_[static_cast<std::size_t>(cpu_index)];
  if (cpu.allocations.empty()) {
    return LookupResult{kIdleVcpu, 0, length_};
  }
  const auto slice_index =
      cpu.slice_shift >= 0
          ? static_cast<std::size_t>(offset) >> cpu.slice_shift
          : static_cast<std::size_t>(offset / cpu.slice_length);
  // Two-candidate select over the SoA mirror, branch-free: the floor
  // allocation serves unless the offset is past its end, in which case its
  // successor serves (a slice never needs a third candidate, and the
  // sentinel rows absorb the end-of-table cases).
  const auto k0 = static_cast<std::size_t>(cpu.slice_floor[slice_index]);
  const std::size_t k = k0 + static_cast<std::size_t>(offset >= cpu.alloc_end[k0]);
  const TimeNs a_start = cpu.alloc_start[k];
  const TimeNs a_end = cpu.alloc_end[k];
  if (offset >= a_end) {
    // Rare: both candidates end inside the slice and the offset is past them.
    // By the slice invariant the next allocation starts at or after the slice
    // end (sentinel start == length_ when there is none).
    return LookupResult{kIdleVcpu, static_cast<std::int32_t>(k + 1), cpu.alloc_start[k + 1]};
  }
  const bool served = offset >= a_start;
  return LookupResult{served ? cpu.alloc_vcpu[k] : kIdleVcpu,
                      static_cast<std::int32_t>(k + static_cast<std::size_t>(served)),
                      served ? a_end : a_start};
}

LookupResult SchedulingTable::LookupLinear(int cpu_index, TimeNs offset) const {
  TABLEAU_CHECK(offset >= 0 && offset < length_);
  const CpuTable& cpu = *cpus_[static_cast<std::size_t>(cpu_index)];
  const auto n = static_cast<std::int32_t>(cpu.allocations.size());
  for (std::int32_t k = 0; k < n; ++k) {
    const Allocation& alloc = cpu.allocations[static_cast<std::size_t>(k)];
    if (offset < alloc.start) {
      return LookupResult{kIdleVcpu, k, alloc.start};
    }
    if (offset < alloc.end) {
      return LookupResult{alloc.vcpu, k + 1, alloc.end};
    }
  }
  return LookupResult{kIdleVcpu, n, length_};
}

std::vector<int> SchedulingTable::CpusOf(VcpuId vcpu) const {
  std::vector<int> cpus;
  for (int c = 0; c < num_cpus(); ++c) {
    for (const Allocation& alloc : cpu(c).allocations) {
      if (alloc.vcpu == vcpu) {
        cpus.push_back(c);
        break;
      }
    }
  }
  return cpus;
}

TimeNs SchedulingTable::TotalService(VcpuId vcpu) const {
  TimeNs total = 0;
  for (const auto& cpu : cpus_) {
    for (const Allocation& alloc : cpu->allocations) {
      if (alloc.vcpu == vcpu) {
        total += alloc.Length();
      }
    }
  }
  return total;
}

TimeNs SchedulingTable::MaxBlackout(VcpuId vcpu) const {
  std::vector<Allocation> service;
  for (const auto& cpu : cpus_) {
    for (const Allocation& alloc : cpu->allocations) {
      if (alloc.vcpu == vcpu) {
        service.push_back(alloc);
      }
    }
  }
  if (service.empty()) {
    return length_;
  }
  std::sort(service.begin(), service.end(),
            [](const Allocation& a, const Allocation& b) { return a.start < b.start; });
  TimeNs max_gap = 0;
  TimeNs covered_until = service.front().end;
  for (std::size_t i = 1; i < service.size(); ++i) {
    if (service[i].start > covered_until) {
      max_gap = std::max(max_gap, service[i].start - covered_until);
    }
    covered_until = std::max(covered_until, service[i].end);
  }
  // Cyclic wrap: gap from the last service to the first of the next cycle.
  const TimeNs wrap_gap = (length_ - covered_until) + service.front().start;
  return std::max(max_gap, wrap_gap);
}

std::string SchedulingTable::Validate() const {
  for (int c = 0; c < num_cpus(); ++c) {
    std::string violation = ValidateCpu(c);
    if (!violation.empty()) {
      return violation;
    }
  }
  return ValidateExclusion(nullptr);
}

std::string SchedulingTable::ValidateCores(std::vector<int> cores) const {
  std::sort(cores.begin(), cores.end());
  std::vector<char> scope(cpus_.size(), 0);
  for (const int c : cores) {
    if (c < 0 || c >= num_cpus()) {
      return "cpu " + std::to_string(c) + ": not in the table";
    }
    std::string violation = ValidateCpu(c);
    if (!violation.empty()) {
      return violation;
    }
    scope[static_cast<std::size_t>(c)] = 1;
  }
  return ValidateExclusion(&scope);
}

std::string SchedulingTable::ValidateCpu(int c) const {
  const CpuTable& cpu = *cpus_[static_cast<std::size_t>(c)];
  TimeNs prev_end = 0;
  for (const Allocation& alloc : cpu.allocations) {
    if (alloc.start < prev_end || alloc.end > length_ || alloc.start >= alloc.end) {
      return "cpu " + std::to_string(c) + ": malformed or overlapping allocation";
    }
    prev_end = alloc.end;
  }
  if (!cpu.allocations.empty()) {
    TimeNs min_len = length_;
    for (const Allocation& alloc : cpu.allocations) {
      min_len = std::min(min_len, alloc.Length());
    }
    // Power-of-two rounding may shorten slices but must never lengthen
    // them past the shortest allocation (the two-overlap invariant).
    if (cpu.slice_length <= 0 || cpu.slice_length > min_len) {
      return "cpu " + std::to_string(c) + ": slice length exceeds shortest allocation";
    }
  }
  const auto len = static_cast<std::uint64_t>(cpu.slice_length);
  const std::int32_t want_shift =
      (len != 0 && (len & (len - 1)) == 0) ? __builtin_ctzll(len) : -1;
  if (cpu.slice_shift != want_shift) {
    return "cpu " + std::to_string(c) + ": slice_shift inconsistent with slice_length";
  }
  if (cpu.slice_floor.size() != static_cast<std::size_t>(CeilDiv(length_, cpu.slice_length))) {
    return "cpu " + std::to_string(c) + ": slice count != ceil(length / slice_length)";
  }
  // The SoA mirror must match the allocation records plus sentinels, and
  // every slice floor must point at the first allocation ending past the
  // slice start.
  const std::size_t n = cpu.allocations.size();
  if (cpu.alloc_start.size() != n + 2 || cpu.alloc_end.size() != n + 2 ||
      cpu.alloc_vcpu.size() != n + 2) {
    return "cpu " + std::to_string(c) + ": SoA mirror size mismatch";
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (cpu.alloc_start[i] != cpu.allocations[i].start ||
        cpu.alloc_end[i] != cpu.allocations[i].end ||
        cpu.alloc_vcpu[i] != cpu.allocations[i].vcpu) {
      return "cpu " + std::to_string(c) + ": SoA mirror desynced from allocations";
    }
  }
  for (std::size_t i = n; i < n + 2; ++i) {
    if (cpu.alloc_start[i] != length_ || cpu.alloc_end[i] != length_ ||
        cpu.alloc_vcpu[i] != kIdleVcpu) {
      return "cpu " + std::to_string(c) + ": bad SoA sentinel row";
    }
  }
  // Slice starts only grow, so the first allocation ending past one is at
  // or after the previous slice's: one forward pass finds every floor.
  std::size_t want = 0;
  for (std::size_t s = 0; s < cpu.slice_floor.size(); ++s) {
    const TimeNs slice_start = static_cast<TimeNs>(s) * cpu.slice_length;
    while (want < n && cpu.allocations[want].end <= slice_start) {
      ++want;
    }
    if (cpu.slice_floor[s] != static_cast<std::int32_t>(want)) {
      return "cpu " + std::to_string(c) + ": slice floor desynced at slice " + std::to_string(s);
    }
  }
  // local_vcpus (second-level candidates, and the cross-core check's index)
  // must be exactly the sorted distinct vCPUs of the allocations.
  if (cpu.local_vcpus != DistinctVcpus(cpu.allocations)) {
    return "cpu " + std::to_string(c) + ": local_vcpus != distinct vCPUs of its allocations";
  }
  return "";
}

std::string SchedulingTable::ValidateExclusion(const std::vector<char>* scope) const {
  // No vCPU may be allocated on two pCPUs at the same instant. Each core's
  // own ordering check already rules out self-overlap on one core, so only
  // vCPUs present on two or more cores (found through the validated
  // local_vcpus lists) need a sweep over their merged allocations.
  std::vector<std::pair<VcpuId, int>> homes;
  for (int c = 0; c < num_cpus(); ++c) {
    for (const VcpuId vcpu : cpu(c).local_vcpus) {
      homes.emplace_back(vcpu, c);
    }
  }
  std::sort(homes.begin(), homes.end());
  std::vector<std::pair<TimeNs, TimeNs>> spans;
  for (std::size_t i = 0; i < homes.size();) {
    std::size_t j = i + 1;
    bool in_scope = scope == nullptr || (*scope)[static_cast<std::size_t>(homes[i].second)];
    for (; j < homes.size() && homes[j].first == homes[i].first; ++j) {
      in_scope = in_scope || (*scope)[static_cast<std::size_t>(homes[j].second)];
    }
    if (j - i >= 2 && in_scope) {
      const VcpuId vcpu = homes[i].first;
      spans.clear();
      for (std::size_t k = i; k < j; ++k) {
        for (const Allocation& alloc : cpu(homes[k].second).allocations) {
          if (alloc.vcpu == vcpu) {
            spans.emplace_back(alloc.start, alloc.end);
          }
        }
      }
      // Half-open spans sorted by start overlap iff one starts before the
      // furthest end seen so far (back-to-back spans do not overlap).
      std::sort(spans.begin(), spans.end());
      TimeNs reach = spans.front().second;
      for (std::size_t k = 1; k < spans.size(); ++k) {
        if (spans[k].first < reach) {
          return "vcpu " + std::to_string(vcpu) + " allocated on two pCPUs concurrently";
        }
        reach = std::max(reach, spans[k].second);
      }
    }
    i = j;
  }
  return "";
}

std::vector<std::uint8_t> SchedulingTable::Serialize() const {
  std::vector<std::uint8_t> out(SerializedSizeBytes());
  std::uint8_t* p = out.data();
  p = Put(p, kMagic);
  p = Put(p, kVersion);
  p = Put(p, length_);
  p = Put(p, static_cast<std::uint32_t>(cpus_.size()));
  for (const auto& cpu_ptr : cpus_) {
    const CpuTable& cpu = *cpu_ptr;
    p = Put(p, static_cast<std::uint32_t>(cpu.allocations.size()));
    p = Put(p, cpu.slice_length);
    p = Put(p, static_cast<std::uint32_t>(cpu.slice_floor.size()));
    p = Put(p, static_cast<std::uint32_t>(cpu.local_vcpus.size()));
    for (const Allocation& alloc : cpu.allocations) {
      p = Put(p, alloc.vcpu);
      p = Put(p, alloc.start);
      p = Put(p, alloc.end);
    }
    // v1 wire format: per-slice {first, second} overlap indices (-1 when
    // absent), derived from the floor encoding so old consumers keep parsing.
    const auto n = static_cast<std::int32_t>(cpu.allocations.size());
    for (std::size_t s = 0; s < cpu.slice_floor.size(); ++s) {
      const TimeNs slice_end =
          std::min(static_cast<TimeNs>(s + 1) * cpu.slice_length, length_);
      const std::int32_t k = cpu.slice_floor[s];
      const bool has_first = k < n && cpu.allocations[static_cast<std::size_t>(k)].start < slice_end;
      const bool has_second =
          has_first && k + 1 < n &&
          cpu.allocations[static_cast<std::size_t>(k) + 1].start < slice_end;
      p = Put(p, has_first ? k : std::int32_t{-1});
      p = Put(p, has_second ? k + 1 : std::int32_t{-1});
    }
    if (!cpu.local_vcpus.empty()) {
      const std::size_t bytes = cpu.local_vcpus.size() * sizeof(VcpuId);
      std::memcpy(p, cpu.local_vcpus.data(), bytes);
      p += bytes;
    }
  }
  TABLEAU_CHECK(p == out.data() + out.size());
  return out;
}

SchedulingTable SchedulingTable::Deserialize(const std::vector<std::uint8_t>& bytes) {
  std::size_t pos = 0;
  TABLEAU_CHECK(ReadAt<std::uint32_t>(bytes, pos) == kMagic);
  TABLEAU_CHECK(ReadAt<std::uint32_t>(bytes, pos) == kVersion);
  SchedulingTable table;
  table.length_ = ReadAt<TimeNs>(bytes, pos);
  const auto num_cpus = ReadAt<std::uint32_t>(bytes, pos);
  table.cpus_.reserve(num_cpus);
  for (std::uint32_t c = 0; c < num_cpus; ++c) {
    auto cpu_ptr = std::make_shared<CpuTable>();
    CpuTable& cpu = *cpu_ptr;
    const auto num_allocs = ReadAt<std::uint32_t>(bytes, pos);
    cpu.slice_length = ReadAt<TimeNs>(bytes, pos);
    const auto num_slices = ReadAt<std::uint32_t>(bytes, pos);
    const auto num_locals = ReadAt<std::uint32_t>(bytes, pos);
    cpu.allocations.resize(num_allocs);
    for (Allocation& alloc : cpu.allocations) {
      alloc.vcpu = ReadAt<VcpuId>(bytes, pos);
      alloc.start = ReadAt<TimeNs>(bytes, pos);
      alloc.end = ReadAt<TimeNs>(bytes, pos);
    }
    // The per-slice {first, second} pairs are fully derivable from the
    // allocations and slice length; consume and discard them, then rebuild
    // the lookup structures in the SoA layout (this also upgrades old
    // non-power-of-two blobs in place — they keep their slice geometry and
    // take the division path).
    for (std::uint32_t s = 0; s < num_slices; ++s) {
      ReadAt<std::int32_t>(bytes, pos);
      ReadAt<std::int32_t>(bytes, pos);
    }
    cpu.local_vcpus.resize(num_locals);
    for (VcpuId& vcpu : cpu.local_vcpus) {
      vcpu = ReadAt<VcpuId>(bytes, pos);
    }
    FinalizeCpu(table.length_, cpu);
    TABLEAU_CHECK(cpu.slice_floor.size() == num_slices);
    table.cpus_.push_back(std::move(cpu_ptr));
  }
  TABLEAU_CHECK(pos == bytes.size());
  return table;
}

std::size_t SchedulingTable::SerializedSizeBytes() const {
  // Header {magic, version, length, num_cpus}; per pCPU {num_allocs,
  // slice_length, num_slices, num_locals}, then {vcpu, start, end} per
  // allocation, {first, second} per slice and one id per local vCPU.
  std::size_t size = 3 * sizeof(std::uint32_t) + sizeof(TimeNs);
  for (const auto& cpu : cpus_) {
    size += 3 * sizeof(std::uint32_t) + sizeof(TimeNs) +
            cpu->allocations.size() * (sizeof(VcpuId) + 2 * sizeof(TimeNs)) +
            cpu->slice_floor.size() * 2 * sizeof(std::int32_t) +
            cpu->local_vcpus.size() * sizeof(VcpuId);
  }
  return size;
}

LatencyProfile AnalyzeWakeupLatency(const SchedulingTable& table, VcpuId vcpu) {
  LatencyProfile profile;
  // Collect the vCPU's service intervals across all pCPUs (time order).
  std::vector<Allocation> service;
  for (int c = 0; c < table.num_cpus(); ++c) {
    for (const Allocation& alloc : table.cpu(c).allocations) {
      if (alloc.vcpu == vcpu) {
        service.push_back(alloc);
      }
    }
  }
  const TimeNs length = table.length();
  if (service.empty()) {
    profile.mean = profile.p99 = profile.max = length;
    return profile;
  }
  std::sort(service.begin(), service.end(),
            [](const Allocation& a, const Allocation& b) { return a.start < b.start; });

  // Gaps between consecutive service intervals (cyclic), merging overlap.
  std::vector<TimeNs> gaps;
  TimeNs covered = 0;
  TimeNs covered_until = service.front().end;
  covered += service.front().Length();
  for (std::size_t i = 1; i < service.size(); ++i) {
    if (service[i].start > covered_until) {
      gaps.push_back(service[i].start - covered_until);
    }
    const TimeNs begin = std::max(service[i].start, covered_until);
    covered += std::max<TimeNs>(0, service[i].end - begin);
    covered_until = std::max(covered_until, service[i].end);
  }
  const TimeNs wrap = (length - covered_until) + service.front().start;
  if (wrap > 0) {
    gaps.push_back(wrap);
  }

  profile.service_fraction = static_cast<double>(covered) / static_cast<double>(length);
  // An arrival inside a gap of length g waits Uniform(0, g); the arrival
  // lands in that gap with probability g / length. Hence
  //   E[wait] = sum(g^2 / 2) / length.
  double mean = 0;
  TimeNs max_gap = 0;
  for (const TimeNs gap : gaps) {
    mean += static_cast<double>(gap) * static_cast<double>(gap) / 2.0;
    max_gap = std::max(max_gap, gap);
  }
  profile.mean = static_cast<TimeNs>(mean / static_cast<double>(length));
  profile.max = max_gap;

  // p99: the wait CCDF is P(wait > w) = sum over gaps of max(0, g - w) / L;
  // binary-search the 1% point.
  const double target = 0.01;
  TimeNs lo = 0;
  TimeNs hi = max_gap;
  while (lo < hi) {
    const TimeNs mid = lo + (hi - lo) / 2;
    double tail = 0;
    for (const TimeNs gap : gaps) {
      tail += static_cast<double>(std::max<TimeNs>(0, gap - mid));
    }
    if (tail / static_cast<double>(length) > target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  profile.p99 = lo;
  return profile;
}

namespace {

// True when `vcpu` holds time overlapping `span` on a pCPU other than `cpu`
// (a C=D or DP-Fair vCPU that migrates between pCPUs).
bool RunsElsewhere(const std::vector<std::vector<Allocation>>& per_cpu, std::size_t cpu,
                   VcpuId vcpu, const Allocation& span) {
  for (std::size_t other = 0; other < per_cpu.size(); ++other) {
    for (const Allocation& alloc : per_cpu[other]) {
      if (other != cpu && alloc.vcpu == vcpu && alloc.start < span.end &&
          span.start < alloc.end) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

std::vector<std::vector<Allocation>> CoalesceAllocations(
    std::vector<std::vector<Allocation>> per_cpu, TimeNs threshold,
    std::vector<std::pair<VcpuId, TimeNs>>* donated_out) {
  for (std::size_t c = 0; c < per_cpu.size(); ++c) {
    std::vector<Allocation>& cpu = per_cpu[c];
    std::sort(cpu.begin(), cpu.end(),
              [](const Allocation& a, const Allocation& b) { return a.start < b.start; });
    std::vector<Allocation> result;
    for (const Allocation& alloc : cpu) {
      // Merge contiguous same-vCPU allocations first.
      if (!result.empty() && result.back().vcpu == alloc.vcpu &&
          result.back().end == alloc.start) {
        result.back().end = alloc.end;
        continue;
      }
      if (alloc.Length() >= threshold) {
        result.push_back(alloc);
        continue;
      }
      // Sub-threshold sliver: donate to the time-adjacent predecessor if
      // contiguous and not running elsewhere meanwhile; otherwise it is
      // dropped and the interval stays idle (recoverable via second-level
      // scheduling at runtime).
      if (donated_out != nullptr) {
        donated_out->emplace_back(alloc.vcpu, alloc.Length());
      }
      if (!result.empty() && result.back().end == alloc.start &&
          !RunsElsewhere(per_cpu, c, result.back().vcpu, alloc)) {
        result.back().end = alloc.end;
      }
    }
    cpu = std::move(result);
  }
  return per_cpu;
}

}  // namespace tableau
