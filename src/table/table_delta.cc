#include "src/table/table_delta.h"

#include <cstring>
#include <utility>

#include "src/common/check.h"

namespace tableau {
namespace {

constexpr std::uint32_t kDeltaMagic = 0x44'4c'42'54;  // "TBLD" little-endian.
constexpr std::uint32_t kDeltaVersion = 1;

template <typename T>
void Append(std::vector<std::uint8_t>& out, const T& value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
T ReadAt(const std::vector<std::uint8_t>& in, std::size_t& pos) {
  TABLEAU_CHECK(pos + sizeof(T) <= in.size());
  T value;
  std::memcpy(&value, in.data() + pos, sizeof(T));
  pos += sizeof(T);
  return value;
}

void AppendAllocations(std::vector<std::uint8_t>& out,
                       const std::vector<Allocation>& allocations) {
  Append(out, static_cast<std::uint32_t>(allocations.size()));
  for (const Allocation& alloc : allocations) {
    Append(out, alloc.vcpu);
    Append(out, alloc.start);
    Append(out, alloc.end);
  }
}

std::vector<Allocation> ReadAllocations(const std::vector<std::uint8_t>& in,
                                        std::size_t& pos) {
  const auto count = ReadAt<std::uint32_t>(in, pos);
  std::vector<Allocation> allocations(count);
  for (Allocation& alloc : allocations) {
    alloc.vcpu = ReadAt<VcpuId>(in, pos);
    alloc.start = ReadAt<TimeNs>(in, pos);
    alloc.end = ReadAt<TimeNs>(in, pos);
  }
  return allocations;
}

}  // namespace

std::vector<std::uint8_t> SerializeDelta(const SchedulingTable& base,
                                         const SchedulingTable& next) {
  TABLEAU_CHECK_MSG(base.length() == next.length() && base.num_cpus() == next.num_cpus(),
                    "delta requires identical table geometry");
  std::vector<int> dirty;
  for (int cpu = 0; cpu < base.num_cpus(); ++cpu) {
    // A core `next` shares with `base` is unchanged by construction.
    if (!next.SharesCpu(base, cpu) &&
        base.cpu(cpu).allocations != next.cpu(cpu).allocations) {
      dirty.push_back(cpu);
    }
  }

  std::vector<std::uint8_t> out;
  Append(out, kDeltaMagic);
  Append(out, kDeltaVersion);
  Append(out, next.length());
  Append(out, static_cast<std::uint32_t>(next.num_cpus()));
  Append(out, static_cast<std::uint32_t>(dirty.size()));
  for (const int cpu : dirty) {
    Append(out, static_cast<std::uint32_t>(cpu));
    AppendAllocations(out, next.cpu(cpu).allocations);
  }
  return out;
}

SchedulingTable ApplyDelta(const SchedulingTable& base,
                           const std::vector<std::uint8_t>& delta) {
  std::size_t pos = 0;
  TABLEAU_CHECK_MSG(ReadAt<std::uint32_t>(delta, pos) == kDeltaMagic,
                    "bad delta magic");
  TABLEAU_CHECK(ReadAt<std::uint32_t>(delta, pos) == kDeltaVersion);
  const TimeNs length = ReadAt<TimeNs>(delta, pos);
  const auto num_cpus = static_cast<int>(ReadAt<std::uint32_t>(delta, pos));
  TABLEAU_CHECK_MSG(length == base.length() && num_cpus == base.num_cpus(),
                    "delta does not match the base table's geometry");

  std::vector<std::pair<int, std::vector<Allocation>>> replaced;
  const auto dirty = ReadAt<std::uint32_t>(delta, pos);
  for (std::uint32_t i = 0; i < dirty; ++i) {
    const auto cpu = ReadAt<std::uint32_t>(delta, pos);
    TABLEAU_CHECK(cpu < static_cast<std::uint32_t>(num_cpus));
    replaced.emplace_back(static_cast<int>(cpu), ReadAllocations(delta, pos));
  }
  TABLEAU_CHECK(pos == delta.size());
  // Slice tables and local-vCPU lists are derived, so WithCores rebuilds
  // them for the dirty cores; every other core is shared with `base`.
  return SchedulingTable::WithCores(base, std::move(replaced));
}

int DeltaDirtyCores(const std::vector<std::uint8_t>& delta) {
  std::size_t pos = sizeof(std::uint32_t) * 2 + sizeof(TimeNs) + sizeof(std::uint32_t);
  return static_cast<int>(ReadAt<std::uint32_t>(delta, pos));
}

}  // namespace tableau
