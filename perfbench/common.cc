#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "perfbench/perfbench.h"
#include "src/table/scheduling_table.h"

namespace perfbench {

int LoadThreads() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hardware, 1u, 4u));
}

void Fnv::Bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ull;
  }
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) {
    return 0;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(sorted.size()))) -
      1;
  return sorted[index];
}

double Samples::Sum() const {
  double sum = 0;
  for (const double v : values_) {
    sum += v;
  }
  return sum;
}

void RunResult::LayerTiming(const std::string& name, const Samples& samples,
                            const char* unit) {
  Layer(name, samples.Quantile(0.5), unit, samples.size());
  Layer(name + ".p99", samples.Quantile(0.99), unit, samples.size());
}

double LookupSweepNs(const tableau::SchedulingTable& table, Tracer& tracer, std::uint64_t id) {
  constexpr int kLookupsPerCpu = 4096;
  const tableau::TimeNs stride = table.length() / kLookupsPerCpu;
  std::int64_t sink = 0;
  const int span = tracer.Begin("table.lookup_sweep", id);
  const std::int64_t start = NowNs();
  for (int c = 0; c < table.num_cpus(); ++c) {
    for (int k = 0; k < kLookupsPerCpu; ++k) {
      sink += table.Lookup(c, k * stride + k % 7).vcpu;
    }
  }
  const std::int64_t elapsed = NowNs() - start;
  tracer.End(span, sink);  // The sum keeps the lookups from being elided.
  return static_cast<double>(elapsed) / (static_cast<double>(table.num_cpus()) * kLookupsPerCpu);
}

int Tracer::Begin(const char* name, std::uint64_t id) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.id = id;
  span.parent = open_.empty() ? -1 : open_.back();
  const int index = static_cast<int>(spans_.size());
  open_.push_back(index);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return index;
}

void Tracer::End(int span, std::int64_t count, std::int64_t aggregated_child_ns) {
  if (span < 0) {
    return;
  }
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.end_ns = NowNs();
  s.count = count;
  s.aggregated_child_ns = aggregated_child_ns;
  // Spans close in LIFO order; tolerate a caller closing an outer span first.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == span) {
      break;
    }
  }
}

Samples Tracer::DurationsMs(std::string_view name) const {
  Samples samples;
  for (const Span& span : spans_) {
    if (name == span.name && span.end_ns >= span.start_ns) {
      samples.Add(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return samples;
}

std::vector<std::int64_t> Tracer::SelfTimesNs() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns - spans_[i].aggregated_child_ns;
  }
  // Children of one parent run sequentially on the benchmark thread, so
  // they never overlap and their durations subtract directly.
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Totals> by_name;
  const std::vector<std::int64_t> self = SelfTimesNs();
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\n  \"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "    {\"i\": %zu, \"name\": \"%s\", \"id\": %llu, \"parent\": %d, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"self_ns\": %lld, \"count\": %lld}%s\n",
                 i, s.name, static_cast<unsigned long long>(s.id), s.parent,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin), static_cast<long long>(self[i]),
                 static_cast<long long>(s.count), i + 1 < spans_.size() ? "," : "");
    Totals& totals = by_name[s.name];
    ++totals.count;
    totals.total_ns += s.end_ns - s.start_ns;
    totals.self_ns += self[i];
  }
  std::fprintf(out, "  ],\n  \"summary\": {\n");
  std::size_t emitted = 0;
  for (const auto& [name, totals] : by_name) {
    std::fprintf(out, "    \"%s\": {\"count\": %llu, \"total_ms\": %.6f, \"self_ms\": %.6f}%s\n",
                 name.c_str(), static_cast<unsigned long long>(totals.count),
                 static_cast<double>(totals.total_ns) / 1e6,
                 static_cast<double>(totals.self_ns) / 1e6,
                 ++emitted < by_name.size() ? "," : "");
  }
  std::fprintf(out, "  }\n}\n");
  const bool written = std::ferror(out) == 0;
  return std::fclose(out) == 0 && written;
}

}  // namespace perfbench
