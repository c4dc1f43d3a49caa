#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "src/common/check.h"
#include "src/common/parse.h"
#include "src/obs/json.h"

namespace tableau::obs {

namespace {

// Inclusive upper edge of a Log2Histogram bucket, as exported.
std::int64_t BucketEdge(int index) {
  return static_cast<std::int64_t>(Log2Histogram::BucketUpperEdge(index));
}

// A sparse export back in Log2Histogram's dense layout, so Delta and Merge
// are per-bucket arithmetic followed by the one sparse export.
std::array<std::uint64_t, Log2Histogram::kBuckets> DenseBuckets(
    const HistogramValue& h) {
  std::array<std::uint64_t, Log2Histogram::kBuckets> counts = {};
  for (const auto& [index, n] : h.buckets) {
    counts[static_cast<std::size_t>(index)] += n;
  }
  return counts;
}

// `v` truncated to an integer of type T, or nullopt if it is NaN, infinite
// or out of T's range (the cast would be undefined behaviour).
template <typename T>
std::optional<T> IntegerOf(double v) {
  // T's max rounds up to the power of two just past it: the exclusive bound.
  constexpr double kLow = static_cast<double>(std::numeric_limits<T>::min());
  constexpr double kHigh = static_cast<double>(std::numeric_limits<T>::max());
  if (!(v >= kLow && v < kHigh)) {
    return std::nullopt;
  }
  return static_cast<T>(v);
}

}  // namespace

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

std::int64_t HistogramValue::Percentile(double q) const {
  if (count == 0) {
    return 0;
  }
  if (q >= 1.0) {
    return max;
  }
  if (q < 0) {
    q = 0;
  }
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  std::uint64_t seen = 0;
  for (const auto& [index, bucket_count] : buckets) {
    if (seen + bucket_count >= rank) {
      // Interpolate by rank within the winning bucket: the rank-th sample of
      // `bucket_count` spread uniformly over [lower, upper]. fraction is in
      // (0, 1], so a full-bucket rank lands on the upper edge (the old
      // convention) and the result is never below the bucket's lower edge.
      // Clamping to the exact [min, max] keeps degenerate cases (single
      // sample, extreme quantiles) exact; the residual error is bounded by
      // the winning bucket's width (upper - lower < true value for log2
      // buckets).
      const std::int64_t lower =
          index == 0 ? 0 : BucketEdge(index - 1) + 1;
      const std::int64_t upper = BucketEdge(index);
      const double fraction = static_cast<double>(rank - seen) /
                              static_cast<double>(bucket_count);
      const auto value = static_cast<std::int64_t>(
          static_cast<double>(lower) +
          (static_cast<double>(upper) - static_cast<double>(lower)) * fraction);
      return std::clamp(value, min, max);
    }
    seen += bucket_count;
  }
  return max;
}

HistogramValue ToHistogramValue(
    std::uint64_t count, std::int64_t sum, std::int64_t min, std::int64_t max,
    const std::array<std::uint64_t, Log2Histogram::kBuckets>& buckets) {
  HistogramValue value{count, sum, min, max, {}};
  value.buckets.reserve(static_cast<std::size_t>(
      Log2Histogram::kBuckets - std::count(buckets.begin(), buckets.end(), 0)));
  for (int i = 0; i < Log2Histogram::kBuckets; ++i) {
    if (buckets[static_cast<std::size_t>(i)] > 0) {
      value.buckets.emplace_back(i, buckets[static_cast<std::size_t>(i)]);
    }
  }
  return value;
}

std::string CsvEscapeField(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) {
    return field;
  }
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out += c;
    }
  }
  out += "\"";
  return out;
}

std::vector<std::string> SplitCsvRow(const std::string& row) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < row.size(); ++i) {
    const char c = row[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < row.size() && row[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"' && field.empty()) {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field += c;
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

MetricsRegistry::Entry& MetricsRegistry::FindOrCreate(const std::string& name,
                                                      MetricKind kind) {
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    TABLEAU_CHECK_MSG(it->second.kind == kind,
                      "metric '%s' already registered as a %s", name.c_str(),
                      MetricKindName(it->second.kind));
    return it->second;
  }
  Entry entry;
  entry.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      entry.counter.reset(new Counter(&enabled_));
      break;
    case MetricKind::kGauge:
      entry.gauge.reset(new Gauge(&enabled_));
      break;
    case MetricKind::kHistogram:
      entry.hist.reset(new LatencyHistogram(&enabled_));
      break;
  }
  return entries_.emplace(name, std::move(entry)).first->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrCreate(name, MetricKind::kCounter).counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrCreate(name, MetricKind::kGauge).gauge.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrCreate(name, MetricKind::kHistogram).hist.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, entry] : entries_) {
    MetricValue value;
    value.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        value.counter = entry.counter->value();
        break;
      case MetricKind::kGauge:
        value.gauge = entry.gauge->value();
        break;
      case MetricKind::kHistogram: {
        const LatencyHistogram& hist = *entry.hist;
        std::array<std::uint64_t, Log2Histogram::kBuckets> counts;
        for (int i = 0; i < Log2Histogram::kBuckets; ++i) {
          counts[static_cast<std::size_t>(i)] =
              hist.buckets_[i].load(std::memory_order_relaxed);
        }
        value.hist = ToHistogramValue(hist.Count(), hist.Sum(), hist.Min(),
                                      hist.Max(), counts);
        break;
      }
    }
    snapshot.values.emplace(name, std::move(value));
  }
  return snapshot;
}

MetricsSnapshot MetricsSnapshot::Delta(const MetricsSnapshot& since) const {
  MetricsSnapshot delta = *this;
  for (auto& [name, value] : delta.values) {
    const auto it = since.values.find(name);
    if (it == since.values.end() || it->second.kind != value.kind) {
      continue;
    }
    const MetricValue& old = it->second;
    switch (value.kind) {
      case MetricKind::kCounter:
        value.counter -= old.counter;
        break;
      case MetricKind::kGauge:
        break;  // Gauges keep the newer reading.
      case MetricKind::kHistogram: {
        HistogramValue& h = value.hist;
        auto counts = DenseBuckets(h);
        for (const auto& [index, n] : old.hist.buckets) {
          counts[static_cast<std::size_t>(index)] -=
              std::min(counts[static_cast<std::size_t>(index)], n);
        }
        // min/max are not invertible over an interval; keep the newer ones.
        h = ToHistogramValue(h.count - std::min(h.count, old.hist.count),
                             h.sum - old.hist.sum, h.min, h.max, counts);
        break;
      }
    }
  }
  return delta;
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, incoming] : other.values) {
    const auto it = values.find(name);
    if (it == values.end()) {
      values.emplace(name, incoming);
      continue;
    }
    MetricValue& mine = it->second;
    if (mine.kind != incoming.kind) {
      continue;  // Name collision across kinds: keep the first registration.
    }
    switch (mine.kind) {
      case MetricKind::kCounter:
        mine.counter += incoming.counter;
        break;
      case MetricKind::kGauge:
        mine.gauge = std::max(mine.gauge, incoming.gauge);
        break;
      case MetricKind::kHistogram: {
        HistogramValue& h = mine.hist;
        const HistogramValue& o = incoming.hist;
        if (o.count > 0) {
          h.min = h.count == 0 ? o.min : std::min(h.min, o.min);
          h.max = std::max(h.max, o.max);
        }
        auto counts = DenseBuckets(h);
        for (const auto& [index, n] : o.buckets) {
          counts[static_cast<std::size_t>(index)] += n;
        }
        h = ToHistogramValue(h.count + o.count, h.sum + o.sum, h.min, h.max,
                             counts);
        break;
      }
    }
  }
}

namespace {

std::string Pad(int indent) { return std::string(static_cast<std::size_t>(indent), ' '); }

// %.17g round-trips doubles exactly; trims to a clean integer form when one.
std::string FormatDouble(double value) {
  char buf[64];
  if (value == static_cast<double>(static_cast<std::int64_t>(value)) &&
      std::abs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  return buf;
}

}  // namespace

const char* MetricsSnapshot::SchemaVersion() {
  static_assert(MetricsSnapshot::kSchemaVersionMajor == 1 &&
                MetricsSnapshot::kSchemaVersionMinor == 0);
  return "1.0";
}

std::string MetricsSnapshot::ToJson(int indent) const {
  const std::string p0 = Pad(indent);
  const std::string p1 = Pad(indent + 2);
  const std::string p2 = Pad(indent + 4);
  std::string out = "{\n";
  out += p1 + "\"schema_version\": \"" + SchemaVersion() + "\",\n";

  const auto EmitSection = [&](MetricKind kind, const char* title,
                               const auto& emit_value, bool last) {
    out += p1 + "\"" + title + "\": {";
    bool first = true;
    for (const auto& [name, value] : values) {
      if (value.kind != kind) {
        continue;
      }
      out += first ? "\n" : ",\n";
      first = false;
      out += p2 + "\"" + JsonEscape(name) + "\": " + emit_value(value);
    }
    out += first ? "}" : "\n" + p1 + "}";
    out += last ? "\n" : ",\n";
  };

  EmitSection(
      MetricKind::kCounter, "counters",
      [](const MetricValue& v) { return std::to_string(v.counter); }, false);
  EmitSection(
      MetricKind::kGauge, "gauges",
      [](const MetricValue& v) { return FormatDouble(v.gauge); }, false);
  EmitSection(
      MetricKind::kHistogram, "histograms",
      [](const MetricValue& v) {
        std::string h = "{\"count\": " + std::to_string(v.hist.count) +
                        ", \"sum\": " + std::to_string(v.hist.sum) +
                        ", \"min\": " + std::to_string(v.hist.min) +
                        ", \"max\": " + std::to_string(v.hist.max) +
                        ", \"buckets\": [";
        bool first = true;
        for (const auto& [index, n] : v.hist.buckets) {
          if (!first) {
            h += ", ";
          }
          first = false;
          h += "[" + std::to_string(BucketEdge(index)) +
               ", " + std::to_string(n) + "]";
        }
        h += "]}";
        return h;
      },
      true);

  out += p0 + "}";
  return out;
}

std::string MetricsSnapshot::ToCsv() const {
  std::string out = "kind,name,count,sum,min,max,mean,p50,p99,value\n";
  for (const auto& [name, value] : values) {
    out += MetricKindName(value.kind);
    out += ",";
    out += CsvEscapeField(name);
    switch (value.kind) {
      case MetricKind::kCounter:
        out += ",,,,,,,," + std::to_string(value.counter);
        break;
      case MetricKind::kGauge:
        out += ",,,,,,,," + FormatDouble(value.gauge);
        break;
      case MetricKind::kHistogram:
        out += "," + std::to_string(value.hist.count) + "," +
               std::to_string(value.hist.sum) + "," +
               std::to_string(value.hist.min) + "," +
               std::to_string(value.hist.max) + "," +
               FormatDouble(value.hist.Mean()) + "," +
               std::to_string(value.hist.Percentile(0.5)) + "," +
               std::to_string(value.hist.Percentile(0.99)) + ",";
        break;
    }
    out += "\n";
  }
  return out;
}

std::optional<MetricsSnapshot> MetricsSnapshot::FromJson(const std::string& json) {
  const std::optional<JsonValue> doc = ParseJson(json);
  if (!doc.has_value() || !doc->is_object()) {
    return std::nullopt;
  }
  // Version gate: an absent schema_version is the pre-versioned format and
  // parses as major 1; a present one must be a "major.minor" string whose
  // major we know. Unknown minors are fine (additive changes only).
  const JsonValue* version = doc->Find("schema_version");
  if (version != nullptr) {
    if (!version->is_string()) {
      return std::nullopt;
    }
    const std::string& text = version->str();
    const std::size_t dot = text.find('.');
    std::uint64_t major = 0;
    if (dot == std::string::npos || dot + 1 >= text.size() ||
        !ParseU64(text.substr(0, dot).c_str(), &major) ||
        major != kSchemaVersionMajor) {
      return std::nullopt;
    }
  }
  MetricsSnapshot snapshot;

  const JsonValue* counters = doc->Find("counters");
  if (counters != nullptr) {
    if (!counters->is_object()) {
      return std::nullopt;
    }
    for (const auto& [name, v] : counters->object()) {
      if (!v.is_number()) {
        return std::nullopt;
      }
      const auto counter = IntegerOf<std::int64_t>(v.number());
      if (!counter) {
        return std::nullopt;
      }
      MetricValue value;
      value.kind = MetricKind::kCounter;
      value.counter = *counter;
      snapshot.values.emplace(name, value);
    }
  }

  const JsonValue* gauges = doc->Find("gauges");
  if (gauges != nullptr) {
    if (!gauges->is_object()) {
      return std::nullopt;
    }
    for (const auto& [name, v] : gauges->object()) {
      if (!v.is_number()) {
        return std::nullopt;
      }
      MetricValue value;
      value.kind = MetricKind::kGauge;
      value.gauge = v.number();
      snapshot.values.emplace(name, value);
    }
  }

  const JsonValue* histograms = doc->Find("histograms");
  if (histograms != nullptr) {
    if (!histograms->is_object()) {
      return std::nullopt;
    }
    for (const auto& [name, v] : histograms->object()) {
      const JsonValue* count = v.Find("count");
      const JsonValue* sum = v.Find("sum");
      const JsonValue* min = v.Find("min");
      const JsonValue* max = v.Find("max");
      const JsonValue* buckets = v.Find("buckets");
      if (count == nullptr || !count->is_number() || sum == nullptr ||
          !sum->is_number() || min == nullptr || !min->is_number() ||
          max == nullptr || !max->is_number() || buckets == nullptr ||
          !buckets->is_array()) {
        return std::nullopt;
      }
      const auto count_value = IntegerOf<std::uint64_t>(count->number());
      const auto sum_value = IntegerOf<std::int64_t>(sum->number());
      const auto min_value = IntegerOf<std::int64_t>(min->number());
      const auto max_value = IntegerOf<std::int64_t>(max->number());
      if (!count_value || !sum_value || !min_value || !max_value) {
        return std::nullopt;
      }
      MetricValue value;
      value.kind = MetricKind::kHistogram;
      value.hist.count = *count_value;
      value.hist.sum = *sum_value;
      value.hist.min = *min_value;
      value.hist.max = *max_value;
      for (const JsonValue& pair : buckets->array()) {
        if (!pair.is_array() || pair.array().size() != 2 ||
            !pair.array()[0].is_number() || !pair.array()[1].is_number()) {
          return std::nullopt;
        }
        // The top bucket's edge, INT64_MAX, reads back as the double 2^63.
        const double raw_edge = pair.array()[0].number();
        if (!(raw_edge >= 0 && raw_edge <= 0x1p63)) {
          return std::nullopt;
        }
        const std::int64_t edge = raw_edge == 0x1p63
                                      ? std::numeric_limits<std::int64_t>::max()
                                      : *IntegerOf<std::int64_t>(raw_edge);
        // Recover the bucket index from the upper edge. Edges small enough to
        // be exact in a double must be a bucket's upper edge; larger ones
        // lose low bits in transit, so only the bit width can be checked.
        const int index =
            Log2Histogram::BucketIndex(static_cast<std::uint64_t>(edge));
        if (edge < (std::int64_t{1} << 53) && edge != BucketEdge(index)) {
          return std::nullopt;
        }
        const auto n = IntegerOf<std::uint64_t>(pair.array()[1].number());
        if (!n) {
          return std::nullopt;
        }
        value.hist.buckets.emplace_back(index, *n);
      }
      snapshot.values.emplace(name, std::move(value));
    }
  }

  return snapshot;
}

}  // namespace tableau::obs
