// Unified metrics registry — the one tree every component reports into.
//
// Three instrument kinds (counter / gauge / histogram), each carrying a
// metric name plus a small label set (`device`, `subsystem`, `function` by
// convention). Two registration styles:
//
//  * owned instruments — counter()/gauge()/histogram() allocate storage in
//    the registry and hand back a stable reference; hot paths increment a
//    plain uint64 through it, no lookup, no branch;
//  * exposed views — expose_counter()/expose_gauge()/expose_histogram()
//    reference values that live INSIDE existing component counter structs
//    (FlowTableStats, ProxyCounters, HealthCounters, ...). The structs stay
//    the hot-path storage and keep their typed accessors; the registry reads
//    through the pointer/closure only when sampled or exported. Components
//    must outlive every read (registries are scoped to a run).
//
// Layout: entries get dense ids in registration order. Each id has a
// 16-byte scalar reader (counter pointer, gauge pointer or closure,
// histogram count), so read_scalars() — what one epoch sample costs — is a
// linear scan with no lookup, string or allocation. A key index (name +
// '\0' + rendered labels) serves find()/value()/total(), and because it is
// ordered it is also the deterministic (name, labels) order that
// for_each_sorted() walks and every exporter inherits: dumps from identical
// runs are byte-identical.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats/histogram.hpp"

namespace sdmbox::obs {

/// An ordered label set (sorted by key, duplicate keys rejected).
class Labels {
public:
  Labels() = default;
  Labels(std::initializer_list<std::pair<std::string, std::string>> kv);

  /// Insert or overwrite one label; returns *this for chaining.
  Labels& set(std::string key, std::string value);

  const std::string* get(std::string_view key) const noexcept;
  const std::vector<std::pair<std::string, std::string>>& items() const noexcept {
    return items_;
  }
  bool empty() const noexcept { return items_.empty(); }

  /// Prometheus-style rendering: `{a="x",b="y"}`, empty string when empty.
  std::string render() const;

  friend bool operator==(const Labels&, const Labels&) noexcept = default;

private:
  std::vector<std::pair<std::string, std::string>> items_;  // sorted by key
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };
const char* to_string(MetricKind kind) noexcept;

/// Monotone event count. Plain storage so `++c.value` (or inc()) costs the
/// same as the ad-hoc struct fields it replaces.
struct Counter {
  std::uint64_t value = 0;
  void inc(std::uint64_t n = 1) noexcept { value += n; }
};

/// Point-in-time level.
struct Gauge {
  double value = 0;
  void set(double v) noexcept { value = v; }
  void add(double v) noexcept { value += v; }
};

/// One metric's value at collection time.
struct MetricSample {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0;                     // counter / gauge (histogram: count)
  stats::HistogramSnapshot histogram;   // kHistogram only
};

class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Owned instruments. Re-requesting the same (name, labels) returns the
  /// existing instrument (kind must match), so independent components can
  /// share a series.
  Counter& counter(std::string name, Labels labels = {});
  Gauge& gauge(std::string name, Labels labels = {});
  stats::Histogram& histogram(std::string name, Labels labels = {});

  /// Views over externally-owned values. The pointee / closure must stay
  /// valid for every subsequent read. Duplicate (name, labels) registration
  /// is a contract violation — it would hide one source.
  void expose_counter(std::string name, Labels labels, const std::uint64_t* value);
  void expose_gauge(std::string name, Labels labels, std::function<double()> fn);
  void expose_histogram(std::string name, Labels labels, const stats::Histogram* hist);

  /// Every metric's current value, sorted by (name, labels). A full copy —
  /// hot consumers read by id instead.
  std::vector<MetricSample> collect() const;

  /// Scalar value of one metric (histograms report their count); nullopt
  /// when no such (name, labels) is registered.
  std::optional<double> value(std::string_view name, const Labels& labels = {}) const;

  /// Sum over every instrument named `name`, across all label sets (0 when
  /// none exist), in label order. The registry-level analogue of "total
  /// over devices".
  double total(std::string_view name) const;

  /// Number of registered metrics; ids are [0, size()) in registration order.
  std::size_t size() const noexcept { return by_id_.size(); }

  // --- By-id access -------------------------------------------------------

  /// Id of (name, labels); nullopt when unregistered.
  std::optional<std::size_t> find(std::string_view name, const Labels& labels = {}) const;

  const std::string& name(std::size_t id) const { return by_id_[id]->name; }
  const Labels& labels(std::size_t id) const { return by_id_[id]->labels; }
  MetricKind kind(std::size_t id) const { return by_id_[id]->kind; }
  /// Counter / gauge value, or a histogram's count.
  double scalar(std::size_t id) const;
  /// The histogram behind a kHistogram id.
  const stats::Histogram& histogram_at(std::size_t id) const;

  /// Write scalar(id) for every id to out[0, size()), in id order.
  void read_scalars(double* out) const;

  /// Call fn(id) for every metric in sorted (name, labels) order.
  template <typename Fn>
  void for_each_sorted(Fn&& fn) const {
    for (const auto& [key, e] : index_) fn(std::size_t{e.id});
  }

  /// Call fn(id) for every metric named `name`, in label order.
  template <typename Fn>
  void for_each_named(std::string_view name, Fn&& fn) const {
    const std::string prefix = name_prefix(name);
    for (auto it = index_.lower_bound(prefix);
         it != index_.end() && it->first.compare(0, prefix.size(), prefix) == 0; ++it) {
      fn(std::size_t{it->second.id});
    }
  }

private:
  // Cold half of an entry: identity, read by lookups and exporters.
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    void* owned = nullptr;  // the Counter / Gauge / Histogram (by kind); null for views
    std::uint32_t id = 0;
  };

  // Hot half, indexed by id: what a sample reads.
  struct Reader {
    enum class Source : std::uint8_t { kCounter, kGauge, kClosure, kHistogram };
    Reader() = default;
    explicit Reader(const std::uint64_t* p) : source(Source::kCounter), counter(p) {}
    explicit Reader(const double* p) : source(Source::kGauge), gauge(p) {}
    explicit Reader(const std::function<double()>* p) : source(Source::kClosure), closure(p) {}
    explicit Reader(const stats::Histogram* p) : source(Source::kHistogram), hist(p) {}

    Source source = Source::kCounter;
    union {
      const std::uint64_t* counter = nullptr;
      const double* gauge;
      const std::function<double()>* closure;
      const stats::Histogram* hist;
    };
  };

  static std::string name_prefix(std::string_view name);
  static std::string key_of(std::string_view name, const Labels& labels);
  /// Id of (name, labels), registering an entry when absent (`inserted`
  /// says which; the caller then binds its reader). An existing entry must
  /// have the same kind.
  std::size_t emplace(std::string name, Labels labels, MetricKind kind, bool& inserted);
  /// The owned instrument behind `id`, created on first request.
  template <typename T>
  T& owned(std::string name, Labels labels, MetricKind kind, std::deque<T>& store);
  /// Id of a new view entry (its reader still to bind); duplicates are a
  /// contract violation.
  std::size_t expose(std::string name, Labels labels, MetricKind kind);
  std::string describe(std::size_t id) const;

  // Key index: name + '\0' + rendered labels -> entry. Lexicographic key
  // order == sort by (name, labels), and all label sets of one name stay
  // contiguous. Entries live in its nodes, so a sorted walk reads identity
  // where it already is.
  std::map<std::string, Entry> index_;
  std::vector<Entry*> by_id_;  // into index_'s nodes
  std::vector<Reader> readers_;  // parallel to by_id_
  // Owned storage and exposed closures; deques keep addresses stable for
  // the readers and the references handed out.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<stats::Histogram> histograms_;
  std::deque<std::function<double()>> closures_;
};

}  // namespace sdmbox::obs
