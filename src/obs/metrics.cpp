#include "obs/metrics.hpp"

#include <algorithm>
#include <type_traits>

#include "util/check.hpp"

namespace sdmbox::obs {

Labels::Labels(std::initializer_list<std::pair<std::string, std::string>> kv) {
  for (const auto& [k, v] : kv) set(k, v);
}

Labels& Labels::set(std::string key, std::string value) {
  SDM_CHECK_MSG(!key.empty(), "label keys must be non-empty");
  const auto at = std::lower_bound(
      items_.begin(), items_.end(), key,
      [](const auto& item, const std::string& k) { return item.first < k; });
  if (at != items_.end() && at->first == key) {
    at->second = std::move(value);
  } else {
    items_.insert(at, {std::move(key), std::move(value)});
  }
  return *this;
}

const std::string* Labels::get(std::string_view key) const noexcept {
  for (const auto& [k, v] : items_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Labels::render() const {
  if (items_.empty()) return {};
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ',';
    out += items_[i].first;
    out += "=\"";
    out += items_[i].second;
    out += '"';
  }
  out += '}';
  return out;
}

const char* to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

std::string MetricsRegistry::name_prefix(std::string_view name) {
  std::string prefix(name);
  prefix += '\0';
  return prefix;
}

std::string MetricsRegistry::key_of(std::string_view name, const Labels& labels) {
  std::string key = name_prefix(name);
  key += labels.render();
  return key;
}

std::string MetricsRegistry::describe(std::size_t id) const {
  return by_id_[id]->name + by_id_[id]->labels.render();
}

std::size_t MetricsRegistry::emplace(std::string name, Labels labels, MetricKind kind,
                                     bool& inserted) {
  SDM_CHECK_MSG(!name.empty(), "metric names must be non-empty");
  const auto [it, fresh] = index_.try_emplace(key_of(name, labels));
  Entry& e = it->second;
  inserted = fresh;
  if (fresh) {
    e = {std::move(name), std::move(labels), kind, nullptr,
         static_cast<std::uint32_t>(by_id_.size())};
    by_id_.push_back(&e);
    readers_.emplace_back();
  } else {
    SDM_CHECK_MSG(e.kind == kind, "metric re-registered with a different kind: " + describe(e.id));
  }
  return e.id;
}

template <typename T>
T& MetricsRegistry::owned(std::string name, Labels labels, MetricKind kind,
                          std::deque<T>& store) {
  bool inserted = false;
  const std::size_t id = emplace(std::move(name), std::move(labels), kind, inserted);
  Entry& e = *by_id_[id];
  if (!inserted) {
    SDM_CHECK_MSG(e.owned != nullptr, std::string("owned ") + to_string(kind) +
                                          " collides with an exposed view: " + describe(id));
    return *static_cast<T*>(e.owned);
  }
  T& instrument = store.emplace_back();
  e.owned = &instrument;
  if constexpr (std::is_same_v<T, stats::Histogram>) {
    readers_[id] = Reader(&instrument);
  } else {
    readers_[id] = Reader(&instrument.value);
  }
  return instrument;
}

Counter& MetricsRegistry::counter(std::string name, Labels labels) {
  return owned(std::move(name), std::move(labels), MetricKind::kCounter, counters_);
}

Gauge& MetricsRegistry::gauge(std::string name, Labels labels) {
  return owned(std::move(name), std::move(labels), MetricKind::kGauge, gauges_);
}

stats::Histogram& MetricsRegistry::histogram(std::string name, Labels labels) {
  return owned(std::move(name), std::move(labels), MetricKind::kHistogram, histograms_);
}

std::size_t MetricsRegistry::expose(std::string name, Labels labels, MetricKind kind) {
  bool inserted = false;
  const std::size_t id = emplace(std::move(name), std::move(labels), kind, inserted);
  SDM_CHECK_MSG(inserted, "duplicate metric registration: " + describe(id));
  return id;
}

void MetricsRegistry::expose_counter(std::string name, Labels labels,
                                     const std::uint64_t* value) {
  SDM_CHECK(value != nullptr);
  readers_[expose(std::move(name), std::move(labels), MetricKind::kCounter)] = Reader(value);
}

void MetricsRegistry::expose_gauge(std::string name, Labels labels,
                                   std::function<double()> fn) {
  SDM_CHECK(fn != nullptr);
  const std::size_t id = expose(std::move(name), std::move(labels), MetricKind::kGauge);
  readers_[id] = Reader(&closures_.emplace_back(std::move(fn)));
}

void MetricsRegistry::expose_histogram(std::string name, Labels labels,
                                       const stats::Histogram* hist) {
  SDM_CHECK(hist != nullptr);
  readers_[expose(std::move(name), std::move(labels), MetricKind::kHistogram)] = Reader(hist);
}

double MetricsRegistry::scalar(std::size_t id) const {
  const Reader& r = readers_[id];
  switch (r.source) {
    case Reader::Source::kCounter: return static_cast<double>(*r.counter);
    case Reader::Source::kGauge: return *r.gauge;
    case Reader::Source::kClosure: return (*r.closure)();
    case Reader::Source::kHistogram: return static_cast<double>(r.hist->count());
  }
  return 0;
}

const stats::Histogram& MetricsRegistry::histogram_at(std::size_t id) const {
  SDM_CHECK(readers_[id].source == Reader::Source::kHistogram);
  return *readers_[id].hist;
}

void MetricsRegistry::read_scalars(double* out) const {
  for (std::size_t id = 0; id < readers_.size(); ++id) out[id] = scalar(id);
}

std::vector<MetricSample> MetricsRegistry::collect() const {
  std::vector<MetricSample> out;
  out.reserve(size());
  for_each_sorted([&](std::size_t id) {
    MetricSample& s = out.emplace_back();
    s.name = name(id);
    s.labels = labels(id);
    s.kind = kind(id);
    s.value = scalar(id);
    if (s.kind == MetricKind::kHistogram) s.histogram = histogram_at(id).snapshot();
  });
  return out;
}

std::optional<std::size_t> MetricsRegistry::find(std::string_view name,
                                                 const Labels& labels) const {
  const auto it = index_.find(key_of(name, labels));
  if (it == index_.end()) return std::nullopt;
  return it->second.id;
}

std::optional<double> MetricsRegistry::value(std::string_view name, const Labels& labels) const {
  const auto id = find(name, labels);
  if (!id) return std::nullopt;
  return scalar(*id);
}

double MetricsRegistry::total(std::string_view name) const {
  double sum = 0;
  for_each_named(name, [&](std::size_t id) { sum += scalar(id); });
  return sum;
}

}  // namespace sdmbox::obs
