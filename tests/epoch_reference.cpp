#include "epoch_reference.hpp"

#include "obs/export.hpp"
#include "util/check.hpp"

namespace sdmbox::testing {
namespace {

std::string key_of(std::string_view name, const obs::Labels& labels) {
  std::string key{name};
  key += '\0';
  key += labels.render();
  return key;
}

void append_labels_json(std::string& out, const obs::Labels& labels) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels.items()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += obs::json_escape(k);
    out += "\":\"";
    out += obs::json_escape(v);
    out += '"';
  }
  out += '}';
}

void append_histogram_json(std::string& out, const stats::HistogramSnapshot& h) {
  using obs::json_number;
  out += "{\"count\":";
  out += json_number(static_cast<double>(h.count));
  out += ",\"sum\":";
  out += json_number(h.sum);
  out += ",\"min\":";
  out += json_number(h.min);
  out += ",\"max\":";
  out += json_number(h.max);
  out += ",\"mean\":";
  out += json_number(h.mean);
  out += ",\"quantiles\":{";
  for (std::size_t i = 0; i < h.quantiles.size(); ++i) {
    if (i) out += ',';
    out += '"';
    out += json_number(h.quantiles[i]);
    out += "\":";
    out += json_number(h.values[i]);
  }
  out += "}}";
}

}  // namespace

ReferenceEpochRecorder::ReferenceEpochRecorder(const obs::MetricsRegistry& registry,
                                               double period)
    : registry_(registry), period_(period) {
  SDM_CHECK_MSG(period > 0, "epoch period must be positive");
}

void ReferenceEpochRecorder::sample(double now) {
  SDM_CHECK_MSG(epochs_.empty() || now >= epochs_.back(),
                "epoch snapshots must move forward in time");
  epochs_.push_back(now);
  for (obs::MetricSample& s : registry_.collect()) {
    auto [it, inserted] = series_.try_emplace(key_of(s.name, s.labels));
    Series& series = it->second;
    if (inserted) {
      series.name = std::move(s.name);
      series.labels = std::move(s.labels);
      series.kind = s.kind;
    }
    series.values.resize(epochs_.size() - 1, 0.0);
    series.values.push_back(s.value);
  }
}

const ReferenceEpochRecorder::Series* ReferenceEpochRecorder::find(
    std::string_view name, const obs::Labels& labels) const {
  const auto it = series_.find(key_of(name, labels));
  return it == series_.end() ? nullptr : &it->second;
}

std::vector<const ReferenceEpochRecorder::Series*> ReferenceEpochRecorder::find_all(
    std::string_view name) const {
  std::vector<const Series*> out;
  std::string prefix{name};
  prefix += '\0';
  for (auto it = series_.lower_bound(prefix); it != series_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(&it->second);
  }
  return out;
}

std::optional<double> ReferenceEpochRecorder::latest(std::string_view name,
                                                     const obs::Labels& labels) const {
  const Series* s = find(name, labels);
  if (s == nullptr || s->values.empty()) return std::nullopt;
  return s->values.back();
}

std::vector<ReferenceEpochRecorder::Series> ReferenceEpochRecorder::series() const {
  std::vector<Series> out;
  out.reserve(series_.size());
  for (const auto& [key, s] : series_) {
    out.push_back(s);
    out.back().values.resize(epochs_.size(), 0.0);
  }
  return out;
}

std::string reference_to_json(const obs::MetricsRegistry& registry,
                              const ReferenceEpochRecorder* series) {
  using obs::json_escape;
  using obs::json_number;
  std::string out = "{\n  \"metrics\": [\n";
  const auto samples = registry.collect();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const obs::MetricSample& s = samples[i];
    out += "    {\"name\":\"";
    out += json_escape(s.name);
    out += "\",\"labels\":";
    append_labels_json(out, s.labels);
    out += ",\"kind\":\"";
    out += to_string(s.kind);
    out += "\",\"value\":";
    out += json_number(s.value);
    if (s.kind == obs::MetricKind::kHistogram) {
      out += ",\"histogram\":";
      append_histogram_json(out, s.histogram);
    }
    out += '}';
    if (i + 1 < samples.size()) out += ',';
    out += '\n';
  }
  out += "  ]";
  if (series != nullptr) {
    out += ",\n  \"series\": {\n    \"period\": ";
    out += json_number(series->period());
    out += ",\n    \"epochs\": [";
    const auto& epochs = series->epochs();
    for (std::size_t i = 0; i < epochs.size(); ++i) {
      if (i) out += ',';
      out += json_number(epochs[i]);
    }
    out += "],\n    \"metrics\": [\n";
    const auto all = series->series();
    for (std::size_t i = 0; i < all.size(); ++i) {
      const auto& s = all[i];
      out += "      {\"name\":\"";
      out += json_escape(s.name);
      out += "\",\"labels\":";
      append_labels_json(out, s.labels);
      out += ",\"values\":[";
      for (std::size_t j = 0; j < s.values.size(); ++j) {
        if (j) out += ',';
        out += json_number(s.values[j]);
      }
      out += "]}";
      if (i + 1 < all.size()) out += ',';
      out += '\n';
    }
    out += "    ]\n  }";
  }
  out += "\n}\n";
  return out;
}

std::string reference_to_prometheus(const obs::MetricsRegistry& registry) {
  using obs::json_number;
  std::string out;
  std::string last_name;
  for (const obs::MetricSample& s : registry.collect()) {
    if (s.name != last_name) {
      out += "# TYPE ";
      out += s.name;
      out += ' ';
      out += s.kind == obs::MetricKind::kHistogram ? "summary" : to_string(s.kind);
      out += '\n';
      last_name = s.name;
    }
    if (s.kind == obs::MetricKind::kHistogram) {
      const auto& h = s.histogram;
      out += s.name + "_count" + s.labels.render() + ' ' +
             json_number(static_cast<double>(h.count)) + '\n';
      out += s.name + "_sum" + s.labels.render() + ' ' + json_number(h.sum) + '\n';
      for (std::size_t i = 0; i < h.quantiles.size(); ++i) {
        obs::Labels with_q = s.labels;
        with_q.set("quantile", json_number(h.quantiles[i]));
        out += s.name + with_q.render() + ' ' + json_number(h.values[i]) + '\n';
      }
    } else {
      out += s.name + s.labels.render() + ' ' + json_number(s.value) + '\n';
    }
  }
  return out;
}

std::string reference_to_csv(const ReferenceEpochRecorder& recorder) {
  using obs::json_number;
  const auto all = recorder.series();
  std::string out = "epoch";
  for (const auto& s : all) {
    out += ',';
    out += '"';
    for (char c : s.name + s.labels.render()) {
      if (c == '"') out += '"';
      out += c;
    }
    out += '"';
  }
  out += '\n';
  const auto& epochs = recorder.epochs();
  for (std::size_t row = 0; row < epochs.size(); ++row) {
    out += json_number(epochs[row]);
    for (const auto& s : all) {
      out += ',';
      out += json_number(s.values[row]);
    }
    out += '\n';
  }
  return out;
}

}  // namespace sdmbox::testing
