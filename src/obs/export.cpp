#include "obs/export.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "net/topology.hpp"
#include "util/log.hpp"

namespace sdmbox::obs {

// Deterministic number rendering: integral values print as integers (the
// common case for counters), everything else via %.17g, which round-trips
// doubles exactly and never depends on locale.
std::string json_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[24];  // to_chars prints exactly what %lld would, without printf's cost
    const auto end = std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(v)).ptr;
    return std::string(buf, end);
  }
  if (std::isnan(v)) return "null";  // JSON has no NaN; exporters agree on null
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void append_labels_json(std::string& out, const Labels& labels) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels.items()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(k);
    out += "\":\"";
    out += json_escape(v);
    out += '"';
  }
  out += '}';
}

void append_histogram_json(std::string& out, const stats::HistogramSnapshot& h) {
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

/// `fn(id)` for every series `recorder` holds, in sorted (name, labels) order.
template <typename Fn>
void for_each_recorded(const EpochRecorder& recorder, Fn&& fn) {
  const std::size_t width = recorder.width();
  recorder.registry().for_each_sorted([&](std::size_t id) {
    if (id < width) fn(id);
  });
}

/// `<name><suffix><labels> <value>\n`
void append_prom_line(std::string& out, const std::string& name, std::string_view suffix,
                      const std::string& labels, const std::string& value) {
  out += name;
  out += suffix;
  out += labels;
  out += ' ';
  out += value;
  out += '\n';
}

/// Body of a double-quoted CSV cell: quotes doubled.
void append_csv_quoted(std::string& out, std::string_view text) {
  for (const char c : text) {
    if (c == '"') out += '"';
    out += c;
  }
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::string to_json(const MetricsRegistry& registry, const EpochRecorder* series) {
  std::string out = "{\n  \"metrics\": [";
  bool first = true;
  registry.for_each_sorted([&](std::size_t id) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\":\"";
    out += json_escape(registry.name(id));
    out += "\",\"labels\":";
    append_labels_json(out, registry.labels(id));
    out += ",\"kind\":\"";
    out += to_string(registry.kind(id));
    out += "\",\"value\":";
    out += json_number(registry.scalar(id));
    if (registry.kind(id) == MetricKind::kHistogram) {
      out += ",\"histogram\":";
      append_histogram_json(out, registry.histogram_at(id).snapshot());
    }
    out += '}';
  });
  out += "\n  ]";
  if (series != nullptr) {
    out += ",\n  \"series\": {\n    \"period\": ";
    out += json_number(series->period());
    out += ",\n    \"epochs\": [";
    const auto& epochs = series->epochs();
    for (std::size_t i = 0; i < epochs.size(); ++i) {
      if (i) out += ',';
      out += json_number(epochs[i]);
    }
    out += "],\n    \"metrics\": [";
    first = true;
    const MetricsRegistry& recorded = series->registry();
    std::vector<double> column(epochs.size());
    for_each_recorded(*series, [&](std::size_t id) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "      {\"name\":\"";
      out += json_escape(recorded.name(id));
      out += "\",\"labels\":";
      append_labels_json(out, recorded.labels(id));
      out += ",\"values\":[";
      series->read_column(id, column.data());
      for (std::size_t e = 0; e < column.size(); ++e) {
        if (e) out += ',';
        out += json_number(column[e]);
      }
      out += "]}";
    });
    out += "\n    ]\n  }";
  }
  out += "\n}\n";
  return out;
}

std::string to_prometheus(const MetricsRegistry& registry) {
  std::string out;
  const std::string* last_name = nullptr;
  registry.for_each_sorted([&](std::size_t id) {
    const std::string& name = registry.name(id);
    const MetricKind kind = registry.kind(id);
    if (last_name == nullptr || name != *last_name) {
      out += "# TYPE ";
      out += name;
      out += ' ';
      // Histograms export as Prometheus summaries (count/sum/quantile).
      out += kind == MetricKind::kHistogram ? "summary" : to_string(kind);
      out += '\n';
      last_name = &name;
    }
    const std::string labels = registry.labels(id).render();
    if (kind != MetricKind::kHistogram) {
      append_prom_line(out, name, "", labels, json_number(registry.scalar(id)));
      return;
    }
    const stats::HistogramSnapshot h = registry.histogram_at(id).snapshot();
    append_prom_line(out, name, "_count", labels, json_number(static_cast<double>(h.count)));
    append_prom_line(out, name, "_sum", labels, json_number(h.sum));
    // Each quantile line is the label set plus quantile="q" at its sorted
    // key position (replacing a "quantile" label, as Labels::set would).
    std::string head = "{";
    std::string tail;
    for (const auto& [k, v] : registry.labels(id).items()) {
      if (k < "quantile") head += k + "=\"" + v + "\",";
      if (k > "quantile") tail += "," + k + "=\"" + v + '"';
    }
    tail += '}';
    for (std::size_t i = 0; i < h.quantiles.size(); ++i) {
      out += name;
      out += head;
      out += "quantile=\"";
      out += json_number(h.quantiles[i]);
      out += '"';
      out += tail;
      out += ' ';
      out += json_number(h.values[i]);
      out += '\n';
    }
  });
  return out;
}

std::string to_csv(const EpochRecorder& recorder) {
  const MetricsRegistry& registry = recorder.registry();
  std::vector<std::size_t> columns;
  columns.reserve(recorder.width());
  for_each_recorded(recorder, [&](std::size_t id) { columns.push_back(id); });
  std::string out = "epoch";
  for (const std::size_t id : columns) {
    // Quote the column name: label renderings contain commas.
    out += ",\"";
    append_csv_quoted(out, registry.name(id));
    append_csv_quoted(out, registry.labels(id).render());
    out += '"';
  }
  out += '\n';
  // Gather each row before formatting it, so the reads overlap (see
  // EpochRecorder::read_column).
  std::vector<double> row(columns.size());
  const auto& epochs = recorder.epochs();
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    for (std::size_t c = 0; c < columns.size(); ++c) row[c] = recorder.at(e, columns[c]);
    out += json_number(epochs[e]);
    for (const double v : row) {
      out += ',';
      out += json_number(v);
    }
    out += '\n';
  }
  return out;
}

std::string trace_to_json(const PathTracer& tracer, const net::Topology* topo) {
  const std::vector<TraceRecord> records = tracer.sink().records();
  // Group by flow in first-traced order so the dump reads as per-flow paths.
  std::map<packet::FlowId, std::size_t> order;
  std::vector<std::pair<packet::FlowId, std::vector<const TraceRecord*>>> flows;
  for (const TraceRecord& r : records) {
    auto [it, inserted] = order.try_emplace(r.flow, flows.size());
    if (inserted) flows.emplace_back(r.flow, std::vector<const TraceRecord*>{});
    flows[it->second].second.push_back(&r);
  }

  std::string out = "{\n  \"sample_rate\": ";
  out += json_number(tracer.sampler().rate());
  out += ",\n  \"seed\": ";
  out += json_number(static_cast<double>(tracer.sampler().seed()));
  out += ",\n  \"recorded\": ";
  out += json_number(static_cast<double>(tracer.sink().recorded()));
  out += ",\n  \"overwritten\": ";
  out += json_number(static_cast<double>(tracer.sink().overwritten()));
  out += ",\n  \"flows\": [\n";
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto& [flow, hops] = flows[i];
    out += "    {\"flow\":\"";
    out += json_escape(flow.to_string());
    out += "\",\"hops\":[\n";
    for (std::size_t j = 0; j < hops.size(); ++j) {
      const TraceRecord& r = *hops[j];
      out += "      {\"at\":";
      out += json_number(r.at);
      out += ",\"node\":";
      out += json_number(static_cast<double>(r.node.v));
      if (topo != nullptr && r.node.v < topo->node_count()) {
        out += ",\"device\":\"";
        out += json_escape(topo->node(r.node).name);
        out += '"';
      }
      out += ",\"hop\":\"";
      out += to_string(r.hop);
      out += '"';
      if (r.detail != 0) {
        out += ",\"detail\":";
        out += json_number(static_cast<double>(r.detail));
      }
      if (r.seq != 0) {
        out += ",\"seq\":";
        out += json_number(static_cast<double>(r.seq));
      }
      out += '}';
      if (j + 1 < hops.size()) out += ',';
      out += '\n';
    }
    out += "    ]}";
    if (i + 1 < flows.size()) out += ',';
    out += '\n';
  }
  out += "  ]\n}\n";
  return out;
}

std::string spans_to_json(const SpanTracer& tracer) {
  const auto spans = tracer.spans();
  std::string out = "{\n  \"started\": ";
  out += json_number(static_cast<double>(tracer.started()));
  out += ",\n  \"dropped\": ";
  out += json_number(static_cast<double>(tracer.dropped()));
  out += ",\n  \"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += "    {\"id\":";
    out += json_number(static_cast<double>(s.id));
    out += ",\"parent\":";
    out += json_number(static_cast<double>(s.parent));
    out += ",\"trace\":";
    out += json_number(static_cast<double>(s.trace));
    out += ",\"name\":\"";
    out += json_escape(s.name);
    out += "\",\"device\":\"";
    out += json_escape(s.device);
    out += "\",\"subsystem\":\"";
    out += json_escape(s.subsystem);
    out += "\",\"start\":";
    out += json_number(s.start);
    out += ",\"end\":";
    // An un-ended span exports end:null, never a sentinel value.
    out += s.open() ? "null" : json_number(s.end);
    out += ",\"duration\":";
    out += s.open() ? "null" : json_number(s.duration());
    out += ",\"attrs\":{";
    for (std::size_t j = 0; j < s.attrs.size(); ++j) {
      if (j) out += ',';
      out += '"';
      out += json_escape(s.attrs[j].first);
      out += "\":";
      out += json_number(s.attrs[j].second);
    }
    out += "}}";
    if (i + 1 < spans.size()) out += ',';
    out += '\n';
  }
  out += "  ]\n}\n";
  return out;
}

std::string spans_to_csv(const SpanTracer& tracer) {
  std::string out = "id,parent,trace,name,device,subsystem,start,end,duration,attrs\n";
  for (const Span& s : tracer.spans()) {
    out += json_number(static_cast<double>(s.id));
    out += ',';
    out += json_number(static_cast<double>(s.parent));
    out += ',';
    out += json_number(static_cast<double>(s.trace));
    out += ',';
    out += s.name;  // span names are fixed identifiers, never need quoting
    out += ',';
    out += s.device;
    out += ',';
    out += s.subsystem;
    out += ',';
    out += json_number(s.start);
    out += ',';
    if (!s.open()) out += json_number(s.end);
    out += ',';
    if (!s.open()) out += json_number(s.duration());
    out += ",\"";
    for (std::size_t j = 0; j < s.attrs.size(); ++j) {
      if (j) out += ';';
      out += s.attrs[j].first;
      out += '=';
      out += json_number(s.attrs[j].second);
    }
    out += "\"\n";
  }
  return out;
}

std::string render_spans_for_path(const SpanTracer& tracer, const std::string& path) {
  if (ends_with(path, ".csv")) return spans_to_csv(tracer);
  return spans_to_json(tracer);
}

std::string render_for_path(const MetricsRegistry& registry, const EpochRecorder* series,
                            const std::string& path) {
  if (ends_with(path, ".csv")) {
    if (series != nullptr) return to_csv(*series);
    // No series recorded: fall through to a one-row CSV of current values.
    EpochRecorder once(registry, 1.0);
    once.sample(0.0);
    return to_csv(once);
  }
  if (ends_with(path, ".prom") || ends_with(path, ".txt")) return to_prometheus(registry);
  return to_json(registry, series);
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    SDM_LOG_WARN("obs", "cannot open " << path << " for writing");
    return false;
  }
  out << content;
  return static_cast<bool>(out);
}

}  // namespace sdmbox::obs
