// Test-only reference for the epoch recorder and the registry exporters: the
// straightforward map-based implementation that obs::EpochRecorder's
// columnar rows replaced.
//
// ReferenceEpochRecorder copies the whole registry through collect() on
// every sample, re-renders each label set into a key and appends one value
// to a per-series vector in a std::map, left-padding series registered after
// earlier epochs. The reference_to_* exporters render from collect() and
// from those materialised series. Slow and allocation-heavy by design; it
// exists only to pin the production path down: tests/epoch_equivalence_test.cpp
// drives both over the same registries and requires identical epochs,
// series, lookups and export bytes.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace sdmbox::testing {

class ReferenceEpochRecorder {
public:
  ReferenceEpochRecorder(const obs::MetricsRegistry& registry, double period);

  void sample(double now);

  double period() const noexcept { return period_; }
  const std::vector<double>& epochs() const noexcept { return epochs_; }

  struct Series {
    std::string name;
    obs::Labels labels;
    obs::MetricKind kind = obs::MetricKind::kCounter;
    std::vector<double> values;  // parallel to epochs()
  };

  /// Every recorded series, sorted by (name, labels), each padded to
  /// epochs().size() values.
  std::vector<Series> series() const;

  const Series* find(std::string_view name, const obs::Labels& labels) const;
  std::vector<const Series*> find_all(std::string_view name) const;
  std::optional<double> latest(std::string_view name, const obs::Labels& labels) const;

private:
  const obs::MetricsRegistry& registry_;
  double period_;
  std::vector<double> epochs_;
  std::map<std::string, Series> series_;  // key: name + '\0' + rendered labels
};

std::string reference_to_json(const obs::MetricsRegistry& registry,
                              const ReferenceEpochRecorder* series = nullptr);
std::string reference_to_prometheus(const obs::MetricsRegistry& registry);
std::string reference_to_csv(const ReferenceEpochRecorder& recorder);

}  // namespace sdmbox::testing
