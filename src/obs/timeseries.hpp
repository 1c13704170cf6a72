// Epoch time-series recorder: periodic snapshots of every registry value in
// simulated time, so a run's evolution ("what did detection latency look
// like over the link flap?") is a first-class export, not a one-off printf.
//
// The recorder is deliberately decoupled from the event engine: sample(now)
// takes one snapshot, and start() self-schedules through caller-provided
// closures — with a sim::Simulator that is simply
//
//   recorder.start([&](double d, auto fn) { sim.schedule_in(d, std::move(fn)); },
//                  [&] { return sim.now(); });
//
// which drives one snapshot per epoch on the simulator's own calendar (the
// first at the current time).
//
// Storage is columnar: one row per epoch holding every registry scalar in
// registration (id) order, read through MetricsRegistry::read_scalars() —
// one allocation per sample, no per-series copy, render or lookup. A row's
// width is the registry size at that sample; ids register in increasing
// order, so a column that an older row is too narrow for is a metric
// registered after that epoch and reads as 0 — the zero left-padding that
// keeps every series aligned with epochs().
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace sdmbox::obs {

class EpochRecorder {
public:
  /// Snapshots `registry` every `period` (simulated seconds). The registry
  /// must outlive the recorder.
  EpochRecorder(const MetricsRegistry& registry, double period);

  /// Take one snapshot stamped `now`. Timestamps must be non-decreasing.
  void sample(double now);

  using ScheduleIn = std::function<void(double delay, std::function<void()> fn)>;
  using Clock = std::function<double()>;

  /// Sample immediately, then keep rescheduling every period() until stop().
  /// Idempotent while running.
  void start(ScheduleIn schedule, Clock clock);
  void stop() noexcept { running_ = false; }
  bool running() const noexcept { return running_; }

  double period() const noexcept { return period_; }
  const std::vector<double>& epochs() const noexcept { return epochs_; }
  std::size_t epoch_count() const noexcept { return epochs_.size(); }

  /// Registry ids [0, width()) have been recorded: the registry's size at
  /// the latest sample (0 before the first).
  std::size_t width() const noexcept { return rows_.empty() ? 0 : rows_.back().width; }

  /// Value of registry id `id` at epoch index `epoch`; 0 where that epoch
  /// predates the metric's registration.
  double at(std::size_t epoch, std::size_t id) const noexcept {
    const Row& row = rows_[epoch];
    return id < row.width ? row.values[id] : 0.0;
  }

  /// Write at(e, id) for every epoch e to out[0, epoch_count()). The loads
  /// are independent, so gathering a column before formatting it overlaps
  /// their cache misses instead of paying one per value.
  void read_column(std::size_t id, double* out) const noexcept {
    for (std::size_t e = 0; e < rows_.size(); ++e) out[e] = at(e, id);
  }

  const MetricsRegistry& registry() const noexcept { return registry_; }

  /// One recorded series: a view over one column of the rows. Cheap to copy;
  /// valid while the recorder lives, and it sees later samples.
  class SeriesView {
  public:
    SeriesView(const EpochRecorder& recorder, std::size_t id) : rec_(&recorder), id_(id) {}
    const std::string& name() const { return rec_->registry_.name(id_); }
    const Labels& labels() const { return rec_->registry_.labels(id_); }
    MetricKind kind() const { return rec_->registry_.kind(id_); }
    /// One value per epoch, left-padded with zeros (a copy).
    std::vector<double> values() const;
    /// Value at the most recent epoch.
    double latest() const { return rec_->at(rec_->epochs_.size() - 1, id_); }

  private:
    const EpochRecorder* rec_;
    std::size_t id_;
  };

  /// A series materialised (identity and padded values copied out).
  struct Series {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    std::vector<double> values;  // parallel to epochs()
  };

  /// Every recorded series, sorted by (name, labels), each padded to
  /// epochs().size() values. A full copy, for tests and small tools;
  /// exporters read the rows in place.
  std::vector<Series> series() const;

  /// Direct series lookup for consumers that subscribe to recorded samples
  /// (e.g. the drift-triggered re-optimisation loop). A metric registered
  /// after the latest sample is not found until the next sample records it.
  std::optional<SeriesView> find(std::string_view name, const Labels& labels) const;

  /// All recorded series named `name` (one per label set), in deterministic
  /// label order.
  std::vector<SeriesView> find_all(std::string_view name) const;

  /// Most recently sampled value of (name, labels); nullopt when the series
  /// is unknown or has no samples yet.
  std::optional<double> latest(std::string_view name, const Labels& labels) const;

private:
  struct Row {
    std::size_t width = 0;             // registry size at this sample
    std::unique_ptr<double[]> values;  // scalar of every id < width
  };

  void tick();

  const MetricsRegistry& registry_;
  double period_;
  std::vector<double> epochs_;
  std::vector<Row> rows_;  // parallel to epochs_
  bool running_ = false;
  ScheduleIn schedule_;
  Clock clock_;
};

}  // namespace sdmbox::obs
