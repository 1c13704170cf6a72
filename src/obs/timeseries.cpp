#include "obs/timeseries.hpp"

#include "util/check.hpp"

namespace sdmbox::obs {

EpochRecorder::EpochRecorder(const MetricsRegistry& registry, double period)
    : registry_(registry), period_(period) {
  SDM_CHECK_MSG(period > 0, "epoch period must be positive");
}

void EpochRecorder::sample(double now) {
  SDM_CHECK_MSG(epochs_.empty() || now >= epochs_.back(),
                "epoch snapshots must move forward in time");
  Row row{registry_.size(), std::make_unique_for_overwrite<double[]>(registry_.size())};
  registry_.read_scalars(row.values.get());
  rows_.push_back(std::move(row));
  epochs_.push_back(now);
}

void EpochRecorder::start(ScheduleIn schedule, Clock clock) {
  if (running_) return;
  SDM_CHECK(schedule != nullptr && clock != nullptr);
  running_ = true;
  schedule_ = std::move(schedule);
  clock_ = std::move(clock);
  tick();
}

void EpochRecorder::tick() {
  if (!running_) return;
  sample(clock_());
  schedule_(period_, [this] { tick(); });
}

std::vector<double> EpochRecorder::SeriesView::values() const {
  std::vector<double> out(rec_->epochs_.size());
  rec_->read_column(id_, out.data());
  return out;
}

std::optional<EpochRecorder::SeriesView> EpochRecorder::find(std::string_view name,
                                                             const Labels& labels) const {
  const std::optional<std::size_t> id = registry_.find(name, labels);
  if (!id || *id >= width()) return std::nullopt;
  return SeriesView(*this, *id);
}

std::vector<EpochRecorder::SeriesView> EpochRecorder::find_all(std::string_view name) const {
  std::vector<SeriesView> out;
  registry_.for_each_named(name, [&](std::size_t id) {
    if (id < width()) out.emplace_back(*this, id);
  });
  return out;
}

std::optional<double> EpochRecorder::latest(std::string_view name, const Labels& labels) const {
  const std::optional<SeriesView> s = find(name, labels);
  if (!s) return std::nullopt;
  return s->latest();
}

std::vector<EpochRecorder::Series> EpochRecorder::series() const {
  std::vector<Series> out;
  out.reserve(width());
  registry_.for_each_sorted([&](std::size_t id) {
    if (id >= width()) return;
    const SeriesView view(*this, id);
    out.push_back({view.name(), view.labels(), view.kind(), view.values()});
  });
  return out;
}

}  // namespace sdmbox::obs
