// Differential test: obs::EpochRecorder (columnar rows read by registry id)
// and the id-walking exporters, against the map-based recorder and the
// collect()-based exporters they replaced (tests/epoch_reference.hpp).
//
// Both recorders watch the same registry. Seeded random interleavings mix
// owned and exposed counters, gauges and histograms, registrations between
// samples (keys sorting before, between and after existing ones, several
// label sets per name, names that prefix each other), value changes,
// rejected registrations and samples, a registration that is never sampled,
// and stop()/restart through a manual scheduler. After every step the two
// must agree on epochs, every series (name, labels, kind, padded values),
// find/find_all/latest, and the to_json/to_csv/to_prometheus bytes. A small
// Waxman-400 chaos world then runs with both recorders sampling its live
// registry.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "epoch_reference.hpp"
#include "exp/spec.hpp"
#include "exp/world.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sdmbox {
namespace {

using obs::Labels;
using obs::MetricKind;
using testing::ReferenceEpochRecorder;

std::string key_of(const std::string& name, const Labels& labels) {
  return name + '\0' + labels.render();
}

/// Require `rec` and `ref` (over `reg`) to agree on everything observable.
void expect_same(const obs::MetricsRegistry& reg, const obs::EpochRecorder& rec,
                 const ReferenceEpochRecorder& ref, const std::string& what) {
  ASSERT_EQ(rec.epochs(), ref.epochs()) << what;
  const auto a = rec.series();
  const auto b = ref.series();
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name) << what << ": series " << i;
    EXPECT_EQ(a[i].labels, b[i].labels) << what << ": series " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << what << ": series " << i;
    EXPECT_EQ(a[i].values, b[i].values) << what << ": series " << i;
  }
  // Every registered key, sampled or not, through the lookups.
  std::vector<std::string> names;
  reg.for_each_sorted([&](std::size_t id) {
    const std::string& name = reg.name(id);
    const Labels& labels = reg.labels(id);
    if (names.empty() || names.back() != name) names.push_back(name);
    const auto* want = ref.find(name, labels);
    const auto got = rec.find(name, labels);
    ASSERT_EQ(got.has_value(), want != nullptr) << what << ": " << key_of(name, labels);
    EXPECT_EQ(rec.latest(name, labels), ref.latest(name, labels)) << what;
    if (want == nullptr) return;
    EXPECT_EQ(got->name(), want->name) << what;
    EXPECT_EQ(got->labels(), want->labels) << what;
    EXPECT_EQ(got->kind(), want->kind) << what;
    EXPECT_EQ(got->values(), want->values) << what << ": " << key_of(name, labels);
  });
  names.push_back("absent");
  for (const std::string& name : names) {
    const auto got = rec.find_all(name);
    const auto want = ref.find_all(name);
    ASSERT_EQ(got.size(), want.size()) << what << ": find_all " << name;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].labels(), want[i]->labels) << what << ": find_all " << name;
      EXPECT_EQ(got[i].values(), want[i]->values) << what << ": find_all " << name;
    }
  }
  EXPECT_EQ(rec.latest("absent", {}), std::nullopt) << what;
  EXPECT_EQ(obs::to_json(reg, &rec), testing::reference_to_json(reg, &ref)) << what;
  EXPECT_EQ(obs::to_json(reg), testing::reference_to_json(reg)) << what;
  EXPECT_EQ(obs::to_csv(rec), testing::reference_to_csv(ref)) << what;
  EXPECT_EQ(obs::to_prometheus(reg), testing::reference_to_prometheus(reg)) << what;
}

/// One randomly driven registry with both recorders attached.
class Interleaving {
public:
  explicit Interleaving(std::uint64_t seed) : rng_(seed) {}

  void step() {
    const double r = rng_.next_double();
    if (r < 0.30) {
      register_one();
    } else if (r < 0.62) {
      mutate_one();
    } else if (r < 0.77) {
      now_ += kStrides[rng_.pick_index(std::size(kStrides))];
      rec_.sample(now_);
      ref_.sample(now_);
    } else if (r < 0.94) {
      drive_scheduler();
    } else if (!rec_.epochs().empty()) {
      // A backwards sample is rejected by both and changes nothing.
      const double past = rec_.epochs().back() - 1.0;
      EXPECT_THROW(rec_.sample(past), ContractViolation);
      EXPECT_THROW(ref_.sample(past), ContractViolation);
    }
  }

  /// Register a fresh key that no sample will see before the next check.
  void register_unsampled() {
    obs::Counter* c = &reg_.counter("zz_never_sampled", Labels{{"device", "p0"}});
    c->inc(5);
    model_.emplace(key_of("zz_never_sampled", Labels{{"device", "p0"}}),
                   Model{MetricKind::kCounter, true, [c] { return static_cast<double>(c->value); }});
    EXPECT_EQ(rec_.find("zz_never_sampled", Labels{{"device", "p0"}}), std::nullopt);
  }

  void check(const std::string& what) {
    ASSERT_EQ(reg_.size(), model_.size()) << what;
    const auto samples = reg_.collect();
    auto it = model_.begin();
    for (const obs::MetricSample& s : samples) {
      EXPECT_EQ(key_of(s.name, s.labels), it->first) << what;
      EXPECT_EQ(s.kind, it->second.kind) << what;
      EXPECT_EQ(s.value, it->second.expect()) << what << ": " << it->first;
      EXPECT_EQ(reg_.value(s.name, s.labels), s.value) << what;
      ++it;
    }
    expect_same(reg_, rec_, ref_, what);
  }

  // Where new keys landed in the sorted order, rejected registrations, and
  // start() calls after a stop().
  int before = 0, between = 0, after = 0, rejected = 0, restarts = 0;

private:
  static constexpr double kStrides[] = {0.0, 0.25, 0.5, 1.375};

  struct Model {
    MetricKind kind;
    bool owned;
    std::function<double()> expect;  // the scalar, read from the test's own storage
  };

  Labels random_labels() {
    static const std::vector<Labels> pool = {
        {},
        {{"device", "p0"}},
        {{"device", "p1"}, {"subsystem", "net"}},
        {{"device", "p10"}},
        {{"subsystem", "health"}},
        {{"device", "p2"}, {"quantile", "x"}},  // prometheus must override it
        {{"a", "1"}, {"zz", "9"}},              // keys around "quantile"
        {{"device", "q\"x\\y"}},                // escaping in JSON and CSV
    };
    return pool[rng_.pick_index(pool.size())];
  }

  std::string random_name() {
    // Names that prefix each other, and names sorting before, among and
    // after the rest.
    static const char* const pool[] = {"a",    "mbx_processed_packets", "pkt", "pkts",
                                       "pkts_total", "m",               "zz"};
    return pool[rng_.pick_index(std::size(pool))];
  }

  void register_one() {
    const std::string name = random_name();
    const Labels labels = random_labels();
    const std::string key = key_of(name, labels);
    const auto kind = static_cast<MetricKind>(rng_.pick_index(3));
    const bool owned = rng_.next_bool(0.5);
    const auto existing = model_.find(key);
    if (existing != model_.end()) {
      // Re-requests: owned of the same kind returns the same instrument;
      // anything else is rejected and leaves the registry as it was.
      const bool ok = owned && existing->second.owned && existing->second.kind == kind;
      if (ok) {
        const std::size_t before_size = reg_.size();
        bind(name, labels, kind, owned);
        EXPECT_EQ(reg_.size(), before_size);
      } else {
        EXPECT_THROW(bind(name, labels, kind, owned), ContractViolation);
        ++rejected;
      }
      return;
    }
    const auto at = model_.lower_bound(key);
    if (at == model_.begin() && !model_.empty()) ++before;
    else if (at == model_.end()) ++after;
    else ++between;
    model_.emplace(key, Model{kind, owned, bind(name, labels, kind, owned)});
  }

  /// Register (name, labels) and return what its scalar must read.
  std::function<double()> bind(const std::string& name, const Labels& labels, MetricKind kind,
                               bool owned) {
    switch (kind) {
      case MetricKind::kCounter: {
        const std::uint64_t* v = nullptr;
        if (owned) {
          v = &counters_.emplace_back(&reg_.counter(name, labels))->value;
        } else {
          v = &exposed_counters_.emplace_back(0);
          reg_.expose_counter(name, labels, v);
        }
        return [v] { return static_cast<double>(*v); };
      }
      case MetricKind::kGauge: {
        if (owned) {
          const double* v = &gauges_.emplace_back(&reg_.gauge(name, labels))->value;
          return [v] { return *v; };
        }
        const double* v = &exposed_gauges_.emplace_back(0.0);
        reg_.expose_gauge(name, labels, [v] { return *v * 0.5; });
        return [v] { return *v * 0.5; };
      }
      case MetricKind::kHistogram: {
        const stats::Histogram* h = nullptr;
        if (owned) {
          h = hists_.emplace_back(&reg_.histogram(name, labels));
        } else {
          h = &exposed_hists_.emplace_back();
          reg_.expose_histogram(name, labels, h);
        }
        return [h] { return static_cast<double>(h->count()); };
      }
    }
    return {};
  }

  void mutate_one() {
    const double v = static_cast<double>(rng_.next_int(-20, 200)) / 8.0;
    switch (rng_.pick_index(6)) {
      case 0:
        if (!counters_.empty()) counters_[rng_.pick_index(counters_.size())]->inc(rng_.next_below(9));
        break;
      case 1:
        if (!gauges_.empty()) gauges_[rng_.pick_index(gauges_.size())]->set(v);
        break;
      case 2:
        if (!hists_.empty()) hists_[rng_.pick_index(hists_.size())]->add(v);
        break;
      case 3:
        if (!exposed_counters_.empty()) {
          exposed_counters_[rng_.pick_index(exposed_counters_.size())] += rng_.next_below(9);
        }
        break;
      case 4:
        if (!exposed_gauges_.empty()) exposed_gauges_[rng_.pick_index(exposed_gauges_.size())] = v;
        break;
      default:
        if (!exposed_hists_.empty()) exposed_hists_[rng_.pick_index(exposed_hists_.size())].add(v);
        break;
    }
  }

  // start() samples at once when not running; each fired tick samples while
  // running. The reference mirrors exactly those samples.
  void drive_scheduler() {
    const double r = rng_.next_double();
    if (r < 0.35) {
      const bool was_running = rec_.running();
      if (!was_running && !rec_.epochs().empty()) ++restarts;
      rec_.start([this](double delay, std::function<void()> fn) {
        pending_.emplace_back(delay, std::move(fn));
      }, [this] { return now_; });
      if (!was_running) ref_.sample(now_);
    } else if (r < 0.55) {
      rec_.stop();
    } else if (!pending_.empty()) {
      auto [delay, fn] = std::move(pending_.front());
      pending_.pop_front();
      now_ += delay;
      const bool was_running = rec_.running();
      fn();
      if (was_running) ref_.sample(now_);
    }
  }

  util::Rng rng_;
  obs::MetricsRegistry reg_;
  obs::EpochRecorder rec_{reg_, 0.5};
  ReferenceEpochRecorder ref_{reg_, 0.5};
  std::map<std::string, Model> model_;
  std::vector<obs::Counter*> counters_;
  std::vector<obs::Gauge*> gauges_;
  std::vector<stats::Histogram*> hists_;
  std::deque<std::uint64_t> exposed_counters_;
  std::deque<double> exposed_gauges_;
  std::deque<stats::Histogram> exposed_hists_;
  std::deque<std::pair<double, std::function<void()>>> pending_;
  double now_ = 0;
};

TEST(EpochEquivalence, SeededRandomInterleavings) {
  int before = 0, between = 0, after = 0, rejected = 0, restarts = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Interleaving run(seed);
    for (int i = 0; i < 300; ++i) {
      run.step();
      run.check("seed " + std::to_string(seed) + " step " + std::to_string(i));
      if (::testing::Test::HasFatalFailure()) return;
    }
    run.register_unsampled();
    run.check("seed " + std::to_string(seed) + " unsampled registration");
    before += run.before;
    between += run.between;
    after += run.after;
    rejected += run.rejected;
    restarts += run.restarts;
  }
  // The interleavings reached the paths they exist for.
  EXPECT_GT(before, 0);
  EXPECT_GT(between, 0);
  EXPECT_GT(after, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(restarts, 0);
}

TEST(EpochEquivalence, WaxmanChaosWorldLiveRegistry) {
  exp::ScenarioSpec spec;
  spec.topology = exp::TopologyKind::kWaxman;
  spec.waxman_edge_count = 400;
  spec.packets = 3000;
  spec.faults = exp::FaultScript::kChaos;
  spec.reopt.epoch_period = 0.5;
  const std::unique_ptr<exp::World> world = exp::build_world(spec);
  world->prepare_sim();
  sim::Simulator& sim = world->simnet->simulator();
  obs::EpochRecorder rec(world->registry, spec.epoch);
  ReferenceEpochRecorder ref(world->registry, spec.epoch);
  // Both sample in the same event, so they see the same registry state.
  const auto sample_both = [&] {
    rec.sample(sim.now());
    ref.sample(sim.now());
  };
  sample_both();
  const auto periodic = sim.schedule_every(spec.epoch, sample_both);
  sim.schedule_at(13.9, [periodic] { periodic->cancel(); });
  world->run();
  ASSERT_GT(rec.epoch_count(), 20u);
  ASSERT_GT(rec.width(), 1000u);
  expect_same(world->registry, rec, ref, "waxman400 chaos");
  // The drift loop's input, per middlebox.
  int loads = 0;
  for (const auto& s : rec.find_all("mbx_processed_packets")) {
    EXPECT_EQ(rec.latest(s.name(), s.labels()), ref.latest(s.name(), s.labels()));
    loads += s.latest() > 0;
  }
  EXPECT_GT(loads, 0);
}

}  // namespace
}  // namespace sdmbox
