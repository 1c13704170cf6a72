// Perf-trajectory harness for epoch recording (BENCH_micro_epoch.json): what
// one obs::EpochRecorder::sample() costs on a registry shaped like the
// Waxman-2k world (68,915 series; 68,919 here).
//
// The registry mirrors that world's mix: per-node forwarding counters on
// 4,047 nodes, per-agent control / flow-cache / peer-health counters on
// 2,022 agents (two flow-cache gauges as closures, as FlowTable registers
// them), per-proxy counters on 2,000 proxies, a few hundred owned counters
// and gauges, and four owned histograms. All counters are views into
// component-style structs, registered device by device the way the
// components do it.
//
//  * register — building the registry, per series;
//  * cold — a fresh recorder's first sample, per series;
//  * warmed — a recorder that has already sampled, per series per sample,
//    with counters moving between samples (best of reps).
//
// Allocations per warmed sample must not grow with the registry: the bench
// exits 1 if they exceed 2 (the row, plus amortised growth of the epoch
// list).
#include "alloc_count.hpp"
#include "common.hpp"

#include <deque>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace {

using namespace sdmbox;

constexpr int kReps = 5;
constexpr int kWarmup = 4;
constexpr int kSamples = 64;
constexpr double kMaxAllocsPerSample = 2;

struct NodeCounters {
  std::uint64_t seen = 0, delivered = 0, dropped = 0;
};

struct AgentCounters {
  std::uint64_t control[5] = {};
  std::uint64_t cache[6] = {};
  std::uint64_t peer[4] = {};
  std::uint64_t size = 0;
};

struct ProxyCounters {
  std::uint64_t c[11] = {};
};

/// Component-side storage the registry views point into.
struct World {
  std::vector<NodeCounters> nodes = std::vector<NodeCounters>(4047);
  std::vector<AgentCounters> agents = std::vector<AgentCounters>(2022);
  std::vector<ProxyCounters> proxies = std::vector<ProxyCounters>(2000);
  std::deque<obs::Counter*> owned;

  /// Every view and owned instrument moves a little, as between two epochs
  /// of a run.
  void advance(std::uint64_t step) {
    for (std::size_t i = 0; i < nodes.size(); ++i) nodes[i].seen += (i + step) & 3;
    for (std::size_t i = 0; i < agents.size(); i += 7) agents[i].cache[0] += step;
    for (std::size_t i = 0; i < proxies.size(); i += 3) proxies[i].c[5] += 1;
    for (obs::Counter* c : owned) c->inc(step & 1);
  }
};

void build_registry(World& w, obs::MetricsRegistry& reg) {
  static const char* const kControl[] = {"control_acks_sent", "control_configs_applied",
                                         "control_configs_duplicate", "control_configs_rejected",
                                         "control_reports_sent"};
  static const char* const kCache[] = {"flow_cache_evictions", "flow_cache_expirations",
                                       "flow_cache_hits",      "flow_cache_invalidations",
                                       "flow_cache_misses",    "flow_cache_negative_hits"};
  static const char* const kPeer[] = {"peer_blacklists", "peer_probes_sent", "peer_replies",
                                      "peer_revivals"};
  for (std::size_t i = 0; i < w.nodes.size(); ++i) {
    const obs::Labels dev{{"device", "n" + std::to_string(i)}, {"subsystem", "net"}};
    reg.expose_counter("node_packets_seen", dev, &w.nodes[i].seen);
    reg.expose_counter("node_packets_delivered", dev, &w.nodes[i].delivered);
    reg.expose_counter("node_packets_dropped", dev, &w.nodes[i].dropped);
  }
  for (std::size_t i = 0; i < w.agents.size(); ++i) {
    const std::string device = "a" + std::to_string(i);
    AgentCounters& a = w.agents[i];
    const obs::Labels control{{"device", device}, {"subsystem", "control"}};
    for (std::size_t k = 0; k < 5; ++k) reg.expose_counter(kControl[k], control, &a.control[k]);
    const obs::Labels cache{{"device", device}, {"subsystem", "flow_cache"}};
    for (std::size_t k = 0; k < 6; ++k) reg.expose_counter(kCache[k], cache, &a.cache[k]);
    reg.expose_gauge("flow_cache_size", cache, [&a] { return static_cast<double>(a.size); });
    reg.expose_gauge("flow_cache_hit_rate", cache, [&a] {
      const std::uint64_t lookups = a.cache[2] + a.cache[4];
      return lookups == 0 ? 0.0 : static_cast<double>(a.cache[2]) / static_cast<double>(lookups);
    });
    const obs::Labels peer{{"device", device}, {"subsystem", "health"}};
    for (std::size_t k = 0; k < 4; ++k) reg.expose_counter(kPeer[k], peer, &a.peer[k]);
  }
  for (std::size_t i = 0; i < w.proxies.size(); ++i) {
    const obs::Labels dev{{"device", "p" + std::to_string(i)}, {"subsystem", "proxy"}};
    for (std::size_t k = 0; k < 11; ++k) {
      reg.expose_counter("proxy_counter_" + std::to_string(k), dev, &w.proxies[i].c[k]);
    }
  }
  for (std::size_t k = 0; k < 40; ++k) {
    for (std::size_t d = 0; d < 10; ++d) {
      const obs::Labels dev{{"device", "m" + std::to_string(d)}, {"subsystem", "middlebox"}};
      if (k % 4 == 0) {
        reg.gauge("mbx_level_" + std::to_string(k), dev).set(static_cast<double>(d) * 0.5);
      } else {
        w.owned.push_back(&reg.counter("mbx_counter_" + std::to_string(k), dev));
      }
    }
  }
  for (std::size_t k = 0; k < 4; ++k) {
    stats::Histogram& h = reg.histogram("conv_latency_" + std::to_string(k));
    for (int s = 0; s < 100; ++s) h.add(static_cast<double>(s % 17) * 0.01);
  }
}

}  // namespace

int main() {
  double register_ns = 1e100;
  double cold_ns = 1e100;
  double warm_ns = 1e100;
  double allocs_per_sample = 0;
  double series = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    World world;
    obs::MetricsRegistry registry;
    auto start = std::chrono::steady_clock::now();
    build_registry(world, registry);
    series = static_cast<double>(registry.size());
    register_ns = std::min(register_ns, bench::seconds_since(start) * 1e9 / series);

    obs::EpochRecorder recorder(registry, 0.5);
    start = std::chrono::steady_clock::now();
    recorder.sample(0.0);
    cold_ns = std::min(cold_ns, bench::seconds_since(start) * 1e9 / series);

    double t = 0;
    for (int i = 1; i < kWarmup; ++i) {
      world.advance(static_cast<std::uint64_t>(i));
      recorder.sample(t += 0.5);
    }
    double sampling_s = 0;
    const std::uint64_t allocs_before = bench::alloc_count();
    std::uint64_t advance_allocs = 0;
    for (int i = 0; i < kSamples; ++i) {
      const std::uint64_t a = bench::alloc_count();
      world.advance(static_cast<std::uint64_t>(i));
      advance_allocs += bench::alloc_count() - a;
      start = std::chrono::steady_clock::now();
      recorder.sample(t += 0.5);
      sampling_s += bench::seconds_since(start);
    }
    allocs_per_sample =
        static_cast<double>(bench::alloc_count() - allocs_before - advance_allocs) / kSamples;
    warm_ns = std::min(warm_ns, sampling_s * 1e9 / (series * kSamples));
    bench::keep(recorder.epoch_count());
  }

  std::printf("registry            : %.0f series\n", series);
  std::printf("register            : %8.1f ns/series\n", register_ns);
  std::printf("cold sample         : %8.2f ns/series\n", cold_ns);
  std::printf("warmed sample       : %8.2f ns/series/sample, %.3f allocs/sample\n", warm_ns,
              allocs_per_sample);

  bench::emit_bench_json("micro_epoch", {{"series", series},
                                         {"register_ns_per_series", register_ns},
                                         {"cold_ns_per_series", cold_ns},
                                         {"warm_ns_per_series", warm_ns},
                                         {"warm_allocs_per_sample", allocs_per_sample}});
  if (allocs_per_sample > kMaxAllocsPerSample) {
    std::fprintf(stderr, "micro_epoch: a warmed sample allocated %.3f times (limit %.0f)\n",
                 allocs_per_sample, kMaxAllocsPerSample);
    return 1;
  }
  return 0;
}
