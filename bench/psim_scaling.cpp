// Partitioned-engine scaling: packets/sec vs shard count on one ISP-scale
// streaming Waxman world (the waxman_scale recipe, default 10k edge
// routers). One topology + routing + flow schedule is built once; each
// shard count then gets a fresh SimNetwork, the BFS partition, and — above
// one region — the conservative windowed psim::Engine. Forwarding totals
// are cross-checked between runs, so the sweep doubles as a same-world
// equivalence test at scale.
//
// Run: ./build/bench/psim_scaling                 # edges=10000, shards 1,2,4,8
//      ./build/bench/psim_scaling --edges 2500    # CI perf-smoke size
// Flags:
//   --edges N    Waxman edge-router count (default 10000)
//   --packets N  packets injected per run (default 100000)
//   --seed S     master seed (default 1)
//
// Emits BENCH_psim_scaling.json (perf trajectory; wall-clock derived, so
// values depend on the machine — CI regenerates, bench/baselines/ keeps the
// recorded history): per-shard throughput plus the set-up cost of the world
// (setup_s, of which routing_build_s is RoutingTables::compute) and the
// process's peak RSS (peak_rss_mb, VmHWM).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/partition.hpp"
#include "psim/engine.hpp"
#include "sim/network.hpp"
#include "workload/stream_gen.hpp"

using namespace sdmbox;

namespace {

/// Peak resident set size in MB (VmHWM from /proc/self/status); 0 when
/// unavailable (non-Linux).
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0;
}

struct Args {
  std::size_t edges = 10'000;
  std::uint64_t packets = 100'000;
  std::uint64_t seed = 1;
};

/// One pre-materialized injection: FlowStream records flattened into
/// (source proxy, packet, time) triples so every shard count replays the
/// exact same schedule.
struct Injection {
  net::NodeId source;
  packet::Packet packet;
  double at = 0;
};

struct RunResult {
  double wall_s = 0;
  std::uint64_t delivered = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t cross_messages = 0;
  std::size_t cut_links = 0;
};

RunResult run_with_shards(const net::GeneratedNetwork& network, const net::RoutingTables& routing,
                          const net::AddressResolver& resolver,
                          const std::vector<Injection>& schedule, std::size_t shards) {
  sim::SimNetwork simnet(network.topo, routing, resolver);
  const net::Partition part = net::partition_regions(network.topo, shards);
  simnet.enable_partition(part);
  std::unique_ptr<psim::Engine> engine;
  if (simnet.partitioned()) engine = std::make_unique<psim::Engine>(simnet);
  for (const Injection& inj : schedule) simnet.inject(inj.source, inj.packet, inj.at);

  const auto t0 = std::chrono::steady_clock::now();
  if (engine) {
    engine->run();
  } else {
    simnet.run();
  }
  RunResult r;
  r.wall_s = bench::seconds_since(t0);
  r.delivered = simnet.counters().delivered;
  for (std::size_t i = 0; i < simnet.region_count(); ++i) {
    r.events += simnet.region_simulator(static_cast<std::uint32_t>(i)).events_processed();
  }
  if (engine) {
    r.windows = engine->stats().windows;
    r.cross_messages = engine->stats().cross_messages;
  }
  r.cut_links = part.cut_size();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (std::strcmp(argv[i], "--edges") == 0) {
      const char* v = next();
      if (v != nullptr) args.edges = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--packets") == 0) {
      const char* v = next();
      if (v != nullptr) args.packets = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      const char* v = next();
      if (v != nullptr) args.seed = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--edges N] [--packets N] [--seed S]\n", argv[0]);
      return 2;
    }
  }

  // The waxman_scale world recipe, minus middleboxes the forwarding-only
  // sweep never visits: wide worlds get the /22 stub slices.
  const auto setup_start = std::chrono::steady_clock::now();
  net::WaxmanParams wp;
  wp.seed = args.seed;
  wp.edge_count = args.edges;
  wp.subnet_prefix_len = args.edges + 2 < (1u << 12) ? 20 : 22;
  const net::GeneratedNetwork network = net::make_waxman_topology(wp);
  const auto routing_start = std::chrono::steady_clock::now();
  const net::RoutingTables routing = net::RoutingTables::compute(network.topo);
  const double routing_build_s = bench::seconds_since(routing_start);
  const net::AddressResolver resolver = net::AddressResolver::build(network.topo);
  std::printf("psim_scaling: %zu edge routers, %zu nodes, %zu links, routing built in %.4fs\n",
              args.edges, network.topo.node_count(), network.topo.link_count(), routing_build_s);

  // Policy-shaped flows from the streaming generator, flattened once into a
  // dense injection schedule (4 packets per flow, flows staggered 10 us
  // apart, packets 100 us apart) shared by every shard count.
  util::Rng rng(args.seed);
  workload::PolicyGenParams pp;
  pp.many_to_one = pp.one_to_many = pp.one_to_one = 6;
  const auto gen = workload::generate_policies(network, pp, rng);
  workload::FlowGenParams fp;
  // The schedule caps each flow at 4 packets while the stream's stopping
  // rule counts full power-law flow sizes (mean ~33), so the stream target
  // needs a wide margin to actually fill the injection budget.
  fp.target_total_packets = args.packets * 40;
  workload::FlowStream stream(network, gen, fp, rng);
  std::vector<Injection> schedule;
  schedule.reserve(args.packets);
  workload::FlowRecord f;
  std::uint64_t flow_index = 0;
  while (schedule.size() < args.packets && stream.next(f)) {
    const std::uint64_t n = std::min<std::uint64_t>(f.packets, 4);
    const double base = static_cast<double>(flow_index % 10'000) * 1e-5;
    for (std::uint64_t j = 0; j < n && schedule.size() < args.packets; ++j) {
      Injection inj;
      inj.source = network.proxies[static_cast<std::size_t>(f.src_subnet)];
      inj.packet.inner.src = f.id.src;
      inj.packet.inner.dst = f.id.dst;
      inj.packet.src_port = f.id.src_port;
      inj.packet.dst_port = f.id.dst_port;
      inj.packet.payload_bytes = 200;
      inj.at = base + static_cast<double>(j) * 1e-4;
      schedule.push_back(inj);
    }
    ++flow_index;
  }
  const double setup_s = bench::seconds_since(setup_start);
  std::printf("schedule: %zu packets from %llu flows; set-up %.2fs\n", schedule.size(),
              static_cast<unsigned long long>(flow_index), setup_s);

  std::vector<bench::BenchMetric> metrics;
  metrics.push_back({"edges", static_cast<double>(args.edges)});
  metrics.push_back({"packets", static_cast<double>(schedule.size())});
  metrics.push_back({"setup_s", setup_s});
  metrics.push_back({"routing_build_s", routing_build_s});
  double pps1 = 0, pps4 = 0;
  std::uint64_t delivered1 = 0;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const RunResult r = run_with_shards(network, routing, resolver, schedule, shards);
    const double pps = static_cast<double>(schedule.size()) / std::max(r.wall_s, 1e-9);
    const double eps = static_cast<double>(r.events) / std::max(r.wall_s, 1e-9);
    std::printf("shards %zu: %.2fs wall, %.0f packets/s, %.0f events/s, %llu delivered, "
                "%llu windows, %llu cross, %zu cut links\n",
                shards, r.wall_s, pps, eps, static_cast<unsigned long long>(r.delivered),
                static_cast<unsigned long long>(r.windows),
                static_cast<unsigned long long>(r.cross_messages), r.cut_links);
    if (shards == 1) {
      pps1 = pps;
      delivered1 = r.delivered;
    } else if (r.delivered != delivered1) {
      std::fprintf(stderr, "FATAL: shards %zu delivered %llu != serial %llu\n", shards,
                   static_cast<unsigned long long>(r.delivered),
                   static_cast<unsigned long long>(delivered1));
      return 1;
    }
    if (shards == 4) pps4 = pps;
    const std::string suffix = "_shards_" + std::to_string(shards);
    metrics.push_back({"packets_per_sec" + suffix, pps});
    metrics.push_back({"events_per_sec" + suffix, eps});
    if (shards > 1) {
      metrics.push_back({"windows" + suffix, static_cast<double>(r.windows)});
      metrics.push_back({"cross_messages" + suffix, static_cast<double>(r.cross_messages)});
      metrics.push_back({"cut_links" + suffix, static_cast<double>(r.cut_links)});
    }
  }
  metrics.push_back({"speedup_1_to_4", pps1 > 0 ? pps4 / pps1 : 0});
  const double rss_mb = peak_rss_mb();
  metrics.push_back({"peak_rss_mb", rss_mb});
  std::printf("peak RSS %.1f MB\n", rss_mb);
  bench::emit_bench_json("psim_scaling", metrics);
  return 0;
}
