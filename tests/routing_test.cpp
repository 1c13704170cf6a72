// Compact routing and the indexed address resolver, pinned against the
// dense all-pairs routing and the linear prefix scan they replaced
// (tests/routing_oracle.hpp): every pair on campus, Waxman-400 and
// Waxman-2k, single-link failures, 200 seeded random graphs, parallel links
// and nested prefixes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "net/routing.hpp"
#include "net/topologies.hpp"
#include "policy/function.hpp"
#include "routing_oracle.hpp"
#include "util/rng.hpp"

namespace sdmbox::net {
namespace {

using sdmbox::testing::DenseRoutingOracle;
using sdmbox::testing::LinearAddressResolver;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// `path` is the oracle's hop-by-hop path from -> to (empty iff unreachable).
bool is_oracle_path(const std::vector<NodeId>& path, const DenseRoutingOracle& oracle,
                    NodeId from, NodeId to) {
  if (oracle.distance(from, to) == ShortestPathTree::kInfinity) return path.empty();
  if (path.empty() || path.front() != from || path.back() != to) return false;
  for (std::size_t k = 0; k + 1 < path.size(); ++k) {
    if (oracle.next_hop(path[k], to).node != path[k + 1]) return false;
  }
  return true;
}

/// Every (from, to) pair: next-hop node and link, distance and path agree
/// with the dense oracle, and so does every node's route set — the
/// neighbors it forwards to over all destinations, as in the MedvedDB
/// router tests. Distances must be bit-identical unless
/// `distance_tolerance` > 0 (fractional costs, DESIGN.md §16).
void expect_matches_oracle(const Topology& topo, const std::vector<bool>* down,
                           const std::string& what, double distance_tolerance = 0) {
  const RoutingTables compact = RoutingTables::compute(topo, down);
  const DenseRoutingOracle oracle = DenseRoutingOracle::compute(topo, down);
  ASSERT_EQ(compact.node_count(), topo.node_count()) << what;
  std::size_t mismatches = 0;
  const auto n = static_cast<std::uint32_t>(topo.node_count());
  // Route sets of the current `from`: marks hold the row that last saw a node.
  std::vector<std::uint32_t> compact_mark(n, n), oracle_mark(n, n);
  std::vector<NodeId> compact_set, oracle_set;
  const auto add = [](std::vector<std::uint32_t>& mark, std::vector<NodeId>& set, NodeId node,
                      std::uint32_t row) {
    if (!node.valid() || mark[node.v] == row) return;
    mark[node.v] = row;
    set.push_back(node);
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId from{i};
    compact_set.clear();
    oracle_set.clear();
    for (std::uint32_t j = 0; j < n; ++j) {
      const NodeId to{j};
      const NextHop c = compact.next_hop(from, to);
      const NextHop o = oracle.next_hop(from, to);
      add(compact_mark, compact_set, c.node, i);
      add(oracle_mark, oracle_set, o.node, i);
      const double cd = compact.distance(from, to);
      const double od = oracle.distance(from, to);
      const bool same_distance = distance_tolerance > 0 && od != ShortestPathTree::kInfinity
                                     ? std::abs(cd - od) <= distance_tolerance * od
                                     : same_bits(cd, od);
      if (c.node == o.node && c.link == o.link && same_distance &&
          is_oracle_path(compact.path(from, to), oracle, from, to)) {
        continue;
      }
      if (++mismatches <= 5) {
        ADD_FAILURE() << what << ": " << i << " -> " << j << " compact {" << c.node.v << ", "
                      << c.link.v << ", " << cd << "} oracle {" << o.node.v << ", " << o.link.v
                      << ", " << od << "}";
      }
    }
    std::sort(compact_set.begin(), compact_set.end());
    std::sort(oracle_set.begin(), oracle_set.end());
    if (compact_set != oracle_set && ++mismatches <= 5) {
      ADD_FAILURE() << what << ": route set of node " << i << " differs";
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
}

/// Links `verify::generate_chaos` may flap: both ends gateway/core/edge routers.
std::vector<LinkId> flappable_links(const Topology& topo) {
  std::vector<LinkId> out;
  for (std::uint32_t l = 0; l < topo.link_count(); ++l) {
    const Link& link = topo.link(LinkId{l});
    if (is_router(topo.node(link.a).kind) && is_router(topo.node(link.b).kind)) {
      out.push_back(LinkId{l});
    }
  }
  return out;
}

/// A shipped world as the simulator sees it: topology plus the paper's
/// middlebox deployment (middleboxes hang off core routers as leaves).
GeneratedNetwork deployed(GeneratedNetwork network, std::uint64_t seed) {
  util::Rng rng(seed);
  core::deploy_middleboxes(network, policy::FunctionCatalog::standard(),
                           core::DeploymentParams{}, rng);
  return network;
}

GeneratedNetwork waxman_world(std::size_t edges, std::uint64_t seed) {
  WaxmanParams wp;
  wp.edge_count = edges;
  wp.seed = seed;
  return deployed(make_waxman_topology(wp), seed);
}

// ---------------------------------------------------------------------------
// Equivalence on shipped worlds
// ---------------------------------------------------------------------------

TEST(CompactRouting, MatchesDenseOracleOnCampusWithEachLinkDown) {
  for (const ProxyMode mode : {ProxyMode::kInPath, ProxyMode::kOffPath}) {
    CampusParams cp;
    cp.proxy_mode = mode;
    const GeneratedNetwork net = deployed(make_campus_topology(cp), 2019);
    const std::string world = mode == ProxyMode::kInPath ? "campus" : "campus off-path";
    expect_matches_oracle(net.topo, nullptr, world);
    const std::vector<LinkId> links = flappable_links(net.topo);
    ASSERT_FALSE(links.empty());
    for (const LinkId l : links) {
      std::vector<bool> down(net.topo.link_count(), false);
      down[l.v] = true;
      expect_matches_oracle(net.topo, &down, world + " link " + std::to_string(l.v) + " down");
    }
  }
}

TEST(CompactRouting, MatchesDenseOracleOnWaxman400WithSampledLinksDown) {
  const GeneratedNetwork net = waxman_world(400, 2019);
  expect_matches_oracle(net.topo, nullptr, "waxman400");
  // Every single-link case over every pair is ~850 oracle builds; sample
  // core-core and edge-core links separately so both failure shapes (a
  // reroute inside the core, a cut-off stub tree) are covered.
  std::vector<LinkId> core_core, edge_core;
  for (const LinkId l : flappable_links(net.topo)) {
    const Link& link = net.topo.link(l);
    const bool edge = net.topo.node(link.a).kind == NodeKind::kEdgeRouter ||
                      net.topo.node(link.b).kind == NodeKind::kEdgeRouter;
    (edge ? edge_core : core_core).push_back(l);
  }
  ASSERT_FALSE(core_core.empty());
  ASSERT_FALSE(edge_core.empty());
  util::Rng rng(400);
  for (const auto* pool : {&core_core, &edge_core}) {
    for (int i = 0; i < 3; ++i) {
      const LinkId l = (*pool)[rng.pick_index(pool->size())];
      std::vector<bool> down(net.topo.link_count(), false);
      down[l.v] = true;
      expect_matches_oracle(net.topo, &down, "waxman400 link " + std::to_string(l.v) + " down");
    }
  }
}

TEST(CompactRouting, MatchesDenseOracleOnWaxman2k) {
  const GeneratedNetwork net = waxman_world(2000, 2019);
  expect_matches_oracle(net.topo, nullptr, "waxman2k");
}

// ---------------------------------------------------------------------------
// Seeded random graphs
// ---------------------------------------------------------------------------

struct RandomGraph {
  Topology topo;
  std::vector<bool> down;
};

/// 2–40 nodes of every NodeKind (so non-forwarding nodes get children and
/// serve as attachment points), a random spanning forest plus — unless the
/// graph is a pure tree — extra links, some parallel. Integer costs in 1–5
/// make equal-cost ties common; fractional costs exercise rounding.
RandomGraph random_graph(util::Rng& rng, bool pure_tree, bool fractional) {
  static constexpr NodeKind kKinds[] = {NodeKind::kGatewayRouter, NodeKind::kCoreRouter,
                                        NodeKind::kEdgeRouter,    NodeKind::kHost,
                                        NodeKind::kPolicyProxy,   NodeKind::kMiddlebox};
  static constexpr double kFractional[] = {0.1, 0.2, 0.3, 0.7, 1.1, 2.5};
  RandomGraph g;
  const auto n = static_cast<std::uint32_t>(2 + rng.next_below(39));
  for (std::uint32_t i = 0; i < n; ++i) {
    g.topo.add_node(kKinds[rng.pick_index(6)], std::to_string(i), IpAddress(0x0a000000u + i));
  }
  const auto params = [&] {
    LinkParams p;
    p.cost = fractional ? kFractional[rng.pick_index(6)] : static_cast<double>(1 + rng.next_below(5));
    return p;
  };
  // Each node attaches to a random earlier node; a few stay disconnected.
  for (std::uint32_t i = 1; i < n; ++i) {
    if (!pure_tree && rng.next_bool(0.05)) continue;
    g.topo.add_link(NodeId{static_cast<std::uint32_t>(rng.next_below(i))}, NodeId{i}, params());
  }
  if (!pure_tree) {
    const std::uint64_t extra = rng.next_below(n);
    for (std::uint64_t e = 0; e < extra; ++e) {
      const auto a = static_cast<std::uint32_t>(rng.next_below(n));
      const auto b = static_cast<std::uint32_t>(rng.next_below(n));
      if (a != b) g.topo.add_link(NodeId{a}, NodeId{b}, params());
    }
  }
  g.down.assign(g.topo.link_count(), false);
  for (std::size_t l = 0; l < g.down.size(); ++l) g.down[l] = rng.next_bool(0.2);
  return g;
}

TEST(CompactRouting, RandomGraphsMatchDenseOracle) {
  util::Rng rng(12);
  for (int i = 0; i < 200; ++i) {
    const bool pure_tree = i % 5 == 0;
    const RandomGraph g = random_graph(rng, pure_tree, /*fractional=*/false);
    const std::string what = "graph " + std::to_string(i) + (pure_tree ? " (tree)" : "");
    expect_matches_oracle(g.topo, nullptr, what);
    expect_matches_oracle(g.topo, &g.down, what + " with links down");
  }
}

TEST(CompactRouting, FractionalCostsKeepNextHopsAndDistancesWithinRounding) {
  util::Rng rng(13);
  for (int i = 0; i < 60; ++i) {
    const RandomGraph g = random_graph(rng, i % 5 == 0, /*fractional=*/true);
    const std::string what = "fractional graph " + std::to_string(i);
    expect_matches_oracle(g.topo, nullptr, what, 1e-12);
    expect_matches_oracle(g.topo, &g.down, what + " with links down", 1e-12);
  }
}

TEST(CompactRouting, TreeRoutesThroughNonForwardingNodesAreUnreachable) {
  // core ring r0-r1-r2 ; r0 - host h - router t (t hangs below a leaf).
  Topology t;
  const NodeId r0 = t.add_node(NodeKind::kCoreRouter, "r0", IpAddress(1));
  const NodeId r1 = t.add_node(NodeKind::kCoreRouter, "r1", IpAddress(2));
  const NodeId r2 = t.add_node(NodeKind::kCoreRouter, "r2", IpAddress(3));
  const NodeId h = t.add_node(NodeKind::kHost, "h", IpAddress(4));
  const NodeId below = t.add_node(NodeKind::kEdgeRouter, "t", IpAddress(5));
  t.add_link(r0, r1);
  t.add_link(r1, r2);
  t.add_link(r2, r0);
  t.add_link(r0, h);
  t.add_link(h, below);
  const auto rt = RoutingTables::compute(t);
  EXPECT_TRUE(rt.next_hop(below, h).valid());
  EXPECT_EQ(rt.distance(below, h), 1.0);
  EXPECT_FALSE(rt.next_hop(below, r0).valid());
  EXPECT_FALSE(rt.next_hop(r1, below).valid());
  EXPECT_EQ(rt.distance(r1, below), ShortestPathTree::kInfinity);
  EXPECT_EQ(rt.distance(r1, h), 2.0);
  expect_matches_oracle(t, nullptr, "leaf with a child");
}

// ---------------------------------------------------------------------------
// Parallel links: the next-hop link is the one Dijkstra relaxed over
// ---------------------------------------------------------------------------

struct ParallelPair {
  Topology topo;
  NodeId a, b, ha, hb;  // routers a, b and one host below each
  LinkId l0, l1;        // a–b, in creation order
};

ParallelPair parallel_pair(double cost0, double cost1) {
  ParallelPair p;
  p.a = p.topo.add_node(NodeKind::kCoreRouter, "a", IpAddress(1));
  p.b = p.topo.add_node(NodeKind::kCoreRouter, "b", IpAddress(2));
  p.ha = p.topo.add_node(NodeKind::kHost, "ha", IpAddress(3));
  p.hb = p.topo.add_node(NodeKind::kHost, "hb", IpAddress(4));
  LinkParams lp;
  lp.cost = cost0;
  p.l0 = p.topo.add_link(p.a, p.b, lp);
  lp.cost = cost1;
  p.l1 = p.topo.add_link(p.a, p.b, lp);
  p.topo.add_link(p.a, p.ha);
  p.topo.add_link(p.b, p.hb);
  return p;
}

TEST(CompactRouting, ParallelLinksOneDownUseTheLiveLink) {
  for (const double cost0 : {5.0, 1.0}) {
    const ParallelPair p = parallel_pair(cost0, 3.0);
    std::vector<bool> down(p.topo.link_count(), false);
    down[p.l0.v] = true;
    const auto rt = RoutingTables::compute(p.topo, &down);
    EXPECT_EQ(rt.next_hop(p.a, p.b).link, p.l1);
    EXPECT_EQ(rt.next_hop(p.b, p.a).link, p.l1);
    EXPECT_EQ(rt.next_hop(p.a, p.hb).link, p.l1);
    EXPECT_EQ(rt.distance(p.a, p.b), 3.0);
    EXPECT_EQ(rt.distance(p.ha, p.hb), 5.0);
    expect_matches_oracle(p.topo, &down, "parallel, l0 down");
  }
}

TEST(CompactRouting, ParallelLinksWithDifferentCostsUseTheCheaper) {
  const ParallelPair p = parallel_pair(5.0, 1.0);
  const auto rt = RoutingTables::compute(p.topo);
  EXPECT_EQ(rt.next_hop(p.a, p.b).link, p.l1);
  EXPECT_EQ(rt.next_hop(p.b, p.ha).link, p.l1);
  EXPECT_EQ(rt.distance(p.a, p.b), 1.0);
  expect_matches_oracle(p.topo, nullptr, "parallel, different costs");
  // Equal costs: the first link in adjacency order, as Dijkstra relaxes it.
  const ParallelPair tie = parallel_pair(2.0, 2.0);
  EXPECT_EQ(RoutingTables::compute(tie.topo).next_hop(tie.a, tie.b).link, tie.l0);
  expect_matches_oracle(tie.topo, nullptr, "parallel, equal costs");
}

// ---------------------------------------------------------------------------
// AddressResolver against the linear scan
// ---------------------------------------------------------------------------

void expect_resolver_matches_scan(const Topology& topo, const std::string& what) {
  const AddressResolver fast = AddressResolver::build(topo);
  const LinearAddressResolver scan = LinearAddressResolver::build(topo);
  std::vector<std::uint32_t> probes = {0u, 1u, 0x7fffffffu, 0xfffffffeu, 0xffffffffu,
                                       0xcb007107u /* 203.0.113.7 */};
  for (std::uint32_t i = 0; i < topo.node_count(); ++i) {
    const Node& node = topo.node(NodeId{i});
    probes.push_back(node.address.value());
    if (node.kind != NodeKind::kEdgeRouter || !node.has_subnet) continue;
    const std::uint32_t first = node.subnet.first().value();
    const std::uint32_t last = node.subnet.last().value();
    for (const std::uint32_t a : {first - 1, first, first + 1, last, last + 1}) probes.push_back(a);
  }
  util::Rng rng(7);
  for (int i = 0; i < 2000; ++i) probes.push_back(static_cast<std::uint32_t>(rng.next_u64()));
  std::size_t mismatches = 0;
  for (const std::uint32_t v : probes) {
    const IpAddress a(v);
    if (fast.resolve(a) == scan.resolve(a) &&
        fast.owning_edge_router(a) == scan.owning_edge_router(a)) {
      continue;
    }
    if (++mismatches <= 5) ADD_FAILURE() << what << ": address " << a.to_string();
  }
  EXPECT_EQ(mismatches, 0u) << what;
}

TEST(IndexedResolver, MatchesLinearScanOnShippedWorlds) {
  CampusParams off;
  off.proxy_mode = ProxyMode::kOffPath;
  expect_resolver_matches_scan(deployed(make_campus_topology(), 1).topo, "campus");
  expect_resolver_matches_scan(deployed(make_campus_topology(off), 1).topo, "campus off-path");
  expect_resolver_matches_scan(waxman_world(400, 2019).topo, "waxman400");
  WaxmanParams wide;
  wide.edge_count = 1500;
  wide.subnet_prefix_len = 22;
  wide.hosts_per_subnet = 1;
  expect_resolver_matches_scan(make_waxman_topology(wide).topo, "waxman /22");
}

TEST(IndexedResolver, NestedPrefixesResolveToTheLongestMatch) {
  Topology t;
  std::vector<NodeId> edges;
  const auto edge = [&](const char* name, const char* prefix) {
    const auto p = Prefix::parse(prefix);
    SDM_CHECK(p.has_value());
    const NodeId e = t.add_node(NodeKind::kEdgeRouter, name,
                                IpAddress(172, 16, 0, static_cast<std::uint8_t>(edges.size() + 1)));
    edges.push_back(e);
    t.set_subnet(e, *p);
    return e;
  };
  const NodeId whole = edge("whole", "0.0.0.0/0");
  edge("ten", "10.0.0.0/8");
  const NodeId mid = edge("mid", "10.1.0.0/16");
  edge("low", "10.1.2.0/24");
  const NodeId upper = edge("upper", "10.1.2.128/25");
  edge("upper-dup", "10.1.2.128/25");  // identical prefix: smaller NodeId owns it
  edge("top", "255.255.255.255/32");
  edge("side", "10.2.0.0/16");
  const NodeId side_low = edge("side-low", "10.2.0.0/20");  // same base, longer
  // An in-path proxy terminating one subnet, and a device inside a nested one.
  const NodeId proxy = t.add_node(NodeKind::kPolicyProxy, "proxy", IpAddress(10, 1, 0, 9));
  t.set_subnet(mid, *Prefix::parse("10.1.0.0/16"), proxy);
  t.add_link(mid, proxy);

  const AddressResolver r = AddressResolver::build(t);
  EXPECT_EQ(r.owning_edge_router(IpAddress(10, 1, 2, 200)), upper);
  EXPECT_EQ(r.owning_edge_router(IpAddress(192, 0, 2, 1)), whole);
  EXPECT_EQ(r.owning_edge_router(IpAddress(10, 2, 0, 1)), side_low);
  EXPECT_EQ(r.resolve(IpAddress(10, 1, 7, 7)), proxy);
  EXPECT_EQ(r.resolve(IpAddress(10, 1, 0, 9)), proxy);
  EXPECT_EQ(r.owning_edge_router(IpAddress(10, 1, 0, 9)), mid);
  expect_resolver_matches_scan(t, "nested");
}

}  // namespace
}  // namespace sdmbox::net
