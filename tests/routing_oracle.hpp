// Test-only oracles for the routing substrate: the straightforward
// implementations that net::RoutingTables and net::AddressResolver replaced.
//
// DenseRoutingOracle is the all-pairs design — one Dijkstra per node and a
// full n×n next-hop/distance table — with the next-hop link taken from the
// link Dijkstra relaxed over. LinearAddressResolver scans every stub subnet
// in (prefix length desc, base asc, NodeId asc) order. Both are O(n²) or
// O(n) per lookup and exist only to pin the compact structures down.
#pragma once

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/routing.hpp"
#include "net/shortest_path.hpp"
#include "net/topology.hpp"

namespace sdmbox::testing {

class DenseRoutingOracle {
public:
  static DenseRoutingOracle compute(const net::Topology& topo,
                                    const std::vector<bool>* down_links = nullptr) {
    DenseRoutingOracle rt;
    const std::size_t n = topo.node_count();
    rt.next_.assign(n, std::vector<net::NextHop>(n));
    rt.dist_.assign(n, std::vector<double>(n, net::ShortestPathTree::kInfinity));
    for (std::uint32_t src = 0; src < n; ++src) {
      const net::ShortestPathTree tree = net::dijkstra(topo, net::NodeId{src}, down_links);
      for (std::uint32_t dst = 0; dst < n; ++dst) {
        rt.dist_[src][dst] = tree.distance[dst];
        if (dst == src || !tree.reachable(net::NodeId{dst})) continue;
        net::NodeId hop{dst};
        while (tree.predecessor[hop.v] != net::NodeId{src}) hop = tree.predecessor[hop.v];
        rt.next_[src][dst] = net::NextHop{hop, tree.via_link[hop.v]};
      }
    }
    return rt;
  }

  net::NextHop next_hop(net::NodeId at, net::NodeId dest) const { return next_[at.v][dest.v]; }
  double distance(net::NodeId from, net::NodeId to) const { return dist_[from.v][to.v]; }

private:
  std::vector<std::vector<net::NextHop>> next_;
  std::vector<std::vector<double>> dist_;
};

class LinearAddressResolver {
public:
  static LinearAddressResolver build(const net::Topology& topo) {
    LinearAddressResolver r;
    for (std::uint32_t i = 0; i < topo.node_count(); ++i) {
      r.exact_.emplace(topo.node(net::NodeId{i}).address.value(), net::NodeId{i});
    }
    for (std::uint32_t i = 0; i < topo.node_count(); ++i) {
      const net::Node& node = topo.node(net::NodeId{i});
      if (node.kind != net::NodeKind::kEdgeRouter || !node.has_subnet) continue;
      r.subnets_.push_back(Entry{node.subnet, node.subnet_terminal, net::NodeId{i}});
    }
    std::stable_sort(r.subnets_.begin(), r.subnets_.end(), [](const Entry& a, const Entry& b) {
      if (a.prefix.length() != b.prefix.length()) return a.prefix.length() > b.prefix.length();
      return a.prefix.base() < b.prefix.base();
    });
    return r;
  }

  std::optional<net::NodeId> resolve(net::IpAddress a) const {
    if (const auto it = exact_.find(a.value()); it != exact_.end()) return it->second;
    for (const auto& entry : subnets_) {
      if (entry.prefix.contains(a)) return entry.terminal;
    }
    return std::nullopt;
  }

  std::optional<net::NodeId> owning_edge_router(net::IpAddress a) const {
    for (const auto& entry : subnets_) {
      if (entry.prefix.contains(a)) return entry.edge_router;
    }
    return std::nullopt;
  }

private:
  struct Entry {
    net::Prefix prefix;
    net::NodeId terminal;
    net::NodeId edge_router;
  };
  std::unordered_map<std::uint32_t, net::NodeId> exact_;
  std::vector<Entry> subnets_;
};

}  // namespace sdmbox::testing
