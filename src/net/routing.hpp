// Forwarding tables and address resolution — the "traditional routing" substrate.
//
// This is the piece the paper deliberately does NOT modify: routers run a
// classical link-state protocol (OSPF in the paper), forwarding every packet
// toward its destination address along shortest paths, oblivious to
// middlebox policies. We model the converged state of that protocol
// exactly, but store it compactly: the pendant trees hanging off the 2-core
// (proxies, stub edge routers, middleboxes) are peeled into parent pointers,
// and per-node Dijkstra runs only over the k core nodes. A lookup is a tree
// step plus one k×k core-table read, giving the same next hops and distances
// as n full Dijkstras with deterministic equal-cost tie-breaking (DESIGN.md
// §16).
//
// AddressResolver maps packet destination addresses to topology nodes:
// exact match on device (interface) addresses first, then longest-prefix
// match over the stub subnets originated by edge routers, mirroring how OSPF
// advertises stub prefixes. The subnets are flattened into sorted disjoint
// address intervals, so a lookup is one binary search.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "net/shortest_path.hpp"
#include "net/topology.hpp"

namespace sdmbox::net {

/// Next-hop entry: neighbor to forward to and the connecting link.
struct NextHop {
  NodeId node;
  LinkId link;
  bool valid() const noexcept { return node.valid(); }
};

/// Converged forwarding state for the whole network.
class RoutingTables {
public:
  /// Build forwarding state for every node from link-state shortest paths.
  /// `down_links` (indexed by LinkId.v) models the converged state after the
  /// routing protocol detected those link failures. O(n + k²·log k) time and
  /// O(n + k²) memory for a topology whose 2-core has k nodes.
  static RoutingTables compute(const Topology& topo,
                               const std::vector<bool>* down_links = nullptr);

  /// Reconverge in place against the current link state — the "OSPF detects a
  /// link event and floods new LSAs" hook. Consumers that hold a reference to
  /// this object (e.g. a running SimNetwork) observe the new tables on their
  /// next lookup, which models routers cutting over to the freshly converged
  /// forwarding state.
  void recompute(const Topology& topo, const std::vector<bool>* down_links = nullptr) {
    *this = compute(topo, down_links);
  }

  /// Next hop at `at` towards destination node `dest`; invalid if unreachable
  /// or at == dest.
  NextHop next_hop(NodeId at, NodeId dest) const { return route(at, dest).next; }

  /// Shortest-path cost between two nodes (infinity if unreachable).
  double distance(NodeId from, NodeId to) const { return route(from, to).distance; }

  /// Full node path from -> to (inclusive); empty if unreachable.
  std::vector<NodeId> path(NodeId from, NodeId to) const;

  std::size_t node_count() const noexcept { return places_.size(); }

private:
  /// A node's place in the pendant forest. Core nodes are their own root.
  struct Place {
    NodeId parent;            // next node toward the root; invalid in the core
    LinkId uplink;            // link to `parent`
    NodeId root;              // core node this node's tree hangs off
    std::uint32_t row = 0;    // core-table row of `root`
    std::uint32_t level = 0;  // hops below `root`
    double depth = 0;         // cost from `root` down to this node
    bool forwards = false;    // is_forwarding(kind): may carry transit traffic
    bool uplink_up = true;    // `uplink` is not down
    /// The uplink chain to `root` carries traffic: every link on it is up
    /// and every node strictly between this node and `root` forwards.
    bool clear = true;
  };

  struct Route {
    NextHop next;
    double distance = ShortestPathTree::kInfinity;
  };

  Route route(NodeId from, NodeId to) const;

  std::vector<Place> places_;  // indexed by NodeId.v
  std::size_t core_count_ = 0;
  // core_next_[r * core_count_ + c] / core_dist_[...]: next hop and cost
  // from core row r towards core row c, over the core only.
  std::vector<NextHop> core_next_;
  std::vector<double> core_dist_;
};

/// Maps IP addresses to the topology node that terminates them.
class AddressResolver {
public:
  /// Index all device addresses and stub subnets in the topology. Stub
  /// subnets resolve to `subnet_terminal(edge_router)` — the in-path policy
  /// proxy when one is attached, else the edge router itself.
  static AddressResolver build(const Topology& topo);

  /// Resolve an address: exact device match first, then longest-prefix match
  /// over stub subnets. nullopt if nothing matches.
  std::optional<NodeId> resolve(IpAddress a) const;

  /// The edge router owning the longest-prefix stub subnet containing `a`,
  /// if any (used to locate the source/destination subnet of a flow).
  std::optional<NodeId> owning_edge_router(IpAddress a) const;

private:
  /// An address range whose longest matching stub subnet is fixed.
  /// Among identical prefixes the edge router with the smaller NodeId wins.
  struct Interval {
    std::uint32_t lo = 0;  // first address
    std::uint32_t hi = 0;  // last address (inclusive)
    NodeId terminal;
    NodeId edge_router;
  };

  /// The interval containing `a`, or nullptr if no subnet covers it.
  const Interval* find(IpAddress a) const;

  std::unordered_map<std::uint32_t, NodeId> exact_;
  std::vector<Interval> intervals_;  // sorted by lo, pairwise disjoint
};

}  // namespace sdmbox::net
