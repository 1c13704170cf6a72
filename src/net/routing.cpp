#include "net/routing.hpp"

#include <algorithm>
#include <cstdint>

namespace sdmbox::net {

RoutingTables RoutingTables::compute(const Topology& topo,
                                     const std::vector<bool>* down_links) {
  const std::size_t n = topo.node_count();
  const auto is_down = [&](LinkId l) { return down_links != nullptr && (*down_links)[l.v]; };
  RoutingTables rt;
  rt.places_.resize(n);

  // Peel the pendant forest: strip degree-1 nodes (counting links, and
  // ignoring link state) until none is left. A peeled node's one remaining
  // link is its uplink. A node whose last neighbor was peeled first keeps
  // degree 0 and stays, so a tree component keeps exactly one core node.
  std::vector<std::uint32_t> degree(n);
  std::vector<NodeId> queue;
  for (std::uint32_t i = 0; i < n; ++i) {
    degree[i] = static_cast<std::uint32_t>(topo.neighbors(NodeId{i}).size());
    if (degree[i] == 1) queue.push_back(NodeId{i});
  }
  std::vector<NodeId> peel_order;
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const NodeId u = queue[qi];
    if (degree[u.v] != 1) continue;
    Place& place = rt.places_[u.v];
    for (const auto& adj : topo.neighbors(u)) {
      if (degree[adj.neighbor.v] == 0) continue;  // already peeled
      place.parent = adj.neighbor;
      place.uplink = adj.link;
      break;
    }
    degree[u.v] = 0;
    if (--degree[place.parent.v] == 1) queue.push_back(place.parent);
    peel_order.push_back(u);
  }

  // The core: every node left, numbered in NodeId order so that the core
  // graph's Dijkstra breaks ties exactly as it would on the full topology.
  Topology core;
  std::vector<NodeId> core_nodes;
  for (std::uint32_t i = 0; i < n; ++i) {
    Place& place = rt.places_[i];
    place.forwards = is_forwarding(topo.node(NodeId{i}).kind);
    if (place.parent.valid()) continue;
    place.root = NodeId{i};
    place.row = static_cast<std::uint32_t>(core_nodes.size());
    core_nodes.push_back(NodeId{i});
    core.add_node(topo.node(NodeId{i}).kind, {}, topo.node(NodeId{i}).address);
  }
  // Parents were peeled after their children, so reverse peel order visits
  // every parent first.
  for (auto it = peel_order.rbegin(); it != peel_order.rend(); ++it) {
    Place& place = rt.places_[it->v];
    const Place& parent = rt.places_[place.parent.v];
    place.root = parent.root;
    place.row = parent.row;
    place.level = parent.level + 1;
    place.depth = parent.depth + topo.link(place.uplink).params.cost;
    place.uplink_up = !is_down(place.uplink);
    place.clear = place.uplink_up &&
                  (!parent.parent.valid() || (parent.forwards && parent.clear));
  }

  // Core links in LinkId order keep every core node's adjacency order, so
  // equal-cost parallel links resolve to the same via_link.
  std::vector<LinkId> core_links;
  std::vector<bool> core_down;
  for (std::uint32_t l = 0; l < topo.link_count(); ++l) {
    const Link& link = topo.link(LinkId{l});
    if (rt.places_[link.a.v].parent.valid() || rt.places_[link.b.v].parent.valid()) continue;
    core.add_link(NodeId{rt.places_[link.a.v].row}, NodeId{rt.places_[link.b.v].row}, link.params);
    core_links.push_back(LinkId{l});
    core_down.push_back(is_down(LinkId{l}));
  }

  const std::size_t k = core_nodes.size();
  rt.core_count_ = k;
  rt.core_next_.assign(k * k, NextHop{});
  rt.core_dist_.assign(k * k, ShortestPathTree::kInfinity);
  for (std::uint32_t src = 0; src < k; ++src) {
    const ShortestPathTree tree = dijkstra(core, NodeId{src}, &core_down);
    for (std::uint32_t dst = 0; dst < k; ++dst) {
      rt.core_dist_[src * k + dst] = tree.distance[dst];
      if (dst == src || !tree.reachable(NodeId{dst})) continue;
      // Walk predecessors from dst back to src to find the first hop.
      NodeId hop{dst};
      while (tree.predecessor[hop.v] != NodeId{src}) {
        hop = tree.predecessor[hop.v];
        SDM_CHECK_MSG(hop.valid(), "broken predecessor chain");
      }
      rt.core_next_[src * k + dst] = NextHop{core_nodes[hop.v], core_links[tree.via_link[hop.v].v]};
    }
  }
  return rt;
}

RoutingTables::Route RoutingTables::route(NodeId from, NodeId to) const {
  SDM_CHECK(from.v < places_.size() && to.v < places_.size());
  if (from == to) return Route{NextHop{}, 0.0};
  const Place& a = places_[from.v];
  const Place& b = places_[to.v];

  if (a.root != b.root) {
    // Up a's tree to its root, across the core, down b's tree. Both roots
    // carry transit traffic unless they are the endpoints themselves.
    const std::size_t cell = a.row * core_count_ + b.row;
    const double core = core_dist_[cell];
    const bool reachable = a.clear && b.clear && core < ShortestPathTree::kInfinity &&
                           (from == a.root || places_[a.root.v].forwards) &&
                           (to == b.root || places_[b.root.v].forwards);
    if (!reachable) return Route{};
    const NextHop next = a.parent.valid() ? NextHop{a.parent, a.uplink} : core_next_[cell];
    return Route{next, a.depth + core + b.depth};
  }

  // Same tree: the only path meets at the lowest common ancestor. Every link
  // on it must be up and every node strictly inside it must forward.
  bool reachable = true;
  const auto step = [&](NodeId& node, NodeId endpoint) {
    const Place& place = places_[node.v];
    reachable = reachable && place.uplink_up && (node == endpoint || place.forwards);
    node = place.parent;
  };
  NodeId up = from;
  NodeId down = to;
  NodeId child;  // the lowest common ancestor's child on the `to` side
  while (places_[up.v].level > places_[down.v].level) step(up, from);
  while (places_[down.v].level > places_[up.v].level) {
    child = down;
    step(down, to);
  }
  while (up != down) {
    step(up, from);
    child = down;
    step(down, to);
  }
  const Place& meet = places_[up.v];
  if (up != from && up != to) reachable = reachable && meet.forwards;
  if (!reachable) return Route{};
  const NextHop next =
      up == from ? NextHop{child, places_[child.v].uplink} : NextHop{a.parent, a.uplink};
  return Route{next, (a.depth - meet.depth) + (b.depth - meet.depth)};
}

std::vector<NodeId> RoutingTables::path(NodeId from, NodeId to) const {
  std::vector<NodeId> out;
  if (from.v >= places_.size() || to.v >= places_.size()) return out;
  if (distance(from, to) == ShortestPathTree::kInfinity) return out;
  out.push_back(from);
  NodeId cur = from;
  while (cur != to) {
    const NextHop hop = next_hop(cur, to);
    if (!hop.valid()) return {};
    cur = hop.node;
    out.push_back(cur);
    SDM_CHECK_MSG(out.size() <= places_.size(), "forwarding loop detected");
  }
  return out;
}

AddressResolver AddressResolver::build(const Topology& topo) {
  AddressResolver r;
  for (std::uint32_t i = 0; i < topo.node_count(); ++i) {
    const Node& node = topo.node(NodeId{i});
    r.exact_.emplace(node.address.value(), NodeId{i});
  }

  // Stub subnets terminate at the node the topology declared (the in-path
  // proxy for in-path deployments, the edge router for off-path ones).
  struct Subnet {
    std::uint32_t first;
    std::uint32_t last;
    std::uint8_t length;
    NodeId terminal;
    NodeId edge_router;
  };
  std::vector<Subnet> subnets;
  for (std::uint32_t i = 0; i < topo.node_count(); ++i) {
    const Node& node = topo.node(NodeId{i});
    if (node.kind != NodeKind::kEdgeRouter || !node.has_subnet) continue;
    subnets.push_back(Subnet{node.subnet.first().value(), node.subnet.last().value(),
                             node.subnet.length(), node.subnet_terminal, NodeId{i}});
  }
  // Prefixes are nested or disjoint, so sorting by (base, length) puts every
  // prefix after the ones containing it; identical prefixes keep NodeId order.
  std::stable_sort(subnets.begin(), subnets.end(), [](const Subnet& a, const Subnet& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.length < b.length;
  });

  // Sweep with a stack of open (nested) prefixes: the top is the longest
  // match for the addresses between the cursor and the next boundary.
  std::vector<const Subnet*> open;
  std::uint64_t cursor = 0;  // first address not yet assigned an interval
  const auto emit_until = [&](std::uint64_t end) {  // exclusive end
    if (open.empty() || cursor >= end) return;
    const Subnet& s = *open.back();
    r.intervals_.push_back(Interval{static_cast<std::uint32_t>(cursor),
                                    static_cast<std::uint32_t>(end - 1), s.terminal,
                                    s.edge_router});
    cursor = end;
  };
  const auto close_before = [&](std::uint64_t address) {
    while (!open.empty() && open.back()->last < address) {
      emit_until(std::uint64_t{open.back()->last} + 1);
      open.pop_back();
    }
  };
  for (const Subnet& s : subnets) {
    close_before(s.first);
    if (!open.empty() && open.back()->first == s.first && open.back()->length == s.length) {
      continue;  // identical prefix: the smaller NodeId already owns it
    }
    emit_until(s.first);
    cursor = s.first;
    open.push_back(&s);
  }
  close_before(std::uint64_t{1} << 32);
  return r;
}

const AddressResolver::Interval* AddressResolver::find(IpAddress a) const {
  const auto it = std::upper_bound(intervals_.begin(), intervals_.end(), a.value(),
                                   [](std::uint32_t v, const Interval& i) { return v < i.lo; });
  if (it == intervals_.begin()) return nullptr;
  const Interval& candidate = *std::prev(it);
  return a.value() <= candidate.hi ? &candidate : nullptr;
}

std::optional<NodeId> AddressResolver::resolve(IpAddress a) const {
  if (const auto it = exact_.find(a.value()); it != exact_.end()) return it->second;
  if (const Interval* i = find(a)) return i->terminal;
  return std::nullopt;
}

std::optional<NodeId> AddressResolver::owning_edge_router(IpAddress a) const {
  if (const Interval* i = find(a)) return i->edge_router;
  return std::nullopt;
}

}  // namespace sdmbox::net
