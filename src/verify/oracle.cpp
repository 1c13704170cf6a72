#include "verify/oracle.hpp"

#include <algorithm>
#include <cstdio>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace sdmbox::verify {
namespace {

/// Narratives keep the full story of short paths and elide the middle of
/// pathological ones.
constexpr std::size_t kHistoryCap = 96;
constexpr std::size_t kSummaryViolations = 5;

std::string fmt_time(double t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", t);
  return buf;
}

/// Is `seq` a subsequence of `path`? Used below trace rate 1.0, where
/// mid-chain switched records (rewritten 5-tuple) may be unsampled.
bool subsequence_of(std::span<const net::NodeId> seq, std::span<const net::NodeId> path) {
  std::size_t i = 0;
  for (const net::NodeId n : path) {
    if (i < seq.size() && seq[i] == n) ++i;
  }
  return i == seq.size();
}

bool same_but_dst(const packet::FlowId& a, const packet::FlowId& b) noexcept {
  return a.src == b.src && a.src_port == b.src_port && a.dst_port == b.dst_port &&
         a.protocol == b.protocol;
}

std::uint64_t flow_hash(const packet::FlowId& f) noexcept { return f.hash(0x5eedULL); }

constexpr std::uint32_t kNoSlot = tables::FlatIndex::kNil;

/// Pop a slot off a slab's free list (linked through `link`), or grow the
/// slab by one.
template <typename T>
std::uint32_t take_slot(tables::StableSlab<T>& slab, std::uint32_t& free_head,
                        std::uint32_t T::*link) {
  const std::uint32_t slot = free_head;
  if (slot == kNoSlot) return slab.push();
  free_head = slab[slot].*link;
  slab[slot].*link = kNoSlot;
  return slot;
}

template <typename T>
void give_back(tables::StableSlab<T>& slab, std::uint32_t& free_head, std::uint32_t T::*link,
               std::uint32_t slot) noexcept {
  slab[slot].*link = free_head;
  free_head = slot;
}

}  // namespace

const char* to_string(ViolationKind k) noexcept {
  switch (k) {
    case ViolationKind::kSkippedFunction: return "skipped_function";
    case ViolationKind::kReorderedChain: return "reordered_chain";
    case ViolationKind::kUnexpectedFunction: return "unexpected_function";
    case ViolationKind::kDeliveredWithoutChain: return "delivered_without_chain";
    case ViolationKind::kLabelPathDivergence: return "label_path_divergence";
    case ViolationKind::kPostTeardownLabelUse: return "post_teardown_label_use";
  }
  return "?";
}

std::string VerifyReport::summary() const {
  std::string out = "invariant oracle: ";
  out += std::to_string(violations.size()) + " violation(s) over " +
         std::to_string(packets_tracked) + " tracked packet(s) (" +
         std::to_string(records_seen) + " records; delivered_ok=" +
         std::to_string(packets_delivered_ok) + " denied=" + std::to_string(packets_denied) +
         " dropped=" + std::to_string(packets_dropped) +
         " wp_served=" + std::to_string(packets_wp_served) +
         " anomaly_sunk=" + std::to_string(packets_anomaly_sunk) +
         " in_flight=" + std::to_string(packets_in_flight) +
         " unverified=" + std::to_string(packets_unverified) + ")";
  if (packets_in_unenforced_window > 0) {
    out += "\n" + std::to_string(packets_in_unenforced_window) +
           " packet(s) were forwarded inside unenforced windows (open replan or "
           "crash episode) — tolerated, attributed to their episode spans";
  }
  if (!coverage_complete) out += "\ncoverage INCOMPLETE: " + coverage_note;
  const std::size_t shown = std::min(violations.size(), kSummaryViolations);
  for (std::size_t i = 0; i < shown; ++i) out += "\n  " + violations[i].narrative;
  if (violations.size() > shown) {
    out += "\n  ... and " + std::to_string(violations.size() - shown) + " more";
  }
  return out;
}

InvariantOracle::KeyHash InvariantOracle::key_hash(const packet::FlowId& flow,
                                                   std::uint64_t seq) noexcept {
  std::uint64_t h = util::hash_combine(util::mix64(seq ^ 0xa11a5ULL), flow.src.value());
  h = util::hash_combine(h, (std::uint64_t{flow.src_port} << 32) |
                                (std::uint64_t{flow.dst_port} << 8) | flow.protocol);
  return KeyHash{h, util::hash_combine(h, flow.dst.value())};
}

InvariantOracle::InvariantOracle(const net::GeneratedNetwork& network,
                                 const core::Deployment& deployment,
                                 const policy::PolicyList& policies,
                                 const core::EnforcementPlan& plan,
                                 const policy::FunctionCatalog* catalog)
    : topo_(&network.topo),
      deployment_(&deployment),
      policies_(&policies),
      plan_(&plan),
      catalog_(catalog),
      resolver_(net::AddressResolver::build(network.topo)) {
  proxy_nodes_.resize(topo_->node_count(), false);
  for (const net::NodeId p : network.proxies) {
    if (p.valid() && p.v < proxy_nodes_.size()) proxy_nodes_[p.v] = true;
  }
  // The first deployment entry for a node wins.
  std::vector<bool> seen;
  for (const core::MiddleboxInfo& m : deployment.middleboxes()) {
    if (!m.node.valid()) continue;
    if (m.node.v >= box_functions_.size()) {
      box_functions_.resize(m.node.v + 1);
      seen.resize(m.node.v + 1, false);
    }
    if (seen[m.node.v]) continue;
    seen[m.node.v] = true;
    box_functions_[m.node.v] = m.functions;
  }
}

bool InvariantOracle::is_proxy(net::NodeId n) const noexcept {
  return n.valid() && n.v < proxy_nodes_.size() && proxy_nodes_[n.v];
}

bool InvariantOracle::at_destination(net::NodeId n, const packet::FlowId& flow) const {
  if (!n.valid() || n.v >= topo_->node_count()) return false;
  if (topo_->node(n).address == flow.dst) return true;
  const auto terminal = resolver_.resolve(flow.dst);
  return terminal.has_value() && *terminal == n;
}

policy::FunctionSet InvariantOracle::box_functions(net::NodeId n) const noexcept {
  return n.v < box_functions_.size() ? box_functions_[n.v] : policy::FunctionSet{};
}

std::string InvariantOracle::function_name(policy::FunctionId fn) const {
  if (catalog_ != nullptr && fn.valid() && fn.v < catalog_->size()) return catalog_->name(fn);
  return "fn" + std::to_string(fn.v);
}

std::string InvariantOracle::node_name(net::NodeId n) const {
  if (n.valid() && n.v < topo_->node_count()) return topo_->node(n).name;
  return "node" + std::to_string(n.v);
}

std::string InvariantOracle::describe_chain(const policy::Policy& pol) const {
  if (pol.deny) return "deny";
  if (pol.actions.empty()) return "permit";
  std::string out;
  for (std::size_t i = 0; i < pol.actions.size(); ++i) {
    if (i) out += "->";
    out += function_name(pol.actions[i]);
  }
  return out;
}

std::string InvariantOracle::hop_story(const PacketState& ps) const {
  std::string out;
  const auto tell = [&](const HistoryEntry& e) {
    out += "t=" + fmt_time(e.at) + ' ' + obs::to_string(e.hop) + '@' + node_name(e.node);
    if (e.detail != 0) out += "(detail=" + std::to_string(e.detail) + ')';
  };
  tell(ps.first);
  std::uint32_t chunk = ps.history_head;
  for (std::size_t i = 1; i < ps.history_len; ++i) {
    const std::size_t at = (i - 1) % kHistoryChunk;
    if (at == 0 && i > 1) chunk = history_[chunk].next;
    out += " -> ";
    tell(history_[chunk].entries[at]);
  }
  if (ps.history_len == kHistoryCap) out += " -> ... (history capped)";
  return out;
}

void InvariantOracle::append_history(PacketState& ps, const obs::TraceRecord& r) {
  // Entry 0 (the injection) is always present, inline.
  const std::size_t at = (ps.history_len - 1) % kHistoryChunk;
  if (at == 0) {
    const std::uint32_t chunk = take_slot(history_, history_free_, &HistoryChunk::next);
    if (ps.history_tail == kNil) {
      ps.history_head = chunk;
    } else {
      history_[ps.history_tail].next = chunk;
    }
    ps.history_tail = chunk;
  }
  history_[ps.history_tail].entries[at] = HistoryEntry{r.at, r.detail, r.node, r.hop};
  ++ps.history_len;
}

void InvariantOracle::release_history(PacketState& ps) noexcept {
  if (ps.history_head != kNil) {
    // Splice the packet's whole chunk list onto the free list.
    history_[ps.history_tail].next = history_free_;
    history_free_ = ps.history_head;
  }
  ps.history_head = ps.history_tail = kNil;
  ps.history_len = 0;
}

void InvariantOracle::release_epoch(PacketState& ps) noexcept {
  if (!ps.holds_epoch) return;
  ps.holds_epoch = false;
  FlowState& fs = flows_[ps.flow_slot];
  if (--fs.switched_open == 0) prune_paths(fs);
}

void InvariantOracle::prune_paths(FlowState& fs) noexcept {
  // Epochs ascend along the list; no open packet can ask for an old one.
  while (fs.paths_head != kNil && paths_[fs.paths_head].epoch < fs.epoch) {
    const std::uint32_t dead = fs.paths_head;
    fs.paths_head = paths_[dead].next;
    paths_[dead].boxes.clear();
    give_back(paths_, path_free_, &EstablishedPath::next, dead);
  }
  if (fs.paths_head == kNil) fs.paths_tail = kNil;
}

InvariantOracle::FlowState& InvariantOracle::flow_state(PacketState& ps) {
  if (ps.flow_slot == kNil) {
    const std::uint64_t hash = flow_hash(ps.flow);
    std::uint32_t slot =
        flow_index_.find(hash, [&](std::uint32_t i) { return flows_[i].flow == ps.flow; });
    if (slot == kNil) {
      slot = flows_.push();
      flows_[slot].flow = ps.flow;
      flow_index_.insert(hash, slot);
    }
    ps.flow_slot = slot;
  }
  return flows_[ps.flow_slot];
}

const policy::Policy* InvariantOracle::ground_truth(FlowState& fs) {
  if (!fs.truth_known) {
    fs.truth = policies_->first_match(fs.flow);
    fs.truth_known = true;
  }
  return fs.truth;
}

const policy::Policy* InvariantOracle::committed_policy(const FlowState& fs) const {
  if (!fs.policy_known || !fs.policy.valid() || fs.policy.v >= policies_->size()) return nullptr;
  return &policies_->at(fs.policy);
}

std::uint32_t InvariantOracle::lookup(const packet::FlowId& flow, std::uint64_t seq,
                                      std::uint64_t hash) const noexcept {
  return packet_index_.find(hash, [&](std::uint32_t id) {
    if (id & kWaiting) {
      const WaitingPacket& w = waiting_[id & ~kWaiting];
      return w.seq == seq && w.flow == flow;
    }
    return packets_[id].seq == seq && packets_[id].flow == flow;
  });
}

std::uint32_t InvariantOracle::alias_slot(const packet::FlowId& flow, std::uint64_t seq,
                                          std::uint64_t alias_hash) const noexcept {
  return alias_index_.find(alias_hash, [&](std::uint32_t i) {
    return aliases_[i].seq == seq && same_but_dst(aliases_[i].target, flow);
  });
}

std::uint32_t InvariantOracle::resolve(const packet::FlowId& flow, std::uint64_t seq,
                                       std::uint64_t hash) {
  const std::uint32_t id = lookup(flow, seq, hash);
  if (id == kNil || !(id & kWaiting)) return id;
  // The packet's first hop since injection: give it full state.
  const std::uint32_t w = id & ~kWaiting;
  const std::uint32_t slot = take_slot(packets_, packet_free_, &PacketState::next_free);
  PacketState& ps = packets_[slot];
  ps.flow = flow;
  ps.seq = seq;
  ps.hash = hash;
  ps.live = true;
  ps.first = waiting_[w].injected;
  ps.history_len = 1;
  packet_index_.erase(hash, id);
  packet_index_.insert(hash, slot);
  waiting_[w].live = false;
  give_back(waiting_, waiting_free_, &WaitingPacket::next_free, w);
  return slot;
}

std::uint32_t InvariantOracle::find_packet(const obs::TraceRecord& r, const KeyHash& kh) {
  const std::uint32_t slot = resolve(r.flow, r.seq, kh.exact);
  if (slot != kNil) return slot;
  // Mid-chain switched records carry a rewritten destination: resolve via the
  // destination-agnostic alias registered at kLabelSwitchTx. The alias names
  // a packet key, not a slot: whichever packet holds that key now.
  const std::uint32_t a = alias_slot(r.flow, r.seq, kh.alias);
  if (a == kNil) return kNil;
  return resolve(aliases_[a].target, aliases_[a].seq, aliases_[a].target_hash);
}

void InvariantOracle::open_packet(const obs::TraceRecord& r, const KeyHash& kh) {
  const HistoryEntry injected{r.at, r.detail, r.node, r.hop};
  const std::uint32_t id = lookup(r.flow, r.seq, kh.exact);
  if (id != kNil) {
    // Same (flow, seq) injected twice: the old packet's fate is unknowable.
    // The key starts over as a waiting packet (any stale alias naming it
    // still resolves to it).
    ++report_.packets_in_flight;
    if (id & kWaiting) {
      waiting_[id & ~kWaiting].injected = injected;
      return;
    }
    retire(id);
  }
  const std::uint32_t w = take_slot(waiting_, waiting_free_, &WaitingPacket::next_free);
  SDM_CHECK(w < kWaiting);
  waiting_[w] = WaitingPacket{r.flow, r.seq, injected, kNil, true};
  packet_index_.insert(kh.exact, w | kWaiting);
}

void InvariantOracle::register_alias(PacketState& ps, std::uint64_t alias_hash) {
  const std::uint32_t a = alias_slot(ps.flow, ps.seq, alias_hash);
  if (a == kNil) {
    const std::uint32_t slot = take_slot(aliases_, alias_free_, &Alias::next_free);
    aliases_[slot] = Alias{ps.flow, ps.seq, ps.hash, kNil};
    alias_index_.insert(alias_hash, slot);
    ps.has_alias = true;
    return;
  }
  const Alias& existing = aliases_[a];
  if (existing.target == ps.flow) {
    ps.has_alias = true;  // a stale alias for this very key: adopt it
    return;
  }
  // Two in-flight switched packets share everything but the destination:
  // neither can be attributed mid-chain. Flag both — counted, never
  // silently excused.
  const std::uint32_t other = resolve(existing.target, existing.seq, existing.target_hash);
  if (other != kNil) packets_[other].unverified = true;
  ps.unverified = true;
}

void InvariantOracle::violation(ViolationKind kind, const PacketState& ps, double at,
                                const std::string& cause) {
  ++violation_counts_[static_cast<std::size_t>(kind)];
  Violation v;
  v.kind = kind;
  v.flow = ps.flow;
  v.seq = ps.seq;
  v.at = at;
  v.narrative = std::string("[") + to_string(kind) + "] flow " + ps.flow.to_string() +
                " seq " + std::to_string(ps.seq) + ": " + cause + "; hops: " + hop_story(ps);
  report_.violations.push_back(std::move(v));
}

void InvariantOracle::handle_teardown(const obs::TraceRecord& r) {
  ++report_.teardown_notices;
  // Only proxy-side teardown records carry true 5-tuples (the middlebox-side
  // ones are synthesized from the label key, which lost the full tuple).
  if (!is_proxy(r.node)) return;
  const std::uint32_t slot =
      flow_index_.find(flow_hash(r.flow), [&](std::uint32_t i) {
        return flows_[i].flow == r.flow;
      });
  if (slot == kNil) return;
  FlowState& fs = flows_[slot];
  ++fs.epoch;
  fs.torn_at = r.at;
  if (fs.switched_open == 0) prune_paths(fs);
}

void InvariantOracle::handle_classified(const obs::TraceRecord& r, FlowState& fs) {
  if (!is_proxy(r.node)) {
    // Middlebox-side re-classification: cross-check only.
    if (fs.policy_known && fs.policy.v != r.detail) ++report_.policy_conflicts;
    return;
  }
  fs.touched_proxy = true;
  if (fs.policy_known) {
    if (fs.policy.v != r.detail) ++report_.policy_conflicts;
    return;
  }
  // detail is `policy id or 0 for no match`; committing waits for the next
  // hop (deny/tunnel/switch names the real id, permit needs none), which
  // disambiguates id 0 from "no policy".
  fs.candidate = r.detail;
  fs.has_candidate = true;
}

void InvariantOracle::handle_function(const obs::TraceRecord& r, PacketState& ps) {
  const policy::FunctionId fn{static_cast<std::uint8_t>(r.detail)};
  if (ps.boxes.empty() || ps.boxes.back() != r.node) ps.boxes.push_back(r.node);
  ps.applied.push_back(fn);

  // Invariant 1a: functions are applied by deployed implementers only.
  if (!box_functions(r.node).contains(fn)) {
    if (!ps.violated) {
      violation(ViolationKind::kUnexpectedFunction, ps, r.at,
                "function " + function_name(fn) + " applied at " + node_name(r.node) +
                    ", which does not implement it");
      ps.violated = true;
      ++report_.packets_violating;
    }
    return;
  }

  // Invariant 1b: policy order. Checked against the datapath's committed
  // policy; the ground-truth cross-check happens at delivery.
  FlowState& fs = flow_state(ps);
  const policy::Policy* pol = committed_policy(fs);
  if (pol == nullptr || ps.violated) return;
  if (ps.visited < pol->actions.size() && pol->actions[ps.visited] == fn) {
    ++ps.visited;
    return;
  }
  const bool in_chain =
      std::find(pol->actions.begin(), pol->actions.end(), fn) != pol->actions.end();
  const char* what = in_chain ? "out of policy order" : "not in the policy chain";
  violation(in_chain ? ViolationKind::kReorderedChain : ViolationKind::kUnexpectedFunction, ps,
            r.at,
            "policy " + std::to_string(pol->id.v) + " (" + describe_chain(*pol) +
                ") expected " +
                (ps.visited < pol->actions.size() ? function_name(pol->actions[ps.visited])
                                                  : std::string("chain tail")) +
                " next, but " + node_name(r.node) + " applied " + function_name(fn) + " (" +
                what + ")");
  ps.violated = true;
  ++report_.packets_violating;
}

void InvariantOracle::handle_chain_tail(PacketState& ps) {
  ps.chain_tail = true;
  if (ps.mode != Mode::kTunneled || ps.violated || ps.unverified) return;
  FlowState& fs = flow_state(ps);
  const policy::Policy* pol = committed_policy(fs);
  if (pol == nullptr || ps.applied.size() != pol->actions.size() ||
      ps.visited != pol->actions.size()) {
    return;
  }
  // A complete, in-order tunneled traversal: this box sequence is what the
  // flow's label path must reproduce (invariant 3). Several sequences per
  // epoch are legal — failover mid-establishment installs more than one.
  const std::span<const net::NodeId> boxes = ps.boxes.view();
  for (std::uint32_t i = fs.paths_head; i != kNil; i = paths_[i].next) {
    if (paths_[i].epoch == fs.epoch && std::ranges::equal(paths_[i].boxes.view(), boxes)) return;
  }
  const std::uint32_t slot = take_slot(paths_, path_free_, &EstablishedPath::next);
  paths_[slot].epoch = fs.epoch;
  paths_[slot].boxes.assign(boxes);
  if (fs.paths_tail == kNil) {
    fs.paths_head = slot;
  } else {
    paths_[fs.paths_tail].next = slot;
  }
  fs.paths_tail = slot;
}

void InvariantOracle::note_delivered_ok() {
  ++report_.packets_delivered_ok;
  if (spans_ == nullptr) return;
  // Attribute the delivery to the transient window it rode through, if any:
  // a replan still rolling out; failing that, an open unenforced fault
  // episode (crash detected but recovery not yet begun).
  obs::SpanId target = spans_->latest_open("replan");
  if (target == 0) {
    const obs::SpanId episode = spans_->latest_open("episode");
    if (episode != 0) {
      const obs::Span* e = spans_->find(episode);
      if (e != nullptr && e->attr_or("unenforced") == 1) target = episode;
    }
  }
  if (target == 0) return;
  ++report_.packets_in_unenforced_window;
  spans_->add_attr(target, "packets_in_window", 1);
}

void InvariantOracle::handle_delivered(const obs::TraceRecord& r, PacketState& ps) {
  FlowState& fs = flow_state(ps);
  if (!fs.touched_proxy) {
    // Control/cross traffic that never crossed a policy proxy (controller
    // pushes, heartbeats, management flows): out of the oracle's scope.
    ++report_.packets_delivered_ok;
    return;
  }
  // Policy traffic consumed somewhere other than its destination is an
  // anomaly sink (misdirected packets are swallowed, not forwarded):
  // accounted, and never a completed delivery.
  if (!at_destination(r.node, ps.flow)) {
    ps.anomaly = true;
    ++report_.packets_anomaly_sunk;
    return;
  }
  if (ps.unverified) {
    ++report_.packets_unverified;
    return;
  }

  // Invariant 2 uses the oracle's own ground truth — the full policy list,
  // not any device's possibly-stale slice.
  const policy::Policy* gt = ground_truth(fs);
  const policy::Policy* pol = committed_policy(fs);
  if (pol != nullptr && gt != nullptr && pol->id != gt->id) ++report_.policy_conflicts;

  if (gt != nullptr && gt->deny) {
    if (!ps.violated) {
      violation(ViolationKind::kDeliveredWithoutChain, ps, r.at,
                "policy " + std::to_string(gt->id.v) +
                    " denies this flow, yet the packet was delivered at " + node_name(r.node));
      ps.violated = true;
      ++report_.packets_violating;
    }
    return;
  }
  // Both arms lvalues: a prvalue arm would copy gt->actions per delivery.
  static const policy::ActionList kNoActions;
  const policy::ActionList& required = gt != nullptr ? gt->actions : kNoActions;
  if (required.empty()) {
    note_delivered_ok();
    return;
  }
  if (ps.violated) return;  // already reported upstream; don't cascade

  const std::string chain = describe_chain(*gt);
  switch (ps.mode) {
    case Mode::kOpen:
    case Mode::kPlain:
    case Mode::kDenied: {
      violation(ViolationKind::kDeliveredWithoutChain, ps, r.at,
                "policy " + std::to_string(gt->id.v) + " requires chain " + chain +
                    ", but the packet reached " + node_name(r.node) +
                    " with no enforcement at all");
      ps.violated = true;
      ++report_.packets_violating;
      return;
    }
    case Mode::kTunneled: {
      if (std::ranges::equal(ps.applied.view(), required)) {
        note_delivered_ok();
        return;
      }
      if (ps.applied.empty()) {
        violation(ViolationKind::kDeliveredWithoutChain, ps, r.at,
                  "policy " + std::to_string(gt->id.v) + " requires chain " + chain +
                      ", but the tunneled packet reached " + node_name(r.node) +
                      " with no function applied");
      } else {
        std::string missing;
        for (std::size_t i = ps.visited; i < required.size(); ++i) {
          if (!missing.empty()) missing += ", ";
          missing += function_name(required[i]);
        }
        violation(ViolationKind::kSkippedFunction, ps, r.at,
                  "policy " + std::to_string(gt->id.v) + " requires chain " + chain +
                      ", but the packet was delivered with [" +
                      (missing.empty() ? "chain content mismatch" : missing) + "] unvisited");
      }
      ps.violated = true;
      ++report_.packets_violating;
      return;
    }
    case Mode::kSwitched: {
      if (!ps.chain_tail) {
        violation(ViolationKind::kDeliveredWithoutChain, ps, r.at,
                  "policy " + std::to_string(gt->id.v) + " requires chain " + chain +
                      ", but the switched packet reached " + node_name(r.node) +
                      " without traversing a chain tail");
        ps.violated = true;
        ++report_.packets_violating;
        return;
      }
      // The flow's paths established in the epoch this packet switched in.
      bool any_path = false;
      for (std::uint32_t i = fs.paths_head; i != kNil && !any_path; i = paths_[i].next) {
        any_path = paths_[i].epoch == ps.path_epoch;
      }
      if (!any_path) {
        const bool after_teardown = ps.path_epoch > 0 && fs.torn_at >= 0;
        violation(after_teardown ? ViolationKind::kPostTeardownLabelUse
                                 : ViolationKind::kLabelPathDivergence,
                  ps, r.at,
                  after_teardown
                      ? ("label " + std::to_string(ps.label) +
                         " was used after teardown (t=" + fmt_time(fs.torn_at) +
                         ") without a tunneled packet re-establishing the chain")
                      : ("switched packet followed label " + std::to_string(ps.label) +
                         " but the flow never established a tunneled chain path"));
        ps.violated = true;
        ++report_.packets_violating;
        return;
      }
      const std::span<const net::NodeId> boxes = ps.boxes.view();
      bool matched = false;
      for (std::uint32_t i = fs.paths_head; i != kNil && !matched; i = paths_[i].next) {
        if (paths_[i].epoch != ps.path_epoch) continue;
        const std::span<const net::NodeId> p = paths_[i].boxes.view();
        matched = complete_stream_ ? std::ranges::equal(p, boxes)
                                   : !p.empty() && !boxes.empty() && p.back() == boxes.back() &&
                                         subsequence_of(boxes, p);
      }
      if (!matched) {
        std::string observed;
        for (std::size_t i = 0; i < boxes.size(); ++i) {
          if (i) observed += "->";
          observed += node_name(boxes[i]);
        }
        std::string expect;
        bool first = true;
        for (std::uint32_t i = fs.paths_head; i != kNil; i = paths_[i].next) {
          if (paths_[i].epoch != ps.path_epoch) continue;
          if (!first) expect += " | ";
          first = false;
          const std::span<const net::NodeId> p = paths_[i].boxes.view();
          for (std::size_t j = 0; j < p.size(); ++j) {
            if (j) expect += "->";
            expect += node_name(p[j]);
          }
        }
        violation(ViolationKind::kLabelPathDivergence, ps, r.at,
                  "label " + std::to_string(ps.label) + " path visited [" + observed +
                      "] but the flow's tunneled packets established [" + expect + "]");
        ps.violated = true;
        ++report_.packets_violating;
        return;
      }
      note_delivered_ok();
      return;
    }
  }
}

void InvariantOracle::finalize(std::uint32_t slot) {
  PacketState& ps = packets_[slot];
  if (ps.has_alias) {
    const std::uint64_t alias_hash = key_hash(ps.flow, ps.seq).alias;
    if (const std::uint32_t a = alias_slot(ps.flow, ps.seq, alias_hash); a != kNil) {
      alias_index_.erase(alias_hash, a);
      give_back(aliases_, alias_free_, &Alias::next_free, a);
    }
  }
  retire(slot);
}

void InvariantOracle::retire(std::uint32_t slot) {
  PacketState& ps = packets_[slot];
  packet_index_.erase(ps.hash, slot);
  release_epoch(ps);
  release_history(ps);
  ps = PacketState{};  // drops any spilled applied/boxes storage
  give_back(packets_, packet_free_, &PacketState::next_free, slot);
}

void InvariantOracle::on_record(const obs::TraceRecord& r) {
  if (finished_) return;
  ++report_.records_seen;
  using obs::Hop;

  if (r.hop == Hop::kLabelTeardown) {
    handle_teardown(r);
    return;
  }
  const KeyHash kh = key_hash(r.flow, r.seq);
  if (r.hop == Hop::kInjected) {
    open_packet(r, kh);
    ++report_.packets_tracked;
    return;
  }

  const std::uint32_t slot = find_packet(r, kh);
  if (slot == kNil) {
    ++report_.untracked_records;
    return;
  }
  PacketState& ps = packets_[slot];
  if (ps.history_len < kHistoryCap) append_history(ps, r);

  bool terminal = false;
  switch (r.hop) {
    case Hop::kClassified:
      handle_classified(r, flow_state(ps));
      break;
    case Hop::kCacheHit:
    case Hop::kCacheMiss:
      if (is_proxy(r.node)) flow_state(ps).touched_proxy = true;
      break;
    case Hop::kDenied: {
      FlowState& fs = flow_state(ps);
      fs.touched_proxy = true;
      if (!fs.policy_known) {
        fs.policy = policy::PolicyId{static_cast<std::uint32_t>(r.detail)};
        fs.policy_known = true;
      }
      ps.mode = Mode::kDenied;
      ++report_.packets_denied;
      terminal = true;
      break;
    }
    case Hop::kPermitted:
      flow_state(ps).touched_proxy = true;
      if (ps.mode == Mode::kOpen) ps.mode = Mode::kPlain;
      break;
    case Hop::kTunnelEncap:
      if (is_proxy(r.node) && ps.mode == Mode::kOpen) {
        FlowState& fs = flow_state(ps);
        fs.touched_proxy = true;
        if (!fs.policy_known && fs.has_candidate) {
          fs.policy = policy::PolicyId{static_cast<std::uint32_t>(fs.candidate)};
          fs.policy_known = true;
        }
        ps.mode = Mode::kTunneled;
      }
      break;
    case Hop::kTunnelDecap:
      if (ps.mode == Mode::kOpen) ps.mode = Mode::kTunneled;
      break;
    case Hop::kFunctionApplied:
      handle_function(r, ps);
      break;
    case Hop::kLabelSwitchTx:
      if (is_proxy(r.node) && ps.mode == Mode::kOpen) {
        FlowState& fs = flow_state(ps);
        fs.touched_proxy = true;
        if (!fs.policy_known && fs.has_candidate) {
          fs.policy = policy::PolicyId{static_cast<std::uint32_t>(fs.candidate)};
          fs.policy_known = true;
        }
        ps.mode = Mode::kSwitched;
        ps.label = static_cast<std::uint16_t>(r.detail);
        ps.path_epoch = fs.epoch;
        ps.holds_epoch = true;
        ++fs.switched_open;
        // Register the destination-agnostic alias for mid-chain records.
        // The record matched ps exactly or through its alias, so it agrees
        // with ps on everything the alias hash covers.
        register_alias(ps, kh.alias);
      }
      break;
    case Hop::kLabelSwitchRx:
      if (ps.boxes.empty() || ps.boxes.back() != r.node) ps.boxes.push_back(r.node);
      break;
    case Hop::kChainTail:
      handle_chain_tail(ps);
      break;
    case Hop::kWpCacheResponse:
      // §III.F legal truncation: the chain's web proxy answered from cache.
      ++report_.packets_wp_served;
      terminal = true;
      break;
    case Hop::kFailoverReroute:
      break;
    case Hop::kAnomaly:
      ps.anomaly = true;
      break;
    case Hop::kDelivered:
      handle_delivered(r, ps);
      terminal = true;
      break;
    case Hop::kDropNodeDown:
    case Hop::kDropNoRoute:
    case Hop::kDropTtl:
    case Hop::kDropQueue:
    case Hop::kDropLinkDown:
    case Hop::kDropLinkLoss:
      // Legitimate in-flight loss under faults: accounted explicitly.
      ++report_.packets_dropped;
      terminal = true;
      break;
    case Hop::kInjected:
    case Hop::kLabelTeardown:
      break;  // handled above
  }
  if (terminal) finalize(slot);
}

void InvariantOracle::replay(const obs::TraceSink& sink) {
  for (const obs::TraceRecord& r : sink.records()) on_record(r);
  if (sink.dropped() > 0) {
    report_.coverage_complete = false;
    report_.coverage_note = "trace ring shed " + std::to_string(sink.dropped()) +
                            " record(s); post-hoc verification cannot vouch for the missing "
                            "history (attach the oracle live, or grow the ring)";
  }
}

const VerifyReport& InvariantOracle::finish() {
  if (finished_) return report_;
  finished_ = true;
  if (report_.records_seen == 0) {
    // Zero records means zero verification, not a clean pass: the sampler
    // may have rejected every flow (tiny trace rate), or the oracle was
    // never attached to a live stream.
    report_.coverage_complete = false;
    report_.coverage_note =
        "no trace records reached the oracle — nothing was verified (raise the "
        "trace sample rate or attach the oracle to a live tracer)";
  }
  // Open packets are unfinished business, not violations: their terminal
  // record never arrived (in flight at end of run, or silently consumed
  // after an anomaly). Counted so nothing is silently excused.
  for (std::uint32_t i = 0; i < waiting_.size(); ++i) {
    if (waiting_[i].live) ++report_.packets_in_flight;
  }
  for (std::uint32_t i = 0; i < packets_.size(); ++i) {
    const PacketState& ps = packets_[i];
    if (!ps.live) continue;
    if (ps.anomaly) {
      ++report_.packets_dropped;
    } else {
      ++report_.packets_in_flight;
    }
  }
  return report_;
}

void InvariantOracle::register_metrics(obs::MetricsRegistry& registry) const {
  const obs::Labels base{{"subsystem", "verify"}};
  registry.expose_counter("verify_records_seen", base, &report_.records_seen);
  registry.expose_counter("verify_packets_tracked", base, &report_.packets_tracked);
  registry.expose_counter("verify_packets_delivered_ok", base, &report_.packets_delivered_ok);
  registry.expose_counter("verify_packets_denied", base, &report_.packets_denied);
  registry.expose_counter("verify_packets_dropped", base, &report_.packets_dropped);
  registry.expose_counter("verify_packets_wp_served", base, &report_.packets_wp_served);
  registry.expose_counter("verify_packets_anomaly_sunk", base, &report_.packets_anomaly_sunk);
  registry.expose_counter("verify_packets_in_flight", base, &report_.packets_in_flight);
  registry.expose_counter("verify_packets_violating", base, &report_.packets_violating);
  registry.expose_counter("verify_packets_unverified", base, &report_.packets_unverified);
  registry.expose_counter("verify_untracked_records", base, &report_.untracked_records);
  registry.expose_counter("verify_teardown_notices", base, &report_.teardown_notices);
  registry.expose_counter("verify_policy_conflicts", base, &report_.policy_conflicts);
  for (std::size_t i = 0; i < kViolationKindCount; ++i) {
    obs::Labels labels = base;
    labels.set("class", to_string(static_cast<ViolationKind>(i)));
    registry.expose_counter("verify_violations", labels, &violation_counts_[i]);
  }
  registry.expose_gauge("verify_coverage_incomplete", base,
                        [this] { return report_.coverage_complete ? 0.0 : 1.0; });
  // conv_* series exist only when the span machinery is attached, so a
  // verified-but-unspanned run's metrics dump is unchanged.
  if (spans_ != nullptr) {
    registry.expose_counter("conv_unenforced_window_packets", base,
                            &report_.packets_in_unenforced_window);
  }
}

}  // namespace sdmbox::verify
