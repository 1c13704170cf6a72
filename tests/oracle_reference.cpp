#include "oracle_reference.hpp"

#include <algorithm>
#include <cstdio>

#include "util/hash.hpp"

namespace sdmbox::testing {
namespace {

constexpr std::size_t kHistoryCap = 96;

std::string fmt_time(double t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", t);
  return buf;
}

bool subsequence_of(const std::vector<net::NodeId>& seq, const std::vector<net::NodeId>& path) {
  std::size_t i = 0;
  for (const net::NodeId n : path) {
    if (i < seq.size() && seq[i] == n) ++i;
  }
  return i == seq.size();
}

}  // namespace

std::size_t ReferenceOracle::PacketKeyHash::operator()(const PacketKey& k) const noexcept {
  return static_cast<std::size_t>(
      util::mix64(k.flow.hash(0xa11a5ULL) ^ (k.seq * 0x9e3779b97f4a7c15ULL)));
}

ReferenceOracle::ReferenceOracle(const net::GeneratedNetwork& network,
                                 const core::Deployment& deployment,
                                 const policy::PolicyList& policies,
                                 const core::EnforcementPlan& /*plan*/,
                                 const policy::FunctionCatalog* catalog)
    : topo_(&network.topo),
      policies_(&policies),
      catalog_(catalog),
      resolver_(net::AddressResolver::build(network.topo)) {
  proxy_nodes_.resize(topo_->node_count(), false);
  for (const net::NodeId p : network.proxies) {
    if (p.valid() && p.v < proxy_nodes_.size()) proxy_nodes_[p.v] = true;
  }
  for (const core::MiddleboxInfo& m : deployment.middleboxes()) {
    box_functions_.emplace(m.node.v, m.functions);
  }
}

bool ReferenceOracle::is_proxy(net::NodeId n) const noexcept {
  return n.valid() && n.v < proxy_nodes_.size() && proxy_nodes_[n.v];
}

bool ReferenceOracle::at_destination(net::NodeId n, const packet::FlowId& flow) const {
  if (!n.valid() || n.v >= topo_->node_count()) return false;
  if (topo_->node(n).address == flow.dst) return true;
  const auto terminal = resolver_.resolve(flow.dst);
  return terminal.has_value() && *terminal == n;
}

const policy::FunctionSet* ReferenceOracle::box_functions(net::NodeId n) const {
  const auto it = box_functions_.find(n.v);
  return it == box_functions_.end() ? nullptr : &it->second;
}

std::string ReferenceOracle::function_name(policy::FunctionId fn) const {
  if (catalog_ != nullptr && fn.valid() && fn.v < catalog_->size()) return catalog_->name(fn);
  return "fn" + std::to_string(fn.v);
}

std::string ReferenceOracle::node_name(net::NodeId n) const {
  if (n.valid() && n.v < topo_->node_count()) return topo_->node(n).name;
  return "node" + std::to_string(n.v);
}

std::string ReferenceOracle::describe_chain(const policy::Policy& pol) const {
  if (pol.deny) return "deny";
  if (pol.actions.empty()) return "permit";
  std::string out;
  for (std::size_t i = 0; i < pol.actions.size(); ++i) {
    if (i) out += "->";
    out += function_name(pol.actions[i]);
  }
  return out;
}

std::string ReferenceOracle::hop_story(const PacketState& ps) const {
  std::string out;
  for (std::size_t i = 0; i < ps.history.size(); ++i) {
    const obs::TraceRecord& r = ps.history[i];
    if (i) out += " -> ";
    out += "t=" + fmt_time(r.at) + ' ' + obs::to_string(r.hop) + '@' + node_name(r.node);
    if (r.detail != 0) out += "(detail=" + std::to_string(r.detail) + ')';
  }
  if (ps.history.size() == kHistoryCap) out += " -> ... (history capped)";
  return out;
}

const policy::Policy* ReferenceOracle::committed_policy(const FlowState& fs) const {
  if (!fs.policy_known || !fs.policy.valid() || fs.policy.v >= policies_->size()) return nullptr;
  return &policies_->at(fs.policy);
}

ReferenceOracle::PacketState* ReferenceOracle::find_packet(const obs::TraceRecord& r) {
  const PacketKey exact{r.flow, r.seq};
  if (const auto it = packets_.find(exact); it != packets_.end()) return &it->second;
  // Mid-chain switched records carry a rewritten destination: resolve via the
  // destination-agnostic alias registered at kLabelSwitchTx.
  PacketKey alias = exact;
  alias.flow.dst = net::IpAddress{};
  if (const auto ait = aliases_.find(alias); ait != aliases_.end()) {
    if (const auto it = packets_.find(ait->second); it != packets_.end()) return &it->second;
  }
  return nullptr;
}

void ReferenceOracle::violation(verify::ViolationKind kind, const PacketState& ps, double at,
                                const std::string& cause) {
  verify::Violation v;
  v.kind = kind;
  v.flow = ps.key.flow;
  v.seq = ps.key.seq;
  v.at = at;
  v.narrative = std::string("[") + verify::to_string(kind) + "] flow " + ps.key.flow.to_string() +
                " seq " + std::to_string(ps.key.seq) + ": " + cause + "; hops: " + hop_story(ps);
  report_.violations.push_back(std::move(v));
}

void ReferenceOracle::handle_teardown(const obs::TraceRecord& r) {
  ++report_.teardown_notices;
  // Only proxy-side teardown records carry true 5-tuples (the middlebox-side
  // ones are synthesized from the label key, which lost the full tuple).
  if (!is_proxy(r.node)) return;
  const auto it = flows_.find(r.flow);
  if (it == flows_.end()) return;
  FlowState& fs = it->second;
  ++fs.epoch;
  fs.torn_at = r.at;
  if (fs.established.size() <= fs.epoch) fs.established.resize(fs.epoch + 1);
}

void ReferenceOracle::handle_classified(const obs::TraceRecord& r, FlowState& fs) {
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

void ReferenceOracle::handle_function(const obs::TraceRecord& r, PacketState& ps) {
  const policy::FunctionId fn{static_cast<std::uint8_t>(r.detail)};
  if (ps.boxes.empty() || ps.boxes.back() != r.node) ps.boxes.push_back(r.node);
  ps.applied.push_back(fn);

  // Invariant 1a: functions are applied by deployed implementers only.
  const policy::FunctionSet* fns = box_functions(r.node);
  if (fns == nullptr || !fns->contains(fn)) {
    if (!ps.violated) {
      violation(verify::ViolationKind::kUnexpectedFunction, ps, r.at,
                "function " + function_name(fn) + " applied at " + node_name(r.node) +
                    ", which does not implement it");
      ps.violated = true;
      ++report_.packets_violating;
    }
    return;
  }

  // Invariant 1b: policy order. Checked against the datapath's committed
  // policy; the ground-truth cross-check happens at delivery.
  FlowState& fs = flow_state(ps.key.flow);
  const policy::Policy* pol = committed_policy(fs);
  if (pol == nullptr || ps.violated) return;
  if (ps.visited < pol->actions.size() && pol->actions[ps.visited] == fn) {
    ++ps.visited;
    return;
  }
  const bool in_chain =
      std::find(pol->actions.begin(), pol->actions.end(), fn) != pol->actions.end();
  const char* what = in_chain ? "out of policy order" : "not in the policy chain";
  violation(in_chain ? verify::ViolationKind::kReorderedChain
                     : verify::ViolationKind::kUnexpectedFunction,
            ps,
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

void ReferenceOracle::handle_chain_tail(PacketState& ps) {
  ps.chain_tail = true;
  if (ps.mode != Mode::kTunneled || ps.violated || ps.unverified) return;
  FlowState& fs = flow_state(ps.key.flow);
  const policy::Policy* pol = committed_policy(fs);
  if (pol == nullptr || ps.applied.size() != pol->actions.size() ||
      ps.visited != pol->actions.size()) {
    return;
  }
  // A complete, in-order tunneled traversal: this box sequence is what the
  // flow's label path must reproduce (invariant 3). Several sequences per
  // epoch are legal — failover mid-establishment installs more than one.
  if (fs.established.size() <= fs.epoch) fs.established.resize(fs.epoch + 1);
  auto& paths = fs.established[fs.epoch];
  if (std::find(paths.begin(), paths.end(), ps.boxes) == paths.end()) {
    paths.push_back(ps.boxes);
  }
}

void ReferenceOracle::note_delivered_ok() {
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

void ReferenceOracle::handle_delivered(const obs::TraceRecord& r, PacketState& ps) {
  FlowState& fs = flow_state(ps.key.flow);
  if (!fs.touched_proxy) {
    // Control/cross traffic that never crossed a policy proxy (controller
    // pushes, heartbeats, management flows): out of the oracle's scope.
    ++report_.packets_delivered_ok;
    return;
  }
  // Policy traffic consumed somewhere other than its destination is an
  // anomaly sink (misdirected packets are swallowed, not forwarded):
  // accounted, and never a completed delivery.
  if (!at_destination(r.node, ps.key.flow)) {
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
  const policy::Policy* gt = policies_->first_match(ps.key.flow);
  const policy::Policy* pol = committed_policy(fs);
  if (pol != nullptr && gt != nullptr && pol->id != gt->id) ++report_.policy_conflicts;

  if (gt != nullptr && gt->deny) {
    if (!ps.violated) {
      violation(verify::ViolationKind::kDeliveredWithoutChain, ps, r.at,
                "policy " + std::to_string(gt->id.v) +
                    " denies this flow, yet the packet was delivered at " + node_name(r.node));
      ps.violated = true;
      ++report_.packets_violating;
    }
    return;
  }
  const policy::ActionList& required = gt != nullptr ? gt->actions : policy::ActionList{};
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
      violation(verify::ViolationKind::kDeliveredWithoutChain, ps, r.at,
                "policy " + std::to_string(gt->id.v) + " requires chain " + chain +
                    ", but the packet reached " + node_name(r.node) +
                    " with no enforcement at all");
      ps.violated = true;
      ++report_.packets_violating;
      return;
    }
    case Mode::kTunneled: {
      if (ps.applied == required) {
        note_delivered_ok();
        return;
      }
      if (ps.applied.empty()) {
        violation(verify::ViolationKind::kDeliveredWithoutChain, ps, r.at,
                  "policy " + std::to_string(gt->id.v) + " requires chain " + chain +
                      ", but the tunneled packet reached " + node_name(r.node) +
                      " with no function applied");
      } else {
        std::string missing;
        for (std::size_t i = ps.visited; i < required.size(); ++i) {
          if (!missing.empty()) missing += ", ";
          missing += function_name(required[i]);
        }
        violation(verify::ViolationKind::kSkippedFunction, ps, r.at,
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
        violation(verify::ViolationKind::kDeliveredWithoutChain, ps, r.at,
                  "policy " + std::to_string(gt->id.v) + " requires chain " + chain +
                      ", but the switched packet reached " + node_name(r.node) +
                      " without traversing a chain tail");
        ps.violated = true;
        ++report_.packets_violating;
        return;
      }
      const auto* paths = ps.path_epoch < fs.established.size()
                              ? &fs.established[ps.path_epoch]
                              : nullptr;
      if (paths == nullptr || paths->empty()) {
        const bool after_teardown = ps.path_epoch > 0 && fs.torn_at >= 0;
        violation(after_teardown ? verify::ViolationKind::kPostTeardownLabelUse
                                 : verify::ViolationKind::kLabelPathDivergence,
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
      const bool matched =
          complete_stream_
              ? std::find(paths->begin(), paths->end(), ps.boxes) != paths->end()
              : std::any_of(paths->begin(), paths->end(),
                            [&](const std::vector<net::NodeId>& p) {
                              return !p.empty() && !ps.boxes.empty() &&
                                     p.back() == ps.boxes.back() &&
                                     subsequence_of(ps.boxes, p);
                            });
      if (!matched) {
        std::string observed;
        for (std::size_t i = 0; i < ps.boxes.size(); ++i) {
          if (i) observed += "->";
          observed += node_name(ps.boxes[i]);
        }
        std::string expect;
        for (std::size_t i = 0; i < paths->size(); ++i) {
          if (i) expect += " | ";
          for (std::size_t j = 0; j < (*paths)[i].size(); ++j) {
            if (j) expect += "->";
            expect += node_name((*paths)[i][j]);
          }
        }
        violation(verify::ViolationKind::kLabelPathDivergence, ps, r.at,
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

void ReferenceOracle::finalize(PacketState& ps) {
  if (ps.has_alias) {
    PacketKey alias = ps.key;
    alias.flow.dst = net::IpAddress{};
    aliases_.erase(alias);
  }
  packets_.erase(ps.key);  // ps dangles after this line
}

void ReferenceOracle::on_record(const obs::TraceRecord& r) {
  if (finished_) return;
  ++report_.records_seen;
  using obs::Hop;

  if (r.hop == Hop::kLabelTeardown) {
    handle_teardown(r);
    return;
  }
  if (r.hop == Hop::kInjected) {
    const PacketKey key{r.flow, r.seq};
    auto [it, inserted] = packets_.try_emplace(key);
    if (!inserted) {
      // Same (flow, seq) injected twice: the old packet's fate is unknowable.
      ++report_.packets_in_flight;
      it->second = PacketState{};
    }
    ++report_.packets_tracked;
    PacketState& ps = it->second;
    ps.key = key;
    ps.history.push_back(r);
    return;
  }

  PacketState* psp = find_packet(r);
  if (psp == nullptr) {
    ++report_.untracked_records;
    return;
  }
  PacketState& ps = *psp;
  if (ps.history.size() < kHistoryCap) ps.history.push_back(r);

  bool terminal = false;
  switch (r.hop) {
    case Hop::kClassified:
      handle_classified(r, flow_state(ps.key.flow));
      break;
    case Hop::kCacheHit:
    case Hop::kCacheMiss:
      if (is_proxy(r.node)) flow_state(ps.key.flow).touched_proxy = true;
      break;
    case Hop::kDenied: {
      FlowState& fs = flow_state(ps.key.flow);
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
      flow_state(ps.key.flow).touched_proxy = true;
      if (ps.mode == Mode::kOpen) ps.mode = Mode::kPlain;
      break;
    case Hop::kTunnelEncap:
      if (is_proxy(r.node) && ps.mode == Mode::kOpen) {
        FlowState& fs = flow_state(ps.key.flow);
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
        FlowState& fs = flow_state(ps.key.flow);
        fs.touched_proxy = true;
        if (!fs.policy_known && fs.has_candidate) {
          fs.policy = policy::PolicyId{static_cast<std::uint32_t>(fs.candidate)};
          fs.policy_known = true;
        }
        ps.mode = Mode::kSwitched;
        ps.label = static_cast<std::uint16_t>(r.detail);
        ps.path_epoch = fs.epoch;
        // Register the destination-agnostic alias for mid-chain records.
        PacketKey alias = ps.key;
        alias.flow.dst = net::IpAddress{};
        const auto [it, inserted] = aliases_.try_emplace(alias, ps.key);
        if (!inserted && !(it->second == ps.key)) {
          // Two in-flight switched packets share everything but the
          // destination: neither can be attributed mid-chain. Flag both —
          // counted, never silently excused.
          if (const auto oit = packets_.find(it->second); oit != packets_.end()) {
            oit->second.unverified = true;
          }
          ps.unverified = true;
        } else {
          ps.has_alias = true;
        }
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
  if (terminal) finalize(ps);
}

void ReferenceOracle::replay(const obs::TraceSink& sink) {
  for (const obs::TraceRecord& r : sink.records()) on_record(r);
  if (sink.dropped() > 0) {
    report_.coverage_complete = false;
    report_.coverage_note = "trace ring shed " + std::to_string(sink.dropped()) +
                            " record(s); post-hoc verification cannot vouch for the missing "
                            "history (attach the oracle live, or grow the ring)";
  }
}

const verify::VerifyReport& ReferenceOracle::finish() {
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
  for (const auto& [key, ps] : packets_) {
    if (ps.anomaly) {
      ++report_.packets_dropped;
    } else {
      ++report_.packets_in_flight;
    }
  }
  return report_;
}

}  // namespace sdmbox::testing
