// Test-only reference for the enforcement-invariant oracle: the
// straightforward map-based implementation that verify::InvariantOracle's
// flat state replaced.
//
// ReferenceOracle keeps every open packet, alias and flow in node-based
// std::unordered_maps and each packet's history as a vector of full
// TraceRecords. It is slow and allocation-heavy by design and exists only
// to pin the production oracle down: tests/oracle_equivalence_test.cpp
// feeds both the same record streams and requires identical reports,
// violation for violation and narrative byte for byte. The semantics
// (what is checked, what is accounted where) are documented on
// verify::InvariantOracle and in DESIGN.md §11.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/deployment.hpp"
#include "core/plan.hpp"
#include "net/routing.hpp"
#include "net/topologies.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "policy/function.hpp"
#include "policy/policy.hpp"
#include "verify/oracle.hpp"

namespace sdmbox::testing {

class ReferenceOracle : public obs::TraceObserver {
public:
  ReferenceOracle(const net::GeneratedNetwork& network, const core::Deployment& deployment,
                  const policy::PolicyList& policies, const core::EnforcementPlan& plan,
                  const policy::FunctionCatalog* catalog = nullptr);

  void set_complete_stream(bool complete) noexcept { complete_stream_ = complete; }
  void on_record(const obs::TraceRecord& r) override;
  void replay(const obs::TraceSink& sink);
  const verify::VerifyReport& finish();
  const verify::VerifyReport& report() const noexcept { return report_; }
  void set_span_tracer(obs::SpanTracer* spans) noexcept { spans_ = spans; }

private:
  struct PacketKey {
    packet::FlowId flow;
    std::uint64_t seq = 0;
    friend bool operator==(const PacketKey&, const PacketKey&) noexcept = default;
  };
  struct PacketKeyHash {
    std::size_t operator()(const PacketKey& k) const noexcept;
  };

  enum class Mode : std::uint8_t { kOpen, kPlain, kDenied, kTunneled, kSwitched };

  struct PacketState {
    PacketKey key;
    Mode mode = Mode::kOpen;
    bool chain_tail = false;
    bool violated = false;
    bool anomaly = false;
    bool unverified = false;
    std::uint32_t visited = 0;
    std::uint32_t path_epoch = 0;
    std::uint16_t label = 0;
    bool has_alias = false;
    std::vector<policy::FunctionId> applied;
    std::vector<net::NodeId> boxes;
    std::vector<obs::TraceRecord> history;
  };

  struct FlowState {
    policy::PolicyId policy;
    bool policy_known = false;
    bool touched_proxy = false;
    std::uint64_t candidate = 0;
    bool has_candidate = false;
    std::uint32_t epoch = 0;
    double torn_at = -1;
    std::vector<std::vector<std::vector<net::NodeId>>> established;
  };
  struct FlowHash {
    std::size_t operator()(const packet::FlowId& f) const noexcept { return f.hash(0x5eedULL); }
  };

  PacketState* find_packet(const obs::TraceRecord& r);
  FlowState& flow_state(const packet::FlowId& flow) { return flows_[flow]; }
  void note_delivered_ok();
  const policy::Policy* committed_policy(const FlowState& fs) const;

  void handle_classified(const obs::TraceRecord& r, FlowState& fs);
  void handle_teardown(const obs::TraceRecord& r);
  void handle_function(const obs::TraceRecord& r, PacketState& ps);
  void handle_chain_tail(PacketState& ps);
  void handle_delivered(const obs::TraceRecord& r, PacketState& ps);
  void finalize(PacketState& ps);

  void violation(verify::ViolationKind kind, const PacketState& ps, double at,
                 const std::string& cause);
  std::string describe_chain(const policy::Policy& pol) const;
  std::string function_name(policy::FunctionId fn) const;
  std::string node_name(net::NodeId n) const;
  std::string hop_story(const PacketState& ps) const;

  bool is_proxy(net::NodeId n) const noexcept;
  bool at_destination(net::NodeId n, const packet::FlowId& flow) const;
  const policy::FunctionSet* box_functions(net::NodeId n) const;

  const net::Topology* topo_;
  const policy::PolicyList* policies_;
  const policy::FunctionCatalog* catalog_;
  net::AddressResolver resolver_;
  std::vector<bool> proxy_nodes_;
  std::unordered_map<std::uint32_t, policy::FunctionSet> box_functions_;

  bool complete_stream_ = true;
  bool finished_ = false;
  obs::SpanTracer* spans_ = nullptr;

  std::unordered_map<packet::FlowId, FlowState, FlowHash> flows_;
  std::unordered_map<PacketKey, PacketState, PacketKeyHash> packets_;
  std::unordered_map<PacketKey, PacketKey, PacketKeyHash> aliases_;

  verify::VerifyReport report_;
};

}  // namespace sdmbox::testing
