// Online enforcement-invariant oracle — the "dependable" in dependable
// policy enforcement, checked instead of assumed.
//
// The oracle is a live obs::TraceObserver: attached to the PathTracer it
// sees every sampled record the instant an agent emits it, independent of
// the bounded ring (which may wrap on long runs). From the record stream
// plus the controller's compiled state it asserts, per traced packet:
//
//  1. Chain completeness & order — every packet of a flow matched to a
//     chained policy visits every required function, in policy order,
//     before delivery. Failover and replans may change WHICH middlebox
//     serves a function, never skip or reorder one.
//  2. Isolation — no such packet reaches its destination without a complete
//     chain, including across label teardown/reuse and mid-replan windows.
//     Legitimate in-flight losses (crashed node, dark link, expired label
//     state) are accounted as drops, never silently excused as "enforced".
//  3. Label-path / IP-path equivalence — a label-switched packet's
//     middlebox hop sequence must equal a sequence its flow actually
//     established with tunneled (IP-over-IP) packets in the current label
//     epoch (epochs advance on teardown; §III.E soft state).
//
// Legal non-delivery outcomes the oracle accounts for instead of flagging:
// inline deny (kDenied), WP cache response truncating the chain (§III.F),
// every drop class, anomaly-sunk packets consumed away from the true
// destination, and packets still in flight at end of run.
//
// Two deliberate relaxations, both documented in DESIGN.md §11: a flow may
// establish SEVERAL box paths per epoch (failover during establishment), so
// a switched sequence passes if it matches ANY of them; and below trace
// rate 1.0 mid-chain switched records (whose on-wire 5-tuple is rewritten)
// may be unsampled, so strict label-path comparison only runs when the
// caller promises a complete stream (set_complete_stream).
//
// Determinism: the oracle is a pure function of the record stream, so
// same-seed runs produce identical reports, and attaching it never perturbs
// the run (observers cannot mutate the tracer; metrics are registered only
// in verify mode).
//
// Cost: a traced run opens every injected packet at once (all waves are
// injected before the calendar runs), so state is flat and recycled. Open
// packets, aliases, flows and established paths sit in slab slots found
// through FlatIndex hashes; a packet not yet seen past its injection keeps
// only its key and first entry; history lives in pooled chunks; a
// finalized packet's slots go back to free lists. At steady state a record
// costs one key hash and no heap operation (DESIGN.md §11, "Cost").
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "core/plan.hpp"
#include "net/routing.hpp"
#include "net/topologies.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "policy/function.hpp"
#include "policy/policy.hpp"
#include "tables/flat_index.hpp"
#include "tables/slab.hpp"

namespace sdmbox::verify {

/// Invariant-violation classes the oracle distinguishes (one counter each).
enum class ViolationKind : std::uint8_t {
  kSkippedFunction,        // delivered with required chain functions unvisited
  kReorderedChain,         // functions applied out of policy order
  kUnexpectedFunction,     // function applied off-policy or by a non-implementer
  kDeliveredWithoutChain,  // chained-policy packet delivered with no chain evidence
  kLabelPathDivergence,    // switched hop sequence matches no established path
  kPostTeardownLabelUse,   // label path used after teardown without re-establishment
};
inline constexpr std::size_t kViolationKindCount = 6;

const char* to_string(ViolationKind k) noexcept;

struct Violation {
  ViolationKind kind = ViolationKind::kSkippedFunction;
  packet::FlowId flow;   // original 5-tuple of the offending packet
  std::uint64_t seq = 0; // packet index within the flow
  double at = 0;         // simulated time the violation became definite
  /// Human-readable account: what the policy required, what the packet did,
  /// hop by hop with times and device names.
  std::string narrative;
};

/// Everything the oracle concluded about one run.
struct VerifyReport {
  std::vector<Violation> violations;  // record order — deterministic

  // Packet accounting (every tracked packet lands in exactly one bucket).
  std::uint64_t records_seen = 0;
  std::uint64_t packets_tracked = 0;
  std::uint64_t packets_delivered_ok = 0;
  std::uint64_t packets_denied = 0;
  std::uint64_t packets_dropped = 0;       // legitimate in-flight losses
  std::uint64_t packets_wp_served = 0;     // §III.F legal chain truncation
  std::uint64_t packets_anomaly_sunk = 0;  // consumed away from the destination
  std::uint64_t packets_in_flight = 0;     // still open at finish()
  std::uint64_t packets_violating = 0;     // packets with >= 1 violation
  std::uint64_t packets_unverified = 0;    // ambiguous identity (alias collision)
  std::uint64_t untracked_records = 0;     // records matching no tracked packet
  std::uint64_t teardown_notices = 0;      // label-teardown records consumed
  std::uint64_t policy_conflicts = 0;      // re-classification disagreed with first
  /// Deliveries that happened while a replan was still rolling out or an
  /// unenforced fault episode was open (span tracer attached only): the
  /// paper's transient windows, tolerated but never uncounted.
  std::uint64_t packets_in_unenforced_window = 0;

  /// False when the oracle may have missed records (post-hoc replay over a
  /// wrapped ring). A live-attached oracle always has complete coverage.
  bool coverage_complete = true;
  std::string coverage_note;

  bool ok() const noexcept { return violations.empty() && coverage_complete; }
  /// One-paragraph human summary (counts + first violations).
  std::string summary() const;
};

/// Live enforcement-invariant checker. Construct over the run's compiled
/// state, attach to the tracer (tracer.set_observer(&oracle)) or replay a
/// sink post-hoc, then finish() to close accounting and read the report.
class InvariantOracle : public obs::TraceObserver {
public:
  InvariantOracle(const net::GeneratedNetwork& network, const core::Deployment& deployment,
                  const policy::PolicyList& policies, const core::EnforcementPlan& plan,
                  const policy::FunctionCatalog* catalog = nullptr);

  /// Promise that every record of every traced flow reaches the oracle
  /// (trace rate 1.0, live attachment). Enables the strict label-path
  /// equivalence check; below rate 1.0 mid-chain switched records carry a
  /// rewritten 5-tuple the sampler may reject, so only the weaker
  /// subsequence check is sound. Default: strict.
  void set_complete_stream(bool complete) noexcept { complete_stream_ = complete; }

  /// Live entry point (TraceObserver).
  void on_record(const obs::TraceRecord& r) override;

  /// Post-hoc mode: feed a ring's surviving records. Sets coverage-incomplete
  /// when the ring wrapped (records were shed), instead of false-passing.
  void replay(const obs::TraceSink& sink);

  /// Close accounting (open packets become in-flight counts; no violations
  /// are emitted for them — their fate is unknown, not wrong). Idempotent.
  const VerifyReport& finish();

  const VerifyReport& report() const noexcept { return report_; }

  /// Expose verify_* series. Register only in verify mode so non-verify
  /// exports stay byte-identical. With a span tracer attached (before this
  /// call) also exposes conv_unenforced_window_packets.
  void register_metrics(obs::MetricsRegistry& registry) const;

  /// Cross-link the control-plane span tracer: each delivered-ok packet
  /// that lands while a replan span (or unenforced fault episode) is open
  /// is counted into packets_in_unenforced_window and attributed onto that
  /// span's `packets_in_window` attribute — "packets forwarded inside
  /// unenforced windows", per episode. Observation only.
  void set_span_tracer(obs::SpanTracer* spans) noexcept { spans_ = spans; }

private:
  static constexpr std::uint32_t kNil = tables::FlatIndex::kNil;

  enum class Mode : std::uint8_t {
    kOpen,      // injected, not yet classified into a path
    kPlain,     // permitted: plain routing, no chain required
    kDenied,    // inline deny at the proxy (terminal)
    kTunneled,  // IP-over-IP chain traversal
    kSwitched,  // label-switched chain traversal
  };

  /// Up to N elements inline; a longer sequence (only pathological streams
  /// produce one: chains are at most a few functions long) moves to the heap.
  template <typename T, std::size_t N>
  class SmallSeq {
  public:
    std::span<const T> view() const noexcept {
      return heap_ ? std::span<const T>(*heap_) : std::span<const T>(inline_.data(), size_);
    }
    std::size_t size() const noexcept { return heap_ ? heap_->size() : size_; }
    bool empty() const noexcept { return size() == 0; }
    T back() const noexcept { return view().back(); }
    void assign(std::span<const T> from) {
      clear();
      for (const T& v : from) push_back(v);
    }
    void clear() noexcept {
      size_ = 0;
      heap_.reset();
    }
    void push_back(T v) {
      if (!heap_ && size_ < N) {
        inline_[size_++] = v;
        return;
      }
      if (!heap_) {
        heap_ = std::make_unique<std::vector<T>>(inline_.begin(), inline_.begin() + size_);
      }
      heap_->push_back(v);
    }

  private:
    std::array<T, N> inline_{};
    std::uint8_t size_ = 0;
    std::unique_ptr<std::vector<T>> heap_;
  };

  /// The parts of a TraceRecord a narrative prints.
  struct HistoryEntry {
    double at = 0;
    std::uint64_t detail = 0;
    net::NodeId node;
    obs::Hop hop = obs::Hop::kInjected;
  };
  /// History beyond a packet's first entry lives in pooled fixed-size
  /// chunks, linked per packet and recycled through a free list.
  static constexpr std::uint32_t kHistoryChunk = 8;
  struct HistoryChunk {
    std::array<HistoryEntry, kHistoryChunk> entries;
    std::uint32_t next = kNil;  // next chunk of the same packet, or free-list link
  };

  // ---- per-packet state: one slab slot per open (flow, seq) ----
  /// A packet injected but not yet seen at any hop: its key and injection
  /// entry only. Every wave is injected before the calendar runs, so most
  /// open packets wait here, small; a packet's first later record moves it
  /// into a PacketState.
  struct WaitingPacket {
    packet::FlowId flow;
    std::uint64_t seq = 0;
    HistoryEntry injected;
    std::uint32_t next_free = kNil;  // free-list link while the slot is dead
    bool live = false;
  };

  /// A packet that has taken at least one hop.
  struct PacketState {
    packet::FlowId flow;
    std::uint64_t seq = 0;
    std::uint64_t hash = 0;          // key hash under which packet_index_ holds it
    std::uint32_t flow_slot = kNil;  // FlowState slot, resolved on first use
    std::uint32_t next_free = kNil;  // free-list link while the slot is dead
    std::uint32_t visited = 0;       // chain functions confirmed in order
    std::uint32_t path_epoch = 0;    // flow's teardown epoch at switch time
    std::uint32_t history_head = kNil;  // chunks holding history entries 1..
    std::uint32_t history_tail = kNil;
    std::uint16_t label = 0;
    std::uint8_t history_len = 0;    // capped at kHistoryCap
    Mode mode = Mode::kOpen;
    bool live = false;
    bool chain_tail = false;
    bool violated = false;
    bool anomaly = false;
    bool unverified = false;  // alias collision: identity ambiguous
    bool has_alias = false;
    bool holds_epoch = false;  // counted in its flow's switched_open
    HistoryEntry first;                         // history entry 0 (the injection)
    SmallSeq<policy::FunctionId, 7> applied;    // functions applied, in order
    SmallSeq<net::NodeId, 4> boxes;             // distinct consecutive middlebox visits
  };

  // ---- per-flow state: slots are never freed ----
  struct FlowState {
    packet::FlowId flow;
    policy::PolicyId policy;      // committed matched policy
    bool policy_known = false;
    bool touched_proxy = false;   // flow crossed a policy proxy (in scope)
    bool has_candidate = false;
    bool truth_known = false;
    std::uint64_t candidate = 0;  // last proxy kClassified detail, pre-commit
    std::uint32_t epoch = 0;      // bumped on label teardown
    double torn_at = -1;          // last teardown time; < 0 = never
    const policy::Policy* truth = nullptr;  // first_match over the full list, cached
    /// Box sequences completed by tunneled packets (EstablishedPath list,
    /// epochs ascending). Several per epoch are legal: failover during
    /// establishment can install more than one.
    std::uint32_t paths_head = kNil;
    std::uint32_t paths_tail = kNil;
    /// Open label-switched packets, each pinned to the epoch it switched
    /// in. While none is open, paths of epochs before `epoch` are
    /// unreachable and are recycled.
    std::uint32_t switched_open = 0;
  };

  struct EstablishedPath {
    std::uint32_t epoch = 0;
    std::uint32_t next = kNil;  // next path of the same flow, or free-list link
    SmallSeq<net::NodeId, 4> boxes;
  };

  /// Mid-chain switched records carry a rewritten destination; an alias —
  /// keyed on everything BUT the destination, plus seq — maps them back to
  /// the packet key it was registered for.
  struct Alias {
    packet::FlowId target;          // the registering packet's flow (dst included)
    std::uint64_t seq = 0;
    std::uint64_t target_hash = 0;  // the registering packet's key hash
    std::uint32_t next_free = kNil;
  };

  /// A record's alias hash (destination excluded) and full key hash, derived
  /// from it — one hash computation per record serves both lookups.
  struct KeyHash {
    std::uint64_t alias;
    std::uint64_t exact;
  };
  static KeyHash key_hash(const packet::FlowId& flow, std::uint64_t seq) noexcept;

  /// packet_index_ entry for the key: a PacketState slot, or a
  /// WaitingPacket slot tagged with kWaiting; kNil when no packet is open.
  static constexpr std::uint32_t kWaiting = 0x80000000u;
  std::uint32_t lookup(const packet::FlowId& flow, std::uint64_t seq,
                       std::uint64_t hash) const noexcept;
  std::uint32_t alias_slot(const packet::FlowId& flow, std::uint64_t seq,
                           std::uint64_t alias_hash) const noexcept;
  /// PacketState slot of the open packet with this key (`hash` its key
  /// hash), moving a waiting packet into one; kNil when none is open.
  std::uint32_t resolve(const packet::FlowId& flow, std::uint64_t seq, std::uint64_t hash);
  std::uint32_t find_packet(const obs::TraceRecord& r, const KeyHash& kh);
  void open_packet(const obs::TraceRecord& r, const KeyHash& kh);
  void retire(std::uint32_t slot);  // free a PacketState slot and everything it holds
  void register_alias(PacketState& ps, std::uint64_t alias_hash);
  FlowState& flow_state(PacketState& ps);
  const policy::Policy* ground_truth(FlowState& fs);
  void append_history(PacketState& ps, const obs::TraceRecord& r);
  void release_history(PacketState& ps) noexcept;
  /// Drop ps's pin on its flow's switch epoch (finalize / re-injection).
  void release_epoch(PacketState& ps) noexcept;
  void prune_paths(FlowState& fs) noexcept;
  /// Count a clean delivery, attributing it to any open replan/unenforced
  /// episode span.
  void note_delivered_ok();
  const policy::Policy* committed_policy(const FlowState& fs) const;

  void handle_classified(const obs::TraceRecord& r, FlowState& fs);
  void handle_teardown(const obs::TraceRecord& r);
  void handle_function(const obs::TraceRecord& r, PacketState& ps);
  void handle_chain_tail(PacketState& ps);
  void handle_delivered(const obs::TraceRecord& r, PacketState& ps);
  void finalize(std::uint32_t slot);  // release the packet after its terminal hop

  void violation(ViolationKind kind, const PacketState& ps, double at,
                 const std::string& cause);
  std::string describe_chain(const policy::Policy& pol) const;
  std::string function_name(policy::FunctionId fn) const;
  std::string node_name(net::NodeId n) const;
  std::string hop_story(const PacketState& ps) const;

  bool is_proxy(net::NodeId n) const noexcept;
  bool at_destination(net::NodeId n, const packet::FlowId& flow) const;
  policy::FunctionSet box_functions(net::NodeId n) const noexcept;

  const net::Topology* topo_;
  const core::Deployment* deployment_;
  const policy::PolicyList* policies_;
  const core::EnforcementPlan* plan_;
  const policy::FunctionCatalog* catalog_;
  /// Same resolution the network delivers by: exact device address first,
  /// then longest-prefix stub subnet → terminal. Generated flows use host
  /// addresses without device nodes, so their delivery point is the
  /// destination subnet's terminal, not a node owning the exact address.
  net::AddressResolver resolver_;
  std::vector<bool> proxy_nodes_;                  // indexed by NodeId.v
  std::vector<policy::FunctionSet> box_functions_; // indexed by NodeId.v; empty = no box

  bool complete_stream_ = true;
  bool finished_ = false;
  obs::SpanTracer* spans_ = nullptr;

  tables::StableSlab<WaitingPacket> waiting_;
  std::uint32_t waiting_free_ = kNil;
  tables::StableSlab<PacketState> packets_;
  std::uint32_t packet_free_ = kNil;
  tables::FlatIndex packet_index_;  // both tiers: one probe decides "is it open"
  tables::StableSlab<HistoryChunk> history_;
  std::uint32_t history_free_ = kNil;
  tables::StableSlab<FlowState> flows_;
  tables::FlatIndex flow_index_;
  tables::StableSlab<EstablishedPath> paths_;
  std::uint32_t path_free_ = kNil;
  /// Registered at kLabelSwitchTx, dropped at finalize. A colliding alias
  /// marks both packets unverified (counted, never silently excused).
  tables::StableSlab<Alias> aliases_;
  tables::FlatIndex alias_index_;
  std::uint32_t alias_free_ = kNil;

  VerifyReport report_;
  std::array<std::uint64_t, kViolationKindCount> violation_counts_{};
};

}  // namespace sdmbox::verify
