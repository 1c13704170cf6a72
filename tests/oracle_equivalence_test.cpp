// Differential test: verify::InvariantOracle (flat slab/index state, pooled
// history) against the map-based reference it replaced
// (tests/oracle_reference.hpp). Both consume identical record streams and
// must agree on every VerifyReport field and on every violation's kind,
// flow, seq, time and narrative, byte for byte.
//
// Streams: live runs (chaos Waxman-400 at small packet counts, generated
// fault schedules, a sampled trace), then seeded mutations of captured
// streams — dropped, duplicated and reordered records, duplicate (flow, seq)
// injections, alias collisions, label-teardown epochs, overlong histories —
// each also under set_complete_stream(false), and post-hoc replay() over a
// wrapped ring. The mutations exist to reach the paths a clean run never
// takes; each family is checked to reach the path it targets (violations,
// unverified packets, teardown epochs, capped narratives), so agreement
// there is not vacuous.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exp/spec.hpp"
#include "exp/world.hpp"
#include "obs/trace.hpp"
#include "oracle_reference.hpp"
#include "util/rng.hpp"
#include "verify/oracle.hpp"

namespace sdmbox {
namespace {

using obs::Hop;
using Records = std::vector<obs::TraceRecord>;

struct OraclePair {
  std::unique_ptr<verify::InvariantOracle> flat;
  std::unique_ptr<testing::ReferenceOracle> ref;

  explicit OraclePair(const exp::World& w, bool complete_stream = true)
      : flat(std::make_unique<verify::InvariantOracle>(w.network, w.deployment, w.gen.policies,
                                                       w.plan, &w.catalog)),
        ref(std::make_unique<testing::ReferenceOracle>(w.network, w.deployment, w.gen.policies,
                                                       w.plan, &w.catalog)) {
    flat->set_complete_stream(complete_stream);
    ref->set_complete_stream(complete_stream);
  }

  void feed(const obs::TraceRecord& r) {
    flat->on_record(r);
    ref->on_record(r);
  }
};

/// Finish both oracles and require identical reports. Returns the flat
/// oracle's report, so callers can insist a stream exercised a path.
verify::VerifyReport expect_same(OraclePair& p, const std::string& what) {
  const verify::VerifyReport& a = p.flat->finish();
  const verify::VerifyReport& b = p.ref->finish();
  using R = verify::VerifyReport;
  const std::pair<const char*, std::uint64_t R::*> counts[] = {
      {"records_seen", &R::records_seen},
      {"packets_tracked", &R::packets_tracked},
      {"packets_delivered_ok", &R::packets_delivered_ok},
      {"packets_denied", &R::packets_denied},
      {"packets_dropped", &R::packets_dropped},
      {"packets_wp_served", &R::packets_wp_served},
      {"packets_anomaly_sunk", &R::packets_anomaly_sunk},
      {"packets_in_flight", &R::packets_in_flight},
      {"packets_violating", &R::packets_violating},
      {"packets_unverified", &R::packets_unverified},
      {"untracked_records", &R::untracked_records},
      {"teardown_notices", &R::teardown_notices},
      {"policy_conflicts", &R::policy_conflicts},
      {"packets_in_unenforced_window", &R::packets_in_unenforced_window},
  };
  for (const auto& [name, field] : counts) {
    EXPECT_EQ(a.*field, b.*field) << what << ": " << name;
  }
  EXPECT_EQ(a.coverage_complete, b.coverage_complete) << what;
  EXPECT_EQ(a.coverage_note, b.coverage_note) << what;
  EXPECT_EQ(a.violations.size(), b.violations.size()) << what;
  const std::size_t n = std::min(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < n; ++i) {
    const verify::Violation& x = a.violations[i];
    const verify::Violation& y = b.violations[i];
    EXPECT_EQ(x.kind, y.kind) << what << ": violation " << i;
    EXPECT_EQ(x.flow, y.flow) << what << ": violation " << i;
    EXPECT_EQ(x.seq, y.seq) << what << ": violation " << i;
    EXPECT_EQ(x.at, y.at) << what << ": violation " << i;
    EXPECT_EQ(x.narrative, y.narrative) << what << ": violation " << i;
  }
  EXPECT_EQ(a.summary(), b.summary()) << what;
  return a;
}

/// Forwards each record to both oracles as the run makes it and keeps a
/// copy of the stream for offline mutation.
class Tee : public obs::TraceObserver {
public:
  explicit Tee(OraclePair& pair) : pair_(pair) {}
  void on_record(const obs::TraceRecord& r) override {
    pair_.feed(r);
    records.push_back(r);
  }
  Records records;

private:
  OraclePair& pair_;
};

struct CapturedRun {
  std::unique_ptr<exp::World> world;
  Records records;
};

/// Run `spec` with both oracles attached live (sharing the world's span
/// tracer, as the production wiring does) and compare their reports.
CapturedRun run_live(exp::ScenarioSpec spec, const std::string& what) {
  spec.verify = false;  // the world's own oracle would take the observer slot
  CapturedRun out;
  out.world = exp::build_world(spec);
  exp::World& w = *out.world;
  w.prepare_sim();
  OraclePair pair(w, spec.trace_sample >= 1.0);
  if (w.spans) {
    pair.flat->set_span_tracer(w.spans.get());
    pair.ref->set_span_tracer(w.spans.get());
  }
  Tee tee(pair);
  w.tracer->set_observer(&tee);
  w.run();
  w.tracer->set_observer(nullptr);
  EXPECT_GT(pair.flat->finish().packets_tracked, 0u) << what;
  expect_same(pair, what);
  out.records = std::move(tee.records);
  return out;
}

verify::VerifyReport replay_both(const exp::World& w, const Records& records,
                                 const std::string& what, bool complete_stream = true) {
  OraclePair pair(w, complete_stream);
  for (const obs::TraceRecord& r : records) pair.feed(r);
  return expect_same(pair, what);
}

exp::ScenarioSpec waxman_chaos_spec() {
  exp::ScenarioSpec spec;
  spec.topology = exp::TopologyKind::kWaxman;
  spec.waxman_edge_count = 400;
  spec.packets = 3000;
  spec.faults = exp::FaultScript::kChaos;
  spec.reopt.epoch_period = 0.5;
  return spec;
}

exp::ScenarioSpec generated_spec(std::uint64_t chaos_seed) {
  exp::ScenarioSpec spec;
  spec.packets = 2000;
  spec.faults = exp::FaultScript::kGenerated;
  spec.chaos_seed = chaos_seed;
  return spec;
}

// ---------------------------------------------------------------------------
// Seeded stream mutations.
// ---------------------------------------------------------------------------

Records drop_some(const Records& in, util::Rng& rng, double p) {
  Records out;
  for (const auto& r : in) {
    if (!rng.next_bool(p)) out.push_back(r);
  }
  return out;
}

Records duplicate_some(const Records& in, util::Rng& rng, double p) {
  Records out;
  for (const auto& r : in) {
    out.push_back(r);
    if (rng.next_bool(p)) out.push_back(r);
  }
  return out;
}

/// Move a share of records up to 8 places later in the stream.
Records reorder_some(const Records& in, util::Rng& rng, double p) {
  Records out = in;
  for (std::size_t i = 0; i + 1 < out.size(); ++i) {
    if (!rng.next_bool(p)) continue;
    const std::size_t j = std::min(out.size() - 1, i + 1 + rng.pick_index(8));
    std::swap(out[i], out[j]);
  }
  return out;
}

using PacketKey = std::pair<packet::FlowId, std::uint64_t>;

/// The key a record names with its destination blanked: the same for a
/// packet's exact records and its destination-rewritten mid-chain ones.
PacketKey alias_key(const obs::TraceRecord& r) {
  packet::FlowId f = r.flow;
  f.dst = net::IpAddress{};
  return {f, r.seq};
}

/// Re-inject packets mid-flight: after a share of a packet's records (exact
/// or mid-chain), its injection record comes again.
Records reinject_some(const Records& in, util::Rng& rng, double p) {
  std::map<PacketKey, obs::TraceRecord> injected;
  Records out;
  for (const auto& r : in) {
    out.push_back(r);
    if (r.hop == Hop::kInjected) {
      injected[alias_key(r)] = r;
    } else if (const auto it = injected.find(alias_key(r));
               it != injected.end() && rng.next_bool(p)) {
      out.push_back(it->second);
      out.back().at = r.at;
    }
  }
  return out;
}

/// Give a share of label-switched packets a second life: after the
/// packet's last record its key is injected again and its mid-chain
/// (destination-rewritten) records are repeated.
Records second_life(const Records& in, util::Rng& rng, double p) {
  struct Life {
    obs::TraceRecord injected;
    Records mid;
    std::size_t last = 0;  // index in `in` of the packet's last record
  };
  std::map<PacketKey, Life> chosen;
  for (const auto& r : in) {
    if (r.hop == Hop::kLabelSwitchTx && rng.next_bool(p)) chosen[alias_key(r)];
  }
  std::map<PacketKey, obs::TraceRecord> injected;
  std::map<std::size_t, const Life*> ends;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const auto& r = in[i];
    if (r.hop == Hop::kInjected) injected[alias_key(r)] = r;
    const auto it = chosen.find(alias_key(r));
    if (it == chosen.end()) continue;
    Life& life = it->second;
    if (r.hop == Hop::kInjected) life.injected = r;
    if (r.hop == Hop::kLabelSwitchRx || r.hop == Hop::kChainTail) life.mid.push_back(r);
    life.last = i;
  }
  for (const auto& [key, life] : chosen) ends[life.last] = &life;
  Records out;
  for (std::size_t i = 0; i < in.size(); ++i) {
    out.push_back(in[i]);
    const auto it = ends.find(i);
    if (it == ends.end()) continue;
    out.push_back(it->second->injected);
    out.back().at = in[i].at;
    out.insert(out.end(), it->second->mid.begin(), it->second->mid.end());
  }
  return out;
}

/// Twin a share of label-switched packets: every record that names the
/// packet's exact key is repeated with the destination bumped, so two open
/// packets share one destination-agnostic alias.
Records collide_aliases(const Records& in, util::Rng& rng, double p) {
  std::set<PacketKey> chosen;
  for (const auto& r : in) {
    if (r.hop == Hop::kLabelSwitchTx && rng.next_bool(p)) chosen.insert({r.flow, r.seq});
  }
  Records out;
  for (const auto& r : in) {
    out.push_back(r);
    if (chosen.count({r.flow, r.seq}) != 0) {
      obs::TraceRecord twin = r;
      twin.flow.dst = net::IpAddress(r.flow.dst.value() + 1);
      out.push_back(twin);
    }
  }
  return out;
}

/// Insert label teardowns for the flow of a share of proxy-side chain
/// starts: right after the start (so later packets of the flow ride a new
/// epoch) and, for a few, at a node that is not the proxy (ignored).
Records add_teardowns(const Records& in, util::Rng& rng, double p) {
  Records out;
  for (const auto& r : in) {
    out.push_back(r);
    if ((r.hop == Hop::kLabelSwitchTx || r.hop == Hop::kTunnelEncap) && rng.next_bool(p)) {
      obs::TraceRecord t{r.at, r.flow, r.node, Hop::kLabelTeardown, r.detail, 0};
      if (rng.next_bool(0.2)) t.node = net::NodeId{t.node.v + 1};
      out.push_back(t);
    }
  }
  return out;
}

/// Give a few delivered packets a history past the cap: repeat a benign
/// failover record 110 times before delivery, and drop the packet's
/// function records so the delivery is a violation whose narrative prints
/// the capped history.
Records overlong_histories(const Records& in, util::Rng& rng, double p) {
  std::set<PacketKey> chosen;
  for (const auto& r : in) {
    if (r.hop == Hop::kTunnelEncap && rng.next_bool(p)) chosen.insert({r.flow, r.seq});
  }
  Records out;
  for (const auto& r : in) {
    const bool mine = chosen.count({r.flow, r.seq}) != 0;
    if (mine && r.hop == Hop::kFunctionApplied) continue;
    if (mine && r.hop == Hop::kDelivered) {
      for (int i = 0; i < 110; ++i) {
        out.push_back(obs::TraceRecord{r.at, r.flow, r.node, Hop::kFailoverReroute,
                                       static_cast<std::uint64_t>(i), r.seq});
      }
    }
    out.push_back(r);
  }
  return out;
}

Records every_mutation(const Records& in, util::Rng& rng) {
  Records s = overlong_histories(in, rng, 0.01);
  s = add_teardowns(s, rng, 0.02);
  s = collide_aliases(s, rng, 0.02);
  s = reinject_some(s, rng, 0.005);
  s = second_life(s, rng, 0.02);
  s = duplicate_some(s, rng, 0.01);
  s = reorder_some(s, rng, 0.01);
  return drop_some(s, rng, 0.01);
}

bool any_narrative_has(const verify::VerifyReport& r, const std::string& needle) {
  return std::any_of(r.violations.begin(), r.violations.end(), [&](const verify::Violation& v) {
    return v.narrative.find(needle) != std::string::npos;
  });
}

/// Every mutation family over `base`, two seeds each, strict and relaxed
/// stream modes, plus all families at once. Each family must reach the
/// path it was written for (checked on the flat oracle's strict report,
/// summed over seeds), or the comparison would prove nothing about it.
void mutate_and_compare(const exp::World& w, const Records& base, const std::string& name) {
  using Mutation = Records (*)(const Records&, util::Rng&, double);
  using Reached = bool (*)(const verify::VerifyReport&);
  struct Family {
    const char* name;
    Mutation mutate;
    double p;
    Reached reached;
  };
  const Family families[] = {
      {"drop", drop_some, 0.03,
       [](const verify::VerifyReport& r) { return !r.violations.empty(); }},
      {"duplicate", duplicate_some, 0.03,
       [](const verify::VerifyReport& r) { return r.untracked_records > 0; }},
      {"reorder", reorder_some, 0.03,
       [](const verify::VerifyReport& r) { return !r.violations.empty(); }},
      {"reinject", reinject_some, 0.01,
       [](const verify::VerifyReport& r) { return r.packets_in_flight > 0; }},
      {"second_life", second_life, 0.05,
       [](const verify::VerifyReport& r) { return r.untracked_records > 0; }},
      {"alias_collision", collide_aliases, 0.05,
       [](const verify::VerifyReport& r) { return r.packets_unverified > 0; }},
      {"teardown", add_teardowns, 0.05,
       [](const verify::VerifyReport& r) {
         return r.teardown_notices > 0 && any_narrative_has(r, "after teardown");
       }},
      {"overlong_history", overlong_histories, 0.02,
       [](const verify::VerifyReport& r) { return any_narrative_has(r, "(history capped)"); }},
  };
  for (const Family& f : families) {
    bool reached = false;
    for (const std::uint64_t seed : {1ULL, 2ULL}) {
      util::Rng rng(seed);
      const Records stream = f.mutate(base, rng, f.p);
      const std::string what = name + "/" + f.name + "/seed " + std::to_string(seed);
      reached |= f.reached(replay_both(w, stream, what + "/strict", true));
      replay_both(w, stream, what + "/relaxed", false);
    }
    EXPECT_TRUE(reached) << name << ": mutation family " << f.name << " never reached its path";
  }
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    util::Rng rng(seed);
    replay_both(w, every_mutation(base, rng),
                name + "/every_mutation/seed " + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------------

TEST(OracleEquivalence, WaxmanChaosLiveAndMutated) {
  const CapturedRun run = run_live(waxman_chaos_spec(), "waxman400 chaos live");
  ASSERT_FALSE(run.records.empty());
  EXPECT_TRUE(replay_both(*run.world, run.records, "waxman400 chaos replayed").ok());
  replay_both(*run.world, run.records, "waxman400 chaos relaxed", /*complete_stream=*/false);
  mutate_and_compare(*run.world, run.records, "waxman400 chaos");
}

TEST(OracleEquivalence, GeneratedFaultSeeds) {
  for (const std::uint64_t seed : {3ULL, 7ULL}) {
    const std::string name = "generated seed " + std::to_string(seed);
    const CapturedRun run = run_live(generated_spec(seed), name);
    ASSERT_FALSE(run.records.empty());
    mutate_and_compare(*run.world, run.records, name);
  }
}

TEST(OracleEquivalence, SampledTraceRelaxedMode) {
  exp::ScenarioSpec spec = generated_spec(5);
  spec.trace_sample = 0.5;
  run_live(spec, "generated seed 5, trace rate 0.5");
}

TEST(OracleEquivalence, ReplayOverWrappedRing) {
  const CapturedRun run = run_live(generated_spec(3), "generated seed 3");
  for (const std::size_t capacity : {std::size_t{64}, run.records.size() / 3}) {
    obs::TraceSink sink(capacity);
    for (const auto& r : run.records) sink.record(r);
    ASSERT_GT(sink.dropped(), 0u);
    OraclePair pair(*run.world);
    pair.flat->replay(sink);
    pair.ref->replay(sink);
    expect_same(pair, "wrapped ring of " + std::to_string(capacity));
    EXPECT_FALSE(pair.flat->report().coverage_complete);
  }
}

}  // namespace
}  // namespace sdmbox
