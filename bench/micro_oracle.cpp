// Perf-trajectory harness for the live enforcement-invariant oracle
// (BENCH_micro_oracle.json).
//
// Captures the trace-record stream of a Waxman-400 world under the chaos
// fault script with drift re-optimisation (the e2e waxman400_chaos spec at a
// smaller packet volume), then replays it into verify::InvariantOracle:
//
//  * cold — a fresh oracle per rep, the whole stream plus finish(): what a
//    verified run pays, slab and index growth included;
//  * steady — one oracle fed the stream once to warm its slabs, pools and
//    flow table, then fed it again per rep. Every packet of the stream is
//    re-opened (a duplicate injection resets an open one), so the state
//    cycles through the same high-water marks. Steady-state allocations
//    per record must be zero; the bench fails if they are not.
//
// ns/record is best-of-reps; allocation counts come from the last rep.
#include "alloc_count.hpp"
#include "common.hpp"

#include "exp/world.hpp"
#include "obs/trace.hpp"
#include "verify/oracle.hpp"

namespace {

using namespace sdmbox;

constexpr int kReps = 5;

class Capture : public obs::TraceObserver {
public:
  void on_record(const obs::TraceRecord& r) override { records.push_back(r); }
  std::vector<obs::TraceRecord> records;
};

struct ReplayResult {
  double ns_per_record = 1e100;
  double allocs_per_record = 0;
};

}  // namespace

int main() {
  exp::ScenarioSpec spec;
  spec.topology = exp::TopologyKind::kWaxman;
  spec.waxman_edge_count = 400;
  spec.packets = 100'000;
  spec.faults = exp::FaultScript::kChaos;
  spec.reopt.epoch_period = 0.5;
  spec.verify = false;  // the bench attaches its own observer
  const std::unique_ptr<exp::World> world = exp::build_world(spec);
  world->prepare_sim();
  Capture capture;
  world->tracer->set_observer(&capture);
  world->run();
  world->tracer->set_observer(nullptr);
  const std::vector<obs::TraceRecord>& stream = capture.records;
  const double records = static_cast<double>(stream.size());

  const auto make_oracle = [&] {
    return std::make_unique<verify::InvariantOracle>(world->network, world->deployment,
                                                     world->gen.policies, world->plan,
                                                     &world->catalog);
  };

  ReplayResult cold;
  verify::VerifyReport report;
  for (int rep = 0; rep < kReps; ++rep) {
    const bench::AllocScope allocs;
    const auto start = std::chrono::steady_clock::now();
    const auto oracle = make_oracle();
    for (const obs::TraceRecord& r : stream) oracle->on_record(r);
    report = oracle->finish();
    cold.ns_per_record = std::min(cold.ns_per_record, bench::seconds_since(start) * 1e9 / records);
    cold.allocs_per_record = static_cast<double>(allocs.so_far()) / records;
  }

  ReplayResult steady;
  const auto oracle = make_oracle();
  for (const obs::TraceRecord& r : stream) oracle->on_record(r);
  for (int rep = 0; rep < kReps; ++rep) {
    const bench::AllocScope allocs;
    const auto start = std::chrono::steady_clock::now();
    for (const obs::TraceRecord& r : stream) oracle->on_record(r);
    steady.ns_per_record =
        std::min(steady.ns_per_record, bench::seconds_since(start) * 1e9 / records);
    steady.allocs_per_record = static_cast<double>(allocs.so_far()) / records;
  }

  std::printf("stream              : %.0f records, %llu packets, %zu violation(s)\n", records,
              static_cast<unsigned long long>(report.packets_tracked), report.violations.size());
  std::printf("cold replay         : %8.1f ns/record, %.4f allocs/record\n", cold.ns_per_record,
              cold.allocs_per_record);
  std::printf("steady replay       : %8.1f ns/record, %.4f allocs/record\n",
              steady.ns_per_record, steady.allocs_per_record);

  bench::emit_bench_json("micro_oracle",
                         {{"stream_records", records},
                          {"cold_ns_per_record", cold.ns_per_record},
                          {"cold_allocs_per_record", cold.allocs_per_record},
                          {"steady_ns_per_record", steady.ns_per_record},
                          {"steady_allocs_per_record", steady.allocs_per_record}});
  if (steady.allocs_per_record != 0) {
    std::fprintf(stderr, "micro_oracle: steady-state replay allocated (%.6f allocs/record)\n",
                 steady.allocs_per_record);
    return 1;
  }
  return 0;
}
