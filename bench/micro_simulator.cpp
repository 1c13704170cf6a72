// Perf-trajectory harness for the event calendar and the per-hop packet path
// (BENCH_micro_simulator.json).
//
// Two parts:
//  * calendar churn: a standing population of self-rescheduling callback
//    events on a bare Simulator — pure schedule/pop cost at a realistic heap
//    depth, repeated over several reps with reset() (and a clean-clock
//    assertion) between them;
//  * packet hops: host-to-host packets through campus-topology pure
//    forwarding (no agents) — the transmit/arrive scheduling path the
//    enforcement plane rides on, with steady-state allocations per event
//    recorded through the counting operator-new hook. They must be zero;
//    the bench exits 1 if they are not.
//
// Throughputs are best-of-reps (the usual microbench convention: the fastest
// rep is the least-disturbed one); allocation counts come from the last rep.
#include "alloc_count.hpp"
#include "common.hpp"

#include <array>

#include "net/topologies.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace sdmbox;

constexpr int kReps = 5;

/// Assert the rep starts from a clean clock: reset() must restore the
/// simulator to its just-constructed state, or reps contaminate each other
/// (and the "cannot schedule in the past" check would reject rep 2's t=0).
void check_clean_clock(const sim::Simulator& s) {
  SDM_CHECK_MSG(s.now() == 0.0 && s.events_processed() == 0 && s.pending() == 0,
                "Simulator::reset() left a dirty clock between bench reps");
}

/// Calendar churn: `population` self-rescheduling events, run until
/// `total_events` fired. Returns events/sec (best of kReps).
double bench_calendar(std::size_t population, std::uint64_t total_events) {
  sim::Simulator s;
  double best = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    s.reset();
    check_clean_clock(s);
    std::uint64_t remaining = total_events;
    // Deterministic per-event delays; a small table avoids RNG cost in the
    // measured loop while keeping the heap from degenerating into FIFO order.
    std::array<double, 64> delays;
    util::Rng rng(7 + static_cast<std::uint64_t>(rep));
    for (double& d : delays) d = 1e-6 * (0.5 + rng.next_double());
    struct Churn {
      sim::Simulator* s;
      std::uint64_t* remaining;
      const std::array<double, 64>* delays;
      void operator()() const {
        if (*remaining == 0) return;
        --*remaining;
        s->schedule_in((*delays)[*remaining % 64], *this);
      }
    };
    const Churn churn{&s, &remaining, &delays};
    for (std::size_t i = 0; i < population; ++i) s.schedule_in(delays[i % 64], churn);
    const auto start = std::chrono::steady_clock::now();
    s.run();
    const double elapsed = bench::seconds_since(start);
    best = std::max(best, static_cast<double>(total_events) / elapsed);
  }
  return best;
}

struct HopResult {
  double events_per_sec = 0;
  double packets_per_sec = 0;
  double allocs_per_event = 0;
  double events = 0;
};

/// Packet hops through pure forwarding on the campus topology: every hop is
/// one calendar event scheduled by SimNetwork::transmit.
HopResult bench_packet_hops(std::uint64_t packets) {
  const net::GeneratedNetwork network = net::make_campus_topology();
  const net::RoutingTables routing = net::RoutingTables::compute(network.topo);
  const net::AddressResolver resolver = net::AddressResolver::build(network.topo);

  // Pre-build the injection list so packet construction is outside the
  // measured region.
  util::Rng rng(2019);
  const std::size_t n_subnets = network.hosts.size();
  std::vector<packet::Packet> plist;
  std::vector<net::NodeId> at;
  plist.reserve(packets);
  at.reserve(packets);
  for (std::uint64_t i = 0; i < packets; ++i) {
    const std::size_t src = rng.pick_index(n_subnets);
    std::size_t dst = rng.pick_index(n_subnets - 1);
    if (dst >= src) ++dst;
    packet::Packet p;
    p.inner.src = network.topo.node(network.hosts[src][0]).address;
    p.inner.dst = network.topo.node(network.hosts[dst][0]).address;
    p.src_port = static_cast<std::uint16_t>(49152 + (i & 0x3fff));
    p.dst_port = 80;
    p.payload_bytes = 512;
    plist.push_back(p);
    at.push_back(network.hosts[src][0]);
  }

  HopResult out;
  double best_elapsed = 1e100;
  for (int rep = 0; rep < kReps; ++rep) {
    sim::SimNetwork simnet(network.topo, routing, resolver);
    // Warm-up pass: an identically shaped run that grows the event pools,
    // calendar lanes, and per-link state to their high-water marks, so the
    // measured pass below sees the steady state rather than cold growth.
    // Stagger injections to hold a standing event population in the calendar.
    for (std::uint64_t i = 0; i < packets; ++i) {
      simnet.inject(at[i], plist[i], static_cast<double>(i) * 2e-7);
    }
    simnet.run();
    // Measured pass: same injection pattern rebased to the post-warm-up
    // clock (the simulator's clock never goes backwards).
    const double base = simnet.simulator().now();
    const std::uint64_t events_before = simnet.simulator().events_processed();
    const std::uint64_t delivered_before = simnet.counters().delivered;
    for (std::uint64_t i = 0; i < packets; ++i) {
      simnet.inject(at[i], plist[i], base + static_cast<double>(i) * 2e-7);
    }
    const bench::AllocScope allocs;
    const auto start = std::chrono::steady_clock::now();
    simnet.run();
    const double elapsed = bench::seconds_since(start);
    const double events =
        static_cast<double>(simnet.simulator().events_processed() - events_before);
    const double delivered =
        static_cast<double>(simnet.counters().delivered - delivered_before);
    if (elapsed < best_elapsed) {
      best_elapsed = elapsed;
      out.events_per_sec = events / elapsed;
      out.packets_per_sec = delivered / elapsed;
      out.events = events;
    }
    out.allocs_per_event = static_cast<double>(allocs.so_far()) / events;
  }
  return out;
}

}  // namespace

int main() {
  const double calendar = bench_calendar(/*population=*/1 << 12, /*total_events=*/2'000'000);
  const HopResult hops = bench_packet_hops(/*packets=*/150'000);

  std::printf("calendar churn      : %12.0f events/s (pop 4096)\n", calendar);
  std::printf("packet forwarding   : %12.0f events/s, %12.0f packets/s\n", hops.events_per_sec,
              hops.packets_per_sec);
  std::printf("steady-state allocs : %.4f per event\n", hops.allocs_per_event);

  bench::emit_bench_json("micro_simulator",
                         {{"calendar_events_per_sec", calendar},
                          {"hop_events_per_sec", hops.events_per_sec},
                          {"packets_per_sec", hops.packets_per_sec},
                          {"allocs_per_event_steady", hops.allocs_per_event},
                          {"hop_events_total", hops.events}});
  if (hops.allocs_per_event != 0) {
    std::fprintf(stderr, "micro_simulator: steady-state forwarding allocated (%.6f allocs/event)\n",
                 hops.allocs_per_event);
    return 1;
  }
  return 0;
}
