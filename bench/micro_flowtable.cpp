// Perf-trajectory harness for the §III.D flow cache and §III.E label table
// (BENCH_micro_flowtable.json).
//
// Measures the three flow-table operations the per-packet path performs —
// hit lookup, miss lookup, insert-with-eviction at capacity — plus the label
// table's lookup, and records steady-state allocations per operation through
// the counting operator-new hook; the bench exits 1 if any is non-zero. Entries are inserted with empty action
// lists so the numbers isolate table cost from workload-payload copies.
//
// Throughputs are best-of-reps; allocation counts come from the last rep.
#include "alloc_count.hpp"
#include "common.hpp"

#include "tables/flow_table.hpp"
#include "tables/label_table.hpp"
#include "util/rng.hpp"

namespace {

using namespace sdmbox;

constexpr int kReps = 5;

std::vector<packet::FlowId> make_flows(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<packet::FlowId> flows;
  flows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    packet::FlowId f;
    f.src = net::IpAddress(static_cast<std::uint32_t>(rng.next_u64()));
    f.dst = net::IpAddress(static_cast<std::uint32_t>(rng.next_u64()));
    f.src_port = static_cast<std::uint16_t>(49152 + rng.next_below(16384));
    f.dst_port = static_cast<std::uint16_t>(rng.next_below(10000));
    flows.push_back(f);
  }
  return flows;
}

struct OpResult {
  double ops_per_sec = 0;
  double allocs_per_op = 0;
};

template <typename Fn>
OpResult measure(std::uint64_t ops, Fn&& fn) {
  OpResult out;
  for (int rep = 0; rep < kReps; ++rep) {
    const bench::AllocScope allocs;
    const auto start = std::chrono::steady_clock::now();
    fn(ops);
    const double elapsed = bench::seconds_since(start);
    out.ops_per_sec = std::max(out.ops_per_sec, static_cast<double>(ops) / elapsed);
    out.allocs_per_op = static_cast<double>(allocs.so_far()) / static_cast<double>(ops);
  }
  return out;
}

}  // namespace

int main() {
  constexpr std::size_t kLive = 1 << 16;       // standing flow population
  constexpr std::uint64_t kOps = 4'000'000;

  const std::vector<packet::FlowId> flows = make_flows(kLive, 1);
  const std::vector<packet::FlowId> strangers = make_flows(kLive, 2);

  // Hit lookups: every probe lands on a live entry (idle timeout far away).
  tables::FlowTable hit_table(1e18, kLive);
  for (const auto& f : flows) hit_table.insert(f, policy::PolicyId{1}, {}, 0.0);
  const OpResult hits = measure(kOps, [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      bench::keep(hit_table.lookup(flows[i & (kLive - 1)], 1.0));
    }
  });

  // Miss lookups against the same full table.
  const OpResult misses = measure(kOps, [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      bench::keep(hit_table.lookup(strangers[i & (kLive - 1)], 1.0));
    }
  });

  // Insert at capacity: every insert evicts the LRU entry — the flow-churn
  // steady state of a bounded cache. Varying src_port makes each key fresh.
  tables::FlowTable churn_table(1e18, kLive);
  for (const auto& f : flows) churn_table.insert(f, policy::PolicyId{1}, {}, 0.0);
  std::uint32_t salt = 0;
  const OpResult inserts = measure(kOps / 4, [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      packet::FlowId f = flows[i & (kLive - 1)];
      f.src_port = static_cast<std::uint16_t>(f.src_port ^ ++salt);
      f.dst = net::IpAddress(f.dst.value() + salt);
      churn_table.insert(f, policy::PolicyId{1}, {}, 2.0);
    }
  });

  // Label table hit lookups.
  tables::LabelTable label_table(1e18);
  std::vector<tables::LabelKey> keys;
  keys.reserve(kLive);
  for (std::size_t i = 0; i < kLive; ++i) {
    keys.push_back(tables::LabelKey{flows[i].src, static_cast<std::uint16_t>(i & 0xffff)});
    tables::LabelEntry e;
    e.final_dst = flows[i].dst;
    label_table.insert(keys.back(), std::move(e), 0.0);
  }
  const OpResult labels = measure(kOps, [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      bench::keep(label_table.lookup(keys[i & (kLive - 1)], 1.0));
    }
  });

  std::printf("flow lookup (hit)   : %12.0f ops/s, %.4f allocs/op\n", hits.ops_per_sec,
              hits.allocs_per_op);
  std::printf("flow lookup (miss)  : %12.0f ops/s, %.4f allocs/op\n", misses.ops_per_sec,
              misses.allocs_per_op);
  std::printf("flow insert (evict) : %12.0f ops/s, %.4f allocs/op\n", inserts.ops_per_sec,
              inserts.allocs_per_op);
  std::printf("label lookup (hit)  : %12.0f ops/s, %.4f allocs/op\n", labels.ops_per_sec,
              labels.allocs_per_op);

  bench::emit_bench_json("micro_flowtable",
                         {{"flow_lookup_hit_per_sec", hits.ops_per_sec},
                          {"flow_lookup_hit_allocs_per_op", hits.allocs_per_op},
                          {"flow_lookup_miss_per_sec", misses.ops_per_sec},
                          {"flow_lookup_miss_allocs_per_op", misses.allocs_per_op},
                          {"flow_insert_evict_per_sec", inserts.ops_per_sec},
                          {"flow_insert_evict_allocs_per_op", inserts.allocs_per_op},
                          {"label_lookup_hit_per_sec", labels.ops_per_sec},
                          {"label_lookup_hit_allocs_per_op", labels.allocs_per_op}});
  int status = 0;
  for (const auto& [what, r] : {std::pair{"flow lookup (hit)", hits}, {"flow lookup (miss)", misses},
                                {"flow insert (evict)", inserts}, {"label lookup (hit)", labels}}) {
    if (r.allocs_per_op != 0) {
      std::fprintf(stderr, "micro_flowtable: %s allocated (%.6f allocs/op)\n", what,
                   r.allocs_per_op);
      status = 1;
    }
  }
  return status;
}
