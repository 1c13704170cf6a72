// End-to-end benchmark binary: one ScenarioSpec (text file) through
// exp::build_world -> World::prepare_sim -> World::run -> the metrics, trace
// and span exporters, timed from outside with host wall time.
//
//   e2e_bench run   SPEC [--exports DIR]
//       One build, run and export in this process (so VmHWM is this run's
//       peak). Prints one JSON object: wall times, peak RSS, and the
//       deterministic simulated counters the metrics derive from. --exports
//       writes the three rendered documents to DIR after timing stops, for
//       the same-seed byte-identity check.
//   e2e_bench setup SPEC --reps K
//       K x (build_world + prepare_sim), each world destroyed before the
//       next. Prints the K set-up times.
//   e2e_bench trace SPEC --trace-id ID --spans FILE
//       The same pipeline wrapped in spans, then a "probe" that replays, on
//       the same spec, the layer calls build_world and prepare_sim make
//       internally, each timed on its own. Writes every span to FILE and
//       prints self time per span name plus the per-layer measurements.
//
// Spans are recorded here, around calls into each layer's public API;
// nothing inside src/ is instrumented. Exit codes: 0 ok, 1 the run broke a
// correctness check (printed on stderr), 2 usage / unreadable spec.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "exp/spec.hpp"
#include "exp/world.hpp"
#include "obs/export.hpp"
#include "policy/classifier.hpp"
#include "util/rng.hpp"

using namespace sdmbox;

namespace {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A /proc/self/status field in MB (VmRSS, VmHWM); 0 if unreadable.
double proc_status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::strtod(line.c_str() + n + 1, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

/// Flat JSON object writer; numbers use the exporters' exact recipe.
class JsonObject {
public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, obs::json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + obs::json_escape(v) + "\"");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    out_ += out_.empty() ? "{" : ",";
    out_ += "\"" + obs::json_escape(key) + "\":" + json;
    return *this;
  }
  std::string done() const { return out_.empty() ? "{}" : out_ + "}"; }

private:
  std::string out_;
};

bool read_spec(const std::string& path, exp::ScenarioSpec& spec) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open spec %s\n", path.c_str());
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const exp::SpecParseResult parsed = exp::parse_text(text.str());
  for (const auto& e : parsed.errors) std::fprintf(stderr, "spec: %s\n", e.c_str());
  if (!parsed.ok()) return false;
  spec = parsed.spec;
  return true;
}

struct Exports {
  std::string metrics, trace, spans;
};

/// Over function types: the busiest implementer's processed packets over
/// the mean of that type's implementers (Table III's balance; 1.0 = even).
double max_load_ratio(const exp::World& w) {
  std::map<std::string, double> processed;  // device name -> packets
  for (const auto& s : w.registry.collect()) {
    if (s.name != "mbx_processed_packets") continue;
    if (const std::string* dev = s.labels.get("device")) processed[*dev] = s.value;
  }
  double worst = 0;
  for (std::size_t f = 0; f < policy::kMaxFunctions; ++f) {
    const auto& boxes = w.deployment.implementers(policy::FunctionId{static_cast<std::uint8_t>(f)});
    if (boxes.empty()) continue;
    double sum = 0;
    double top = 0;
    for (const net::NodeId m : boxes) {
      const double p = processed[w.deployment.find(m)->name];
      sum += p;
      top = std::max(top, p);
    }
    if (sum > 0) worst = std::max(worst, top / (sum / static_cast<double>(boxes.size())));
  }
  return worst;
}

double histogram_sum(const obs::MetricsRegistry& registry, const std::string& name) {
  double sum = 0;
  for (const auto& s : registry.collect()) {
    if (s.name == name && s.kind == obs::MetricKind::kHistogram) sum += s.histogram.sum;
  }
  return sum;
}

/// Registry counters summed over devices; every one a deterministic count.
constexpr const char* kTotals[] = {
    "net_injected", "net_delivered", "net_dropped_ttl", "net_dropped_no_route",
    "net_dropped_node_down", "net_dropped_queue", "net_dropped_link_down",
    "net_dropped_link_loss", "net_mean_latency_s", "proxy_label_switched_packets", "proxy_tunneled_packets", "proxy_classifier_lookups",
    "mbx_classifier_lookups", "peer_blacklists", "peer_probes_sent", "proxy_failover_reroutes",
    "mbx_failover_reroutes", "flow_cache_hits", "flow_cache_misses", "label_table_hits",
    "label_table_misses", "mbx_teardowns_sent", "health_probes_sent", "ctrl_pushes_sent",
    "ctrl_push_bytes_sent", "ctrl_retransmissions", "ctrl_replans", "ctrl_replans_patched",
    "health_mean_detection_latency_s", "reopt_solve_pivots",
    "reopt_solve_warm_starts", "verify_packets_tracked", "verify_violations",
    "verify_packets_violating",
};

/// The oracle's per-packet outcome buckets: each tracked packet lands in one.
constexpr const char* kOutcomeBuckets[] = {
    "verify_packets_delivered_ok", "verify_packets_denied",      "verify_packets_dropped",
    "verify_packets_wp_served",    "verify_packets_anomaly_sunk", "verify_packets_in_flight",
    "verify_packets_violating",    "verify_packets_unverified",
};

/// Every simulated (deterministic) fact the benchmark reports about a run.
void put_sim_facts(JsonObject& o, const exp::World& w) {
  for (const char* name : kTotals) o.num(name, w.registry.total(name));
  o.num("max_load_ratio", max_load_ratio(w));
  o.num("unenforced_window_s", histogram_sum(w.registry, "conv_total_unenforced_window"));
  o.num("sim_events", static_cast<double>(w.simnet->simulator().events_processed()));
  o.num("registry_series", static_cast<double>(w.registry.size()));
  o.num("trace_records", static_cast<double>(w.trace_recorded()));
  o.num("oracle", w.oracle ? 1 : 0);
}

/// Packet conservation: the calendar drained, and when the oracle watched
/// the run, every injected packet was tracked and landed in exactly one of
/// its outcome buckets (delivered, denied, dropped, WP-served, anomaly-sunk,
/// violating, unverified, or still in flight: consumed by an agent without a
/// delivery record). Empty when it holds, else what broke.
std::string conservation_error(const exp::World& w) {
  if (w.simnet->simulator().pending() != 0) return "calendar not drained after run()";
  if (!w.oracle) return {};
  const double injected = w.registry.total("net_injected");
  const double tracked = w.registry.total("verify_packets_tracked");
  double landed = 0;
  for (const char* b : kOutcomeBuckets) landed += w.registry.total(b);
  if (injected == tracked && tracked == landed) return {};
  char buf[160];
  std::snprintf(buf, sizeof buf, "net_injected %.0f, oracle tracked %.0f, outcomes %.0f",
                injected, tracked, landed);
  return buf;
}

Exports render(const exp::World& w) {
  Exports e;
  e.metrics = obs::to_json(w.registry, w.recorder.get());
  e.trace = w.trace_json();
  e.spans = w.spans ? obs::spans_to_json(*w.spans) : std::string("{}");
  return e;
}

// ---------------------------------------------------------------- spans ---

struct Span {
  std::size_t id = 0;
  std::size_t parent = 0;  // 0 = root
  std::string name;
  double start = 0;
  double end = 0;
};

class SpanLog {
public:
  explicit SpanLog(std::string trace_id) : trace_id_(std::move(trace_id)) {}

  std::size_t begin(const std::string& name, std::size_t parent = 0) {
    spans_.push_back(Span{spans_.size() + 1, parent, name, now_s() - t0_, 0});
    return spans_.size();
  }
  double end(std::size_t id) {
    Span& s = spans_.at(id - 1);
    s.end = now_s() - t0_;
    return s.end - s.start;
  }
  /// Duration minus the union of its direct children's intervals.
  double self_time(const Span& s) const {
    std::vector<std::pair<double, double>> kids;
    for (const Span& c : spans_) {
      if (c.parent == s.id) kids.emplace_back(c.start, c.end);
    }
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = s.start;
    for (const auto& [a, b] : kids) {
      const double lo = std::max(a, reach);
      if (b > lo) covered += b - lo;
      reach = std::max(reach, b);
    }
    return (s.end - s.start) - covered;
  }
  const std::vector<Span>& spans() const { return spans_; }

  std::string to_json() const {
    std::string out = "{\"trace_id\":\"" + obs::json_escape(trace_id_) + "\",\"spans\":[";
    for (const Span& s : spans_) {
      JsonObject o;
      o.num("id", static_cast<double>(s.id))
          .num("parent", static_cast<double>(s.parent))
          .str("trace_id", trace_id_)
          .str("name", s.name)
          .num("start_s", s.start)
          .num("end_s", s.end)
          .num("self_s", self_time(s));
      out += (s.id == 1 ? "" : ",") + o.done();
    }
    return out + "]}";
  }

private:
  std::string trace_id_;
  double t0_ = now_s();
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------- modes ---

int mode_run(const exp::ScenarioSpec& spec, const std::string& exports_dir) {
  const double t0 = now_s();
  auto world = exp::build_world(spec);
  world->prepare_sim();
  const double t2 = now_s();
  world->run();
  const double t3 = now_s();
  const Exports e = render(*world);
  const double t4 = now_s();
  const double hwm = proc_status_mb("VmHWM");

  JsonObject o;
  o.num("setup_s", t2 - t0).num("run_s", t3 - t2).num("total_s", t4 - t0).num("peak_rss_mb", hwm);
  put_sim_facts(o, *world);
  std::printf("%s\n", o.done().c_str());

  if (!exports_dir.empty()) {
    const bool ok = obs::write_file(exports_dir + "/metrics.json", e.metrics) &&
                    obs::write_file(exports_dir + "/trace.json", e.trace) &&
                    obs::write_file(exports_dir + "/spans.json", e.spans);
    if (!ok) return 2;
  }
  const std::string broken = conservation_error(*world);
  if (!broken.empty()) {
    std::fprintf(stderr, "conservation check failed: %s\n", broken.c_str());
    return 1;
  }
  return 0;
}

int mode_setup(const exp::ScenarioSpec& spec, int reps) {
  std::string times;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    auto world = exp::build_world(spec);
    world->prepare_sim();
    times += (i ? "," : "") + obs::json_number(now_s() - t0);
  }
  std::printf("{\"setup_s\":[%s]}\n", times.c_str());
  return 0;
}

/// Replays build_world / prepare_sim one layer at a time (same RNG order as
/// exp::build_world), each call in its own span under `root`.
void probe(const exp::ScenarioSpec& spec, const exp::World& world, SpanLog& log,
           std::size_t root, JsonObject& o) {
  util::Rng rng(spec.seed);
  std::size_t id = log.begin("net.topology", root);
  net::GeneratedNetwork network;
  if (spec.topology == exp::TopologyKind::kWaxman) {
    net::WaxmanParams wp;
    wp.seed = spec.seed;
    wp.edge_count = spec.waxman_edge_count;
    wp.core_count = spec.waxman_core_count;
    wp.proxy_mode = spec.off_path ? net::ProxyMode::kOffPath : net::ProxyMode::kInPath;
    network = net::make_waxman_topology(wp);
  } else {
    net::CampusParams cp;
    cp.edge_count = spec.campus_edge_count;
    cp.core_count = spec.campus_core_count;
    cp.proxy_mode = spec.off_path ? net::ProxyMode::kOffPath : net::ProxyMode::kInPath;
    network = net::make_campus_topology(cp);
  }
  log.end(id);

  id = log.begin("core.deploy", root);
  core::Deployment deployment =
      core::deploy_middleboxes(network, world.catalog, core::DeploymentParams{}, rng);
  log.end(id);

  id = log.begin("workload.generate", root);
  workload::PolicyGenParams pp;
  pp.many_to_one = pp.one_to_many = pp.one_to_one = spec.policies_per_class;
  const workload::GeneratedPolicies gen = workload::generate_policies(network, pp, rng);
  workload::FlowGenParams fp;
  fp.target_total_packets = spec.packets;
  const workload::GeneratedFlows flows = workload::generate_flows(network, gen, fp, rng);
  const workload::TrafficMatrix traffic = workload::TrafficMatrix::measure(gen.policies, flows.flows);
  o.num("workload.generate_s", log.end(id));
  o.num("workload.flows", static_cast<double>(flows.flows.size()));
  deployment.set_uniform_capacity(std::max(1.0, traffic.grand_total()));

  core::ControllerParams ctrl_params;
  ctrl_params.lp.simplex.engine = spec.lp_engine;
  ctrl_params.warm_start_lb = spec.lp_warm_start;
  id = log.begin("core.controller", root);
  core::Controller controller(network, deployment, gen.policies, ctrl_params);
  o.num("core.controller_s", log.end(id));

  id = log.begin("core.compile", root);
  core::Controller::SolveInfo info;
  const core::EnforcementPlan plan = controller.compile(
      spec.strategy,
      spec.strategy == core::StrategyKind::kLoadBalanced ? &traffic : nullptr, &info);
  o.num("core.compile_s", log.end(id));
  o.num("lp.pivots", static_cast<double>(info.pivots));

  // Routing and resolution run on the world's own topology: prepare_sim
  // computes them after the controller host joined it.
  const net::Topology& topo = world.network.topo;
  const double rss0 = proc_status_mb("VmRSS");
  id = log.begin("net.routing", root);
  const net::RoutingTables routing = net::RoutingTables::compute(topo);
  o.num("net.routing_s", log.end(id));
  o.num("net.routing_rss_mb", std::max(0.0, proc_status_mb("VmRSS") - rss0));

  id = log.begin("net.resolver_build", root);
  const net::AddressResolver resolver = net::AddressResolver::build(topo);
  o.num("net.resolver_build_s", log.end(id));

  // The lookup loops count their hits and print them, so the optimiser
  // cannot drop the calls being timed.
  id = log.begin("net.resolve", root);
  std::size_t resolved = 0;
  for (const auto& f : flows.flows) {
    resolved += resolver.resolve(f.id.src).has_value();
    resolved += resolver.resolve(f.id.dst).has_value();
  }
  const double resolve_s = log.end(id);
  o.num("net.resolve_ns", 1e9 * resolve_s / std::max<double>(1, 2.0 * flows.flows.size()));
  o.num("net.resolved", static_cast<double>(resolved));

  const auto classifier = policy::make_trie_classifier(gen.policies);
  id = log.begin("policy.classify", root);
  std::size_t matched = 0;
  for (const auto& f : flows.flows) matched += classifier->first_match(f.id) != nullptr;
  const double classify_s = log.end(id);
  o.num("policy.classify_ns", 1e9 * classify_s / std::max<double>(1, flows.flows.size()));
  o.num("policy.matched", static_cast<double>(matched));

  // The replay must have rebuilt the world's inputs, or it timed something else.
  o.num("probe_matches_world", flows.flows.size() == world.flows.flows.size() &&
                                       flows.total_packets == world.flows.total_packets &&
                                       deployment.size() == world.deployment.size()
                                   ? 1
                                   : 0);
}

int mode_trace(const exp::ScenarioSpec& spec, const std::string& trace_id,
               const std::string& spans_path) {
  SpanLog log(trace_id);
  const std::size_t root = log.begin("exp.pipeline");
  std::size_t id = log.begin("exp.build_world", root);
  auto world = exp::build_world(spec);
  const double build_s = log.end(id);
  id = log.begin("exp.prepare_sim", root);
  world->prepare_sim();
  const double prepare_s = log.end(id);
  id = log.begin("exp.run", root);
  world->run();
  const double run_s = log.end(id);
  id = log.begin("obs.export_metrics", root);
  const std::string metrics = obs::to_json(world->registry, world->recorder.get());
  double export_s = log.end(id);
  id = log.begin("obs.export_trace", root);
  const std::string trace = world->trace_json();
  export_s += log.end(id);
  id = log.begin("obs.export_spans", root);
  const std::string spans = world->spans ? obs::spans_to_json(*world->spans) : std::string("{}");
  export_s += log.end(id);
  const double total_s = log.end(root);

  JsonObject o;
  o.num("exp.build_world_s", build_s)
      .num("exp.prepare_sim_s", prepare_s)
      .num("setup_s", build_s + prepare_s)
      .num("run_s", run_s)
      .num("total_s", total_s)
      .num("obs.export_s", export_s)
      .num("obs.export_mb", static_cast<double>(metrics.size() + trace.size() + spans.size()) / 1e6);
  put_sim_facts(o, *world);

  const std::size_t probe_root = log.begin("probe");
  probe(spec, *world, log, probe_root, o);
  log.end(probe_root);

  std::string self = "{";
  std::map<std::string, double> by_name;
  for (const Span& s : log.spans()) by_name[s.name] += log.self_time(s);
  for (const auto& [name, t] : by_name) {
    self += (self.size() > 1 ? ",\"" : "\"") + obs::json_escape(name) + "\":" + obs::json_number(t);
  }
  o.raw("self_s", self + "}");
  std::printf("%s\n", o.done().c_str());
  return obs::write_file(spans_path, log.to_json()) ? 0 : 2;
}

int usage() {
  std::fprintf(stderr,
               "usage: e2e_bench run SPEC [--exports DIR]\n"
               "       e2e_bench setup SPEC --reps K\n"
               "       e2e_bench trace SPEC --trace-id ID --spans FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 3; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  if ((argc - 3) % 2 != 0) return usage();

  exp::ScenarioSpec spec;
  if (!read_spec(argv[2], spec)) return 2;
  try {
    if (mode == "run") return mode_run(spec, flags["--exports"]);
    if (mode == "setup") return mode_setup(spec, std::max(1, std::atoi(flags["--reps"].c_str())));
    if (mode == "trace" && !flags["--spans"].empty()) {
      return mode_trace(spec, flags["--trace-id"], flags["--spans"]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
  return usage();
}
