#!/usr/bin/env python3
"""End-to-end benchmark of sdmbox: ScenarioSpec -> build_world -> prepare_sim
-> run -> metrics/trace/span JSON, on three worlds.

    python3 e2ebench/run.py --workload campus_overload --seed 2019 --seconds 20 --trace 0
    python3 e2ebench/run.py          # every workload, both passes, seed 2019

Builds e2ebench/ (Release) into .bench_build/ under the repository root,
writes the workload's specs for --seed, and runs the e2e_bench binary in
fresh processes, one world per process (VmHWM only grows within a process).
Every run is single-threaded: shards = 1, no suite runner, no --jobs.

--trace 0 times the untraced pipeline on the seed's replicate worlds (world
0 twice, the same-seed pair for the byte-identity check) for at least
--seconds and adds set-up-only repetitions for setup_s. --trace 1 runs
world 0 three times: untraced, traced with the layer probe, and with the
oracle toggled; it reports the per-layer metrics and writes the span dump to
.bench_build/traces/. Both passes run the correctness gate; the oracle's
packet conservation and error rate need an oracle run, which --trace 0 has
only where the spec verifies (waxman400_chaos). Without --trace, both
passes run.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See e2ebench/NOTES.md for why each workload and metric is there.
"""
import argparse
import filecmp
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "e2ebench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
PROCESS_TIMEOUT_S = 150

# Spec keys per workload; every other key keeps the ScenarioSpec default
# (strategy lb, spans on, trace_sample 1, epoch 0.5). Why each: NOTES.md.
WORKLOADS = {
    "campus_overload": {
        "topology": "campus", "packets": 2000000, "faults": "none"},
    "waxman2k_sparse": {
        "topology": "waxman", "waxman_edge_count": 2000, "packets": 20000, "faults": "none"},
    "waxman400_chaos": {
        "topology": "waxman", "waxman_edge_count": 400, "packets": 1000000, "faults": "chaos",
        "reopt_period": 0.5, "verify": "true"},
}
COMMON = {"strategy": "lb", "shards": 1}

# Replicate worlds per --trace 0 run. One world's times swing with its
# random structure (campus congestion at 2M packets doubles run_s on some
# seeds) as much as with host noise, so each run times several worlds and
# reports medians.
REPLICATES = {"campus_overload": 5, "waxman2k_sparse": 4, "waxman400_chaos": 5}
# Set-up-only repetitions of world 0 per run, on top of one per timed run.
SETUP_REPS = {"campus_overload": 10, "waxman2k_sparse": 0, "waxman400_chaos": 3}
MASK64 = (1 << 64) - 1

END_TO_END = [  # name, unit
    ("setup_s", "s"), ("run_s", "s"), ("total_s", "s"), ("packets_per_s", "packets/s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [  # name, unit
    ("net.routing_s", "s"), ("net.routing_rss_mb", "MB"), ("net.resolve_ns", "ns"),
    ("net.resolver_build_s", "s"), ("net.mean_latency_ms", "ms"),
    ("workload.generate_s", "s"), ("workload.flows", "count"),
    ("core.controller_s", "s"), ("core.compile_s", "s"),
    ("lp.pivots", "count"), ("lp.replan_pivots", "count"), ("lp.warm_starts", "count"),
    ("sim.events", "count"), ("sim.events_per_s", "1/s"), ("sim.events_per_packet", "ratio"),
    ("agents.fast_path_share", "ratio"), ("agents.max_load_ratio", "ratio"),
    ("agents.peer_blacklists", "count"), ("agents.peer_probes", "count"),
    ("agents.failover_reroutes", "count"),
    ("policy.classifier_lookups", "count"), ("policy.classify_ns", "ns"),
    ("tables.flow_cache_hit_ratio", "ratio"), ("tables.label_hit_ratio", "ratio"),
    ("tables.label_teardowns", "count"),
    ("control.health_probes", "count"), ("control.pushes", "count"),
    ("control.push_bytes", "bytes"), ("control.retransmissions", "count"),
    ("control.replans", "count"), ("control.replans_patched", "count"),
    ("control.detection_latency_s", "s"), ("control.unenforced_window_s", "s"),
    ("obs.registry_series", "count"), ("obs.export_s", "s"), ("obs.export_mb", "MB"),
    ("obs.trace_records", "count"), ("obs.tracing_overhead_s", "s"),
    ("verify.packets_tracked", "count"), ("verify.violations", "count"),
    ("verify.error_rate", "ratio"), ("verify.overhead_s", "s"),
    ("exp.build_world_s", "s"), ("exp.prepare_sim_s", "s"),
]

# Deterministic facts every same-seed run of one spec must repeat exactly.
SIM_FACTS = [
    "net_injected", "net_delivered", "net_dropped_ttl", "net_dropped_no_route",
    "net_dropped_node_down", "net_dropped_queue", "net_dropped_link_down",
    "net_dropped_link_loss", "net_mean_latency_s", "max_load_ratio", "unenforced_window_s",
    "sim_events", "proxy_label_switched_packets", "proxy_tunneled_packets",
    "peer_blacklists", "mbx_teardowns_sent", "ctrl_pushes_sent", "reopt_solve_pivots",
]
# Network-level facts the oracle must not change (it only observes).
NET_FACTS = [f for f in SIM_FACTS if f.startswith("net_")]


class GateFailure(Exception):
    """A correctness-gate fault: crash, byte-identity or conservation."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec_text(workload, seed, verify=None):
    keys = dict(COMMON, seed=seed, **WORKLOADS[workload])
    if verify is not None:
        keys["verify"] = "true" if verify else "false"
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def write_spec(workload, seed, verify=None):
    tag = "" if verify is None else ("-verify" if verify else "-noverify")
    path = os.path.join(BUILD_DIR, "specs", f"{workload}-{seed}{tag}.spec")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(spec_text(workload, seed, verify))
    return path


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "exp", "world.hpp")):
        log(f"e2ebench: no sdmbox sources under {ROOT}/src; nothing to benchmark")
        sys.exit(2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    steps = [["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                with open(build_log) as f:
                    log(f.read()[-4000:])
                log("e2ebench: build failed")
                sys.exit(2)


def call(args):
    """Run the binary once in a fresh process; its JSON line, or GateFailure."""
    try:
        p = subprocess.run([BINARY] + args, capture_output=True, text=True,
                           timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise GateFailure(f"timed out after {PROCESS_TIMEOUT_S}s: e2e_bench {' '.join(args)}")
    if p.returncode != 0:
        raise GateFailure(f"exit {p.returncode}: e2e_bench {' '.join(args)}\n{p.stderr.strip()}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def error_rate(r):
    """(oracle-violating + no-route/TTL/queue drops) / injected."""
    bad = (r["verify_packets_violating"] + r["net_dropped_no_route"] + r["net_dropped_ttl"]
           + r["net_dropped_queue"])
    return bad / r["net_injected"]


def same_facts(a, b, keys, what):
    diff = [k for k in keys if a[k] != b[k]]
    if diff:
        raise GateFailure(f"{what} differ on {', '.join(diff)}")


def identical_exports(dir_a, dir_b):
    for name in ("metrics.json", "trace.json", "spans.json"):
        if not filecmp.cmp(os.path.join(dir_a, name), os.path.join(dir_b, name), shallow=False):
            raise GateFailure(f"same-seed runs exported different {name}")


def quality_lines(workload, seed, v):
    violations = int(v["verify_violations"])
    lines = [
        f"{workload} seed {seed}: error_rate {error_rate(v):.6g} ratio "
        f"({violations} violations, {int(v['verify_packets_violating'])} violating packets "
        f"of {int(v['net_injected'])} injected)",
        f"{workload} seed {seed}: mean_latency_ms {1000 * v['net_mean_latency_s']:.6g} ms "
        f"(simulated), max_load_ratio {v['max_load_ratio']:.6g} ratio, "
        f"unenforced_window_s {v['unenforced_window_s']:.6g} s (simulated), "
        f"peer_blacklists {int(v['peer_blacklists'])} count",
    ]
    if violations:
        lines.append(f"{workload} seed {seed}: oracle violations are reported, not gated; "
                     "campus_overload's label_path_divergence under overload is a known "
                     "defect (e2ebench/NOTES.md)")
    return lines


def world_seeds(workload, seed):
    """The run's replicate worlds: --seed itself, then the repo's replicate
    derivation (exp::derive_seed: splitmix64 at position i)."""
    seeds = [seed]
    for i in range(1, REPLICATES[workload]):
        x = (seed + 0x9E3779B97F4A7C15 * i + 0x9E3779B97F4A7C15) & MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
        seeds.append(x ^ (x >> 31))
    return seeds


def measure(workload, seed, seconds, counts):
    """--trace 0: timed untraced runs, set-up repetitions and the gate.

    Runs every replicate world once, then world 0 again (the same-seed pair
    for the byte-identity check), then keeps cycling through the worlds
    until --seconds have passed. Each time is the median over worlds of
    each world's median run, so one congested world cannot carry it."""
    specs = [write_spec(workload, s) for s in world_seeds(workload, seed)]
    out_root = os.path.join(BUILD_DIR, "exports", workload)
    shutil.rmtree(out_root, ignore_errors=True)
    by_world = [[] for _ in specs]
    start = time.monotonic()
    for n in itertools.count():
        i = n % len(specs)
        args = ["run", specs[i]]
        if i == 0:
            out = os.path.join(out_root, str(n))
            os.makedirs(out)
            args += ["--exports", out]
        counts["attempted"] += 1
        r = call(args)
        by_world[i].append(r)
        same_facts(by_world[i][0], r, SIM_FACTS, "same-seed runs")
        if i == 0 and n > 0:
            identical_exports(os.path.join(out_root, "0"), out)
            shutil.rmtree(out)
        if n >= len(specs) and time.monotonic() - start >= seconds:
            break
    shutil.rmtree(out_root, ignore_errors=True)

    setup = [r["setup_s"] for runs in by_world for r in runs]
    if SETUP_REPS[workload]:
        counts["attempted"] += 1
        setup += call(["setup", specs[0], "--reps", str(SETUP_REPS[workload])])["setup_s"]

    def med(value):
        return statistics.median(statistics.median(value(r) for r in runs) for runs in by_world)

    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": med(lambda r: r["run_s"]),
        "total_s": med(lambda r: r["total_s"]),
        "packets_per_s": med(lambda r: r["net_injected"] / r["run_s"]),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
    }
    runs = sum(len(w) for w in by_world)
    info = [f"{workload} seed {seed}: {runs} timed runs over {len(specs)} worlds, "
            f"{len(setup)} set-ups"]
    if by_world[0][0]["oracle"]:
        info += quality_lines(workload, seed, by_world[0][0])
    return metrics, END_TO_END, info


def layers(workload, seed, seconds, counts):
    """--trace 1: untraced run, traced run + probe, oracle-toggled run."""
    spec = write_spec(workload, seed)
    counts["attempted"] += 3
    plain = call(["run", spec])
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    spans_path = os.path.join(trace_dir, f"{workload}-{seed}.spans.json")
    t = call(["trace", spec, "--trace-id", f"{workload}/{seed}", "--spans", spans_path])
    toggled = call(["run", write_spec(workload, seed, verify=not t["oracle"])])
    if not t["probe_matches_world"]:
        raise GateFailure("the layer probe did not rebuild the world's inputs")
    same_facts(plain, t, SIM_FACTS, "traced and untraced runs")
    same_facts(plain, toggled, NET_FACTS, "runs with and without the oracle")
    v, bare = (t, toggled) if t["oracle"] else (toggled, t)

    ratio = lambda a, b: a / b if b else 0.0
    switched, tunneled = t["proxy_label_switched_packets"], t["proxy_tunneled_packets"]
    m = {k: t[k] for k in (
        "net.routing_s", "net.routing_rss_mb", "net.resolve_ns", "net.resolver_build_s",
        "workload.generate_s", "workload.flows", "core.controller_s", "core.compile_s",
        "lp.pivots", "policy.classify_ns", "obs.export_s", "obs.export_mb",
        "exp.build_world_s", "exp.prepare_sim_s")}
    m.update({
        "net.mean_latency_ms": 1000 * t["net_mean_latency_s"],
        "lp.replan_pivots": t["reopt_solve_pivots"],
        "lp.warm_starts": t["reopt_solve_warm_starts"],
        "sim.events": t["sim_events"],
        "sim.events_per_s": t["sim_events"] / t["run_s"],
        "sim.events_per_packet": t["sim_events"] / t["net_injected"],
        "agents.fast_path_share": ratio(switched, switched + tunneled),
        "agents.max_load_ratio": t["max_load_ratio"],
        "agents.peer_blacklists": t["peer_blacklists"],
        "agents.peer_probes": t["peer_probes_sent"],
        "agents.failover_reroutes": t["proxy_failover_reroutes"] + t["mbx_failover_reroutes"],
        "policy.classifier_lookups": t["proxy_classifier_lookups"] + t["mbx_classifier_lookups"],
        "tables.flow_cache_hit_ratio": ratio(
            t["flow_cache_hits"], t["flow_cache_hits"] + t["flow_cache_misses"]),
        "tables.label_hit_ratio": ratio(
            t["label_table_hits"], t["label_table_hits"] + t["label_table_misses"]),
        "tables.label_teardowns": t["mbx_teardowns_sent"],
        "control.health_probes": t["health_probes_sent"],
        "control.pushes": t["ctrl_pushes_sent"],
        "control.push_bytes": t["ctrl_push_bytes_sent"],
        "control.retransmissions": t["ctrl_retransmissions"],
        "control.replans": t["ctrl_replans"],
        "control.replans_patched": t["ctrl_replans_patched"],
        "control.detection_latency_s": t["health_mean_detection_latency_s"],
        "control.unenforced_window_s": t["unenforced_window_s"],
        "obs.registry_series": t["registry_series"],
        "obs.trace_records": t["trace_records"],
        "obs.tracing_overhead_s": t["total_s"] - plain["total_s"],
        "verify.packets_tracked": v["verify_packets_tracked"],
        "verify.violations": v["verify_violations"],
        "verify.error_rate": error_rate(v),
        "verify.overhead_s": v["run_s"] - bare["run_s"],
    })
    lines = self_time_table(workload, seed, t, spans_path) + quality_lines(workload, seed, v)
    return m, PER_LAYER, lines


def self_time_table(workload, seed, t, spans_path):
    """Self time by span next to the registry counts of the same layer."""
    counts = {
        "exp.run": f"sim.events {int(t['sim_events'])}, net_injected {int(t['net_injected'])}",
        "net.routing": f"routing_rss {t['net.routing_rss_mb']:.1f} MB",
        "net.resolve": f"{t['net.resolve_ns']:.0f} ns/lookup",
        "policy.classify": f"classifier_lookups in run "
                           f"{int(t['proxy_classifier_lookups'] + t['mbx_classifier_lookups'])}",
        "core.compile": f"lp.pivots {int(t['lp.pivots'])}",
        "workload.generate": f"flows {int(t['workload.flows'])}",
        "obs.export_metrics": f"registry_series {int(t['registry_series'])}",
        "obs.export_trace": f"trace_records {int(t['trace_records'])}",
    }
    setup = t["setup_s"]
    probe = {k: v for k, v in t["self_s"].items()
             if k in ("net.topology", "core.deploy", "workload.generate", "core.controller",
                      "core.compile", "net.routing", "net.resolver_build")}
    top = max(probe, key=probe.get)
    replayed = sum(probe.values())
    lines = [f"{workload} seed {seed}: self time by span (spans in {spans_path})",
             f"  {'span':<22}{'self_s':>12}  registry"]
    for name, s in sorted(t["self_s"].items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<22}{s:>12.6f}  {counts.get(name, '')}")
    lines.append(f"  largest child of setup_s: {top} ({probe[top]:.3f} s, "
                 f"{100 * probe[top] / replayed:.0f}% of the probe's {replayed:.3f} s "
                 f"replay of set-up; traced setup_s {setup:.3f} s)")
    return lines


def run_one(workload, seed, seconds, trace):
    counts = {"attempted": 0}
    correct = True
    fn = layers if trace else measure
    try:
        values, names, lines = fn(workload, seed, seconds, counts)
    except GateFailure as e:
        log(f"{workload} seed {seed}: CORRECTNESS GATE FAILED: {e}")
        correct, values, names, lines = False, {}, (PER_LAYER if trace else END_TO_END), []
    for line in lines:
        print(line)
    for name, unit in names:
        if name in values:
            print(f"{workload} {name} = {values[name]:.6g} {unit}")
    # A failed gate still reports every metric key; the values are then
    # meaningless and "correct" says so.
    return {
        "correct": correct,
        "attempted": max(1, counts["attempted"]),
        "failed": 0 if correct else 1,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in names},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=2019)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end pass, 1: traced per-layer pass (default: both)")
    args = ap.parse_args()

    build()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    passes = (0, 1) if args.trace is None else (args.trace,)
    results = [run_one(w, args.seed, args.seconds, t) for w in names for t in passes]
    for r in results:
        print(json.dumps(r), flush=True)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
