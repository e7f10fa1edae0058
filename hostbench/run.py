#!/usr/bin/env python3
"""Host-cost benchmark of the simulator's figure cells.

Runs from the root of a source checkout:

    python3 hostbench/run.py --workload spec-revoke --seed 1 --seconds 30 --trace 0

builds hostbench_cells (CMake, into .bench_build/hostbench), runs the
workload's cells one after another on one thread with no CREV_*
variable set, checks every cell's simulated fingerprint, and prints as
its last stdout line one JSON object:

    {"correct": ..., "attempted": <cells>, "failed": <cells>, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see BENCHMARK.json). Lines before the last one carry the host
fingerprint, per-cell detail, unmeasured metrics and paper anchors.

Other modes (not part of a benchmark run):

    --ladder        host_s with each host layer switched off alone,
                    interleaved with the default configuration
    --write-golden  regenerate golden/<workload>.json
"""

import argparse
import collections
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
BIN = os.path.join(BUILD, "hostbench_cells")
GOLDEN = os.path.join(HERE, "golden")

WORKLOADS = ("spec-revoke", "spec-nosweep", "server")
DEFAULT_SEED = 1
# Host-side counter families: never part of a simulated fingerprint.
HOST_ONLY = ("prescan.", "memo.", "oracle.")
SETUP_TRIALS = 11
# Host seconds of one pass over a workload's cells on the reference
# host (4-vCPU Xeon KVM guest, gcc 12, Release). A run makes
# --seconds // PASS_SECONDS passes, at least one: the sample count per
# cell depends only on --seconds, never on the speed being measured.
PASS_SECONDS = {"spec-revoke": 15.0, "spec-nosweep": 7.5, "server": 5.0}
# Stored fingerprints cover these seeds (digests) and DEFAULT_SEED (in
# full).
GOLDEN_SEEDS = range(32)
LADDER_REPEATS = 3

# Host layers of the ablation ladder: env knob -> short name.
KNOBS = {
    "CREV_FIBERS": "fibers",
    "CREV_HOST_FAST_PATHS": "host_fast_paths",
    "CREV_SWEEP_ACCEL": "sweep_accel",
    "CREV_MEMO": "memo",
    "CREV_SIMD": "simd",
    "CREV_PAR_CORES": "par_cores",
}

E2E_UNITS = {
    "host_s": "s",
    "sim_maccess_per_s": "Maccess/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, in report order.
DRIVERS = (
    "mem.ns_per_access",
    "vm.ns_per_load",
    "vm.ns_per_store",
    "vm.ns_per_load_cap",
    "vm.ns_per_store_cap",
    "revoker.ns_per_page.clean",
    "revoker.ns_per_page.sparse",
    "revoker.ns_per_page.full",
    "revoker.ns_per_page.revoke_dense",
    "alloc.ns_per_malloc_free",
    "sim.ns_per_switch",
    "cap.ns_per_decode",
    "cap.ns_per_encode",
    "core.ns_per_machine",
)
COUNTS = (  # summed over cells from RunMetrics counters
    "mem.accesses",
    "mem.l1_misses",
    "mem.bus_transactions",
    "vm.tlb_shootdowns",
    "vm.load_barrier_faults",
    "vm.demand_faults",
    "revoker.epochs",
    "sweep.pages_swept",
    "sweep.caps_seen",
    "sweep.caps_revoked",
    "sweep.lines_read",
    "alloc.allocs",
    "alloc.frees",
    "quarantine.revocations_triggered",
    "quarantine.blocked_ops",
)
SCHED = ("sim.thread_runs", "sim.preempts", "sim.stw_windows")
RATIOS = ("mem.l1_miss_ratio", "prescan.hit_ratio", "memo.hit_ratio",
          "sweep.revoke_ratio")
ESTIMATES = ("mem.est_host_s", "vm.est_host_s", "revoker.est_host_s",
             "alloc.est_host_s", "sim.est_host_s", "cap.est_host_s",
             "core.est_host_s", "unattributed_s")
TRACE = ("trace.overhead_s", "oracle.violations")


def per_layer_units():
    units = {n: "ns" for n in DRIVERS}
    units.update({n: "count" for n in COUNTS + SCHED})
    units.update({n: "ratio" for n in RATIOS})
    units.update({n: "s" for n in ESTIMATES})
    units.update({"trace.overhead_s": "s", "oracle.violations": "count"})
    return units


# Value reported for a metric that cannot be measured on a workload; the
# reason is printed on an {"unmeasured": ...} line before the result.
UNMEASURED = -1


def log(msg):
    print(f"hostbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


# --- build -------------------------------------------------------------

def host_cpus():
    return len(os.sched_getaffinity(0))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "machine.h")):
        fail(f"simulator sources not found under {ROOT}/src")
    jobs = str(max(1, min(4, host_cpus())))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def clean_env(**extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("CREV_")}
    env.update(extra)
    return env


def run_bin(args, env=None):
    """Run hostbench_cells; return (records, returncode)."""
    proc = subprocess.run([BIN] + args, env=env or clean_env(),
                          stdout=subprocess.PIPE, text=True)
    records = []
    for line in proc.stdout.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            break  # a crash can truncate the last line
    return records, proc.returncode


def host_fingerprint():
    """What absolute seconds depend on: compare them only between equal
    fingerprints."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    recs, _ = run_bin(["host"])
    info = recs[0] if recs else {}
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "compiler": info.get("compiler", "unknown"),
        "build_type": info.get("build_type", "unknown"),
    }


# --- fingerprints --------------------------------------------------------

def fingerprint(metrics):
    return {k: v for k, v in metrics["counters"].items()
            if not k.startswith(HOST_ONLY)}


def digest(fp):
    blob = json.dumps(fp, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def golden_path(workload):
    return os.path.join(GOLDEN, f"{workload}.json")


def load_golden(workload):
    with open(golden_path(workload)) as f:
        return json.load(f)


def moved_counters(expected, got):
    keys = sorted(set(expected) | set(got))
    return [k for k in keys if expected.get(k) != got.get(k)]


def check_cells(golden, seed, runs):
    """Failures (cell -> reason) of one pass set. @p runs maps a cell
    name to its list of fingerprints, one per pass."""
    failures = {}
    stored = golden["digests"].get(str(seed))
    for name in golden["cells"]:
        fps = runs.get(name)
        if not fps:
            failures[name] = "crashed or did not run"
        elif any(fp != fps[0] for fp in fps[1:]):
            failures[name] = "fingerprint differs between passes"
        elif stored is not None and digest(fps[0]) != stored.get(name):
            reason = "fingerprint differs from the stored one"
            if seed == golden["default_seed"]:
                moved = moved_counters(golden["cells"][name], fps[0])
                reason += ": " + ", ".join(moved[:8])
            failures[name] = reason
    return failures


# --- end-to-end run --------------------------------------------------------

# One run of a cell: wall and process CPU seconds, simulated
# fingerprint, all counters.
CellRun = collections.namedtuple("CellRun", "host_s cpu_s fp counters")


def cell_records(records, kind="cell"):
    """{cell: [CellRun, ...]} in pass order."""
    out = {}
    for r in records:
        if kind in r:
            out.setdefault(r[kind], []).append(
                CellRun(r["host_s"], r["cpu_s"], fingerprint(r["metrics"]),
                        r["metrics"]["counters"]))
    return out


def pass_fingerprints(cells):
    return {n: [r.fp for r in v] for n, v in cells.items()}


def measure_setup(workload, seed):
    times = []
    for _ in range(SETUP_TRIALS):
        t0 = time.perf_counter()
        _, rc = run_bin(["setup", "--workload", workload,
                         "--seed", str(seed)])
        times.append(time.perf_counter() - t0)
        if rc != 0:
            fail("set-up run failed", 1)
    return statistics.median(times)


def passes_for(workload, seconds):
    return max(1, int(seconds // PASS_SECONDS[workload]))


def host_seconds(cells, clock="host_s"):
    """Per-cell minimum over passes (host interference only ever slows a
    cell down), summed over cells. Every cell has the same number of
    passes. @p clock is "host_s" (wall) or "cpu_s"."""
    per_cell = {n: min(getattr(r, clock) for r in v)
                for n, v in cells.items()}
    return sum(per_cell.values()), per_cell


def total(cells, counter):
    return sum(v[0].counters.get(counter, 0) for v in cells.values())


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    })


def run_e2e(args, golden):
    setup_s = measure_setup(args.workload, args.seed)
    passes = passes_for(args.workload, args.seconds)
    records, rc = run_bin(["cells", "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--passes", str(passes)])
    cells = cell_records(records)
    done = next((r for r in records if r.get("done")), None)
    failures = check_cells(golden, args.seed, pass_fingerprints(cells))
    if rc != 0 or done is None:
        failures.setdefault("<process>", f"exit code {rc}")
    attempted = len(golden["cells"])
    failed = min(attempted, len(failures))
    host_s, per_cell = host_seconds(cells) if cells else (0.0, {})
    metrics = {
        "host_s": host_s,
        "sim_maccess_per_s": (total(cells, "mem.accesses") / host_s / 1e6
                              if host_s > 0 else 0.0),
        "setup_s": setup_s,
        "peak_rss_mb": (done or {}).get("peak_rss_kb", 0) / 1024.0,
    }
    print(json.dumps({"host": host_fingerprint()}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "passes": (done or {}).get("passes", 0),
                      "cpu_s": host_seconds(cells, "cpu_s")[0],
                      "cells_failed": failed / attempted,
                      "max_cell_s": max(per_cell.values(), default=0.0),
                      "failures": failures,
                      "cell_min_s": per_cell}))
    correct = not failures
    print(result_line(correct, attempted, failed, metrics, E2E_UNITS))
    return 0 if correct else 1


# --- traced run ------------------------------------------------------------

def interp_ns_per_page(drivers, caps_per_page):
    """Sweep ns/page at a page density, interpolated between the
    harness regimes (clean: 0, sparse: 8, full: 256 caps per page)."""
    pts = [(0.0, drivers["revoker.ns_per_page.clean"]),
           (8.0, drivers["revoker.ns_per_page.sparse"]),
           (256.0, drivers["revoker.ns_per_page.full"])]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if caps_per_page <= x1:
            return y0 + (y1 - y0) * (caps_per_page - x0) / (x1 - x0)
    return pts[-1][1]


def ratio(num, den):
    return num / den if den else None


def paper_anchors(cells, bases):
    """Simulated vs paper for the anchors the repo cites (fig. 1 worst
    cases, fig. 4 Reloaded:Cornucopia bus traffic). Informational:
    the fingerprints already pin these values."""
    counters = {n: v[0].counters for n, v in cells.items()}
    counters.update({n: v[0].counters for n, v in bases.items()})
    fig1 = {"xalancbmk/reloaded": 0.294, "xalancbmk/cornucopia": 0.297,
            "omnetpp/reloaded": 0.231, "omnetpp/cornucopia": 0.248}
    out = []
    for cell, paper in fig1.items():
        base = counters.get(cell.split("/")[0] + "/baseline")
        if cell in counters and base:
            sim = counters[cell]["run.wall_cycles"] / base["run.wall_cycles"] - 1
            out.append({"anchor": f"fig1.overhead.{cell}", "paper": paper,
                        "simulated": round(sim, 4),
                        "error": round(sim - paper, 4)})
    ratios = []
    for prof in ("omnetpp", "xalancbmk"):
        rel, corn = (counters.get(f"{prof}/{s}")
                     for s in ("reloaded", "cornucopia"))
        if rel and corn:
            ratios.append(rel["mem.bus_transactions"] /
                          corn["mem.bus_transactions"])
    if ratios:
        sim = statistics.median(ratios)
        out.append({"anchor": "fig4.reloaded_over_cornucopia_bus",
                    "paper": 0.87, "simulated": round(sim, 4),
                    "error": round(sim - 0.87, 4),
                    "note": "paper: median over 7 profiles; "
                            "here: omnetpp and xalancbmk"})
    return out


def run_trace(args, golden):
    records, rc = run_bin(["trace", "--workload", args.workload,
                           "--seed", str(args.seed)])
    cells = cell_records(records, "cell")
    traced = cell_records(records, "traced")
    bases = cell_records(records, "anchor_base")
    sched = {r["traced"]: r["sched"] for r in records if "sched" in r}
    drivers = {r["driver"]: r["ns"] for r in records if "driver" in r}
    done = any(r.get("done") for r in records)

    failures = check_cells(golden, args.seed, pass_fingerprints(cells))
    for name in golden["cells"]:
        t = traced.get(name)
        if not t:
            failures.setdefault(name, "traced run crashed or did not run")
        elif cells.get(name) and t[0].fp != cells[name][0].fp:
            failures.setdefault(name, "traced fingerprint differs from "
                                      "untraced")
        elif t[0].counters.get("oracle.violations", 0) != 0:
            failures.setdefault(name, "temporal-safety oracle violations")
    if rc != 0 or not done:
        failures.setdefault("<process>", f"exit code {rc}")

    m, unmeasured = {}, {}
    for name in DRIVERS:
        m[name] = drivers.get(name, UNMEASURED)
        if name not in drivers:
            unmeasured[name] = "driver did not run"
    for name in COUNTS:
        m[name] = total(cells, name)

    spec = [n for n in golden["cells"] if not n.startswith(("pgbench/", "grpc/"))]
    if not spec:
        reason = ("machines are built inside the pgbench/gRPC generators, "
                  "so their tracer cannot be read")
    elif len(sched) < len(spec):
        reason = "traced SPEC cells missing"
    elif any(s["dropped"] for s in sched.values()):
        reason = "trace ring overflowed; counts would be partial"
    else:
        reason = None
    for name in SCHED:
        key = name.split(".", 1)[1]
        m[name] = (sum(s[key] for s in sched.values())
                   if reason is None else UNMEASURED)
        if reason:
            unmeasured[name] = reason

    prescan_cands = total(cells, "prescan.candidate_caps")
    memo_tries = total(cells, "memo.cand_hits") + total(cells, "memo.cand_misses")
    ratios = {
        "mem.l1_miss_ratio": ratio(m["mem.l1_misses"], m["mem.accesses"]),
        "prescan.hit_ratio": ratio(total(cells, "prescan.validated_hits"),
                                   prescan_cands),
        "memo.hit_ratio": ratio(total(cells, "memo.cand_hits"), memo_tries),
        "sweep.revoke_ratio": ratio(m["sweep.caps_revoked"],
                                    m["sweep.caps_seen"]),
    }
    for name, v in ratios.items():
        m[name] = UNMEASURED if v is None else v
        if v is None:
            unmeasured[name] = "zero denominator on this workload"

    # Estimated attribution: driver ns/call x matching count. Made from
    # outside the program, and the layers overlap (a vm call includes
    # its memory access), so unattributed_s can go negative.
    host_s = host_seconds(cells)[0]
    est = {}
    if len(drivers) == len(DRIVERS):
        vm_ns = statistics.mean(drivers[n] for n in DRIVERS
                                if n.startswith("vm."))
        vm_calls = max(0, m["mem.accesses"] - m["sweep.lines_read"])
        swept = m["sweep.pages_swept"]
        est = {
            "mem.est_host_s": drivers["mem.ns_per_access"] * m["mem.accesses"],
            "vm.est_host_s":
                max(0.0, vm_ns - drivers["mem.ns_per_access"]) * vm_calls,
            "revoker.est_host_s":
                interp_ns_per_page(drivers, m["sweep.caps_seen"] / swept)
                * swept if swept else 0.0,
            "alloc.est_host_s":
                drivers["alloc.ns_per_malloc_free"] * m["alloc.allocs"],
            "cap.est_host_s": drivers["cap.ns_per_decode"] * m["sweep.caps_seen"],
            "core.est_host_s":
                drivers["core.ns_per_machine"] * len(golden["cells"]),
        }
        if m["sim.thread_runs"] != UNMEASURED:
            est["sim.est_host_s"] = (drivers["sim.ns_per_switch"] *
                                     m["sim.thread_runs"])
        est = {k: v * 1e-9 for k, v in est.items()}
    for name in ESTIMATES[:-1]:
        m[name] = est.get(name, UNMEASURED)
        if name not in est:
            unmeasured[name] = "needs a count or driver that is unmeasured"
    m["unattributed_s"] = host_s - sum(est.values())

    traced_s = sum(v[0].host_s for v in traced.values())
    untraced_s = sum(v[0].host_s for v in cells.values())
    m["trace.overhead_s"] = traced_s - untraced_s
    m["oracle.violations"] = sum(v[0].counters.get("oracle.violations", 0)
                                 for v in traced.values())

    print(json.dumps({"host": host_fingerprint()}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "failures": failures,
                      "estimates": "est_host_s metrics are estimates made "
                                   "from outside the program"}))
    print(json.dumps({"unmeasured": unmeasured}))
    print(json.dumps({"anchors": paper_anchors(cells, bases)}))
    attempted = len(golden["cells"])
    failed = min(attempted, len(failures))
    correct = not failures
    print(result_line(correct, attempted, failed, m, per_layer_units()))
    return 0 if correct else 1


# --- ablation ladder -------------------------------------------------------

def knob_present(knob):
    needle = f'"{knob}"'
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            with open(os.path.join(dirpath, f), errors="replace") as fh:
                if needle in fh.read():
                    return True
    return False


def one_pass(workload, seed, env):
    records, rc = run_bin(["cells", "--workload", workload, "--seed",
                           str(seed), "--passes", "1"], env)
    cells = cell_records(records)
    if rc != 0 or not cells:
        fail(f"ladder pass failed (exit code {rc})", 1)
    return (sum(v[0].host_s for v in cells.values()),
            {n: v[0].fp for n, v in cells.items()})


def run_ladder(args):
    """ABAB: each knob-off pass is paired with a default pass run just
    before it; marginal_s is the median paired difference."""
    present = {k: knob_present(k) for k in KNOBS}
    diffs = {k: [] for k in KNOBS if present[k]}
    defaults = []
    for rep in range(LADDER_REPEATS):
        for knob in diffs:
            base_s, base_fp = one_pass(args.workload, args.seed, clean_env())
            off_s, off_fp = one_pass(args.workload, args.seed,
                                     clean_env(**{knob: "0"}))
            if off_fp != base_fp:
                fail(f"{knob}=0 changed simulated results", 1)
            defaults.append(base_s)
            diffs[knob].append(off_s - base_s)
            log(f"rep {rep} {knob}=0: {off_s:.3f}s vs default {base_s:.3f}s")
    ladder = {}
    for knob, name in KNOBS.items():
        key = f"ladder.{name}.marginal_s"
        if not present[knob]:
            ladder[key] = {"status": "absent", "knob": knob}
            continue
        d = sorted(diffs[knob])
        ladder[key] = {"value": statistics.median(d), "unit": "s",
                       "min": d[0], "max": d[-1], "repeats": len(d),
                       "knob": knob}
    print(json.dumps({"host": host_fingerprint()}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "default_host_s": {
                          "median": statistics.median(defaults),
                          "min": min(defaults), "max": max(defaults)},
                      "ladder": ladder}))
    return 0


# --- golden fingerprints ---------------------------------------------------

def write_golden(args):
    from concurrent.futures import ThreadPoolExecutor
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    jobs = [(w, s) for w in workloads for s in GOLDEN_SEEDS]

    def job(ws):
        return ws, one_pass(ws[0], ws[1], clean_env())[1]

    with ThreadPoolExecutor(host_cpus()) as pool:
        results = dict(pool.map(job, jobs))
    for w in workloads:
        golden = {
            "workload": w,
            "default_seed": DEFAULT_SEED,
            "cells": results[(w, DEFAULT_SEED)],
            "digests": {str(s): {n: digest(fp) for n, fp
                                 in results[(w, s)].items()}
                        for s in GOLDEN_SEEDS},
        }
        with open(golden_path(w), "w") as f:
            json.dump(golden, f, indent=1, sort_keys=True)
            f.write("\n")
        log(f"wrote {golden_path(w)} ({len(GOLDEN_SEEDS)} seeds)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ladder", action="store_true")
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args()

    build()
    if args.write_golden:
        return write_golden(args)
    if args.workload is None:
        ap.error("--workload is required")
    if args.ladder:
        return run_ladder(args)
    golden = load_golden(args.workload)
    return run_trace(args, golden) if args.trace else run_e2e(args, golden)


if __name__ == "__main__":
    sys.exit(main())
