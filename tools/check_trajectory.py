#!/usr/bin/env python3
"""Validate accumulating bench records (BENCH_TRAJECTORY.json,
BENCH_SOAK.json).

Both files accumulate one entry per run and self-report whether the
run's contract held; this tool turns those self-reports into a CI
gate. The file kind is dispatched on the top-level "bench" key.

bench_all trajectory files (DESIGN.md §9):
  - every run's "end_to_end.sim_results_match" must be true (every
    e2e leg, on one host thread and on the thread pool, produced
    identical simulated results: equal per-cell digests of the full
    metrics registry, or six summary fields in runs recorded before
    the digest; runs recorded while the simulator had two scheduler
    engines also compared a "reference_serial" leg on the serial
    token engine);
  - every run's sweep_microbench rows must have "sim_cycles_match"
    true (simulated cycles per page equal across every trial of the
    sweep; runs recorded before the reference sweep was deleted
    compared the fast sweep against it instead);
  - runs with "host_threads" >= 2 must have
    "end_to_end.parallel_speedup" >= 1.15 (cross-cell scaling must not
    decay; a single-slot cpuset cannot scale cross-cell, so it is
    exempt);
  - among full-mode (non-quick) runs with an equal "host" fingerprint
    (nproc, affinity, CPU model, compiler, build type; runs without
    one form their own class), the newest run's
    "end_to_end.fast_parallel_seconds" must not exceed 1.25x the best
    earlier run of its class (host-noise tolerance; catches gross e2e
    regressions while the per-run sim_results_match catches
    correctness drift — absolute seconds from different hosts are
    not comparable);
  - runs must carry a non-empty "label" and at least one microbench
    row (catches truncated/hand-edited files).

soak files (DESIGN.md §13):
  - every strategy of every run must have "survived" true and
    "oracle_violations" == 0 (the machine outlived its fault schedule
    with zero temporal-safety violations);
  - every run's "oracle_e2e.sim_cycles_match" must be true (attaching
    the oracle did not perturb simulated time).

Exits non-zero with a diagnostic naming the offending run label.
Usage: check_trajectory.py FILE [FILE ...]
"""

import json
import sys


def fail(msg):
    print(f"check_trajectory: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trajectory_runs(runs):
    for i, run in enumerate(runs):
        label = run.get("label")
        if not isinstance(label, str) or not label:
            fail(f"run {i} has no label")
        rows = run.get("sweep_microbench")
        if not isinstance(rows, list) or not rows:
            fail(f'run "{label}" has no sweep_microbench rows')
        for row in rows:
            if row.get("sim_cycles_match") is not True:
                fail(
                    f'run "{label}" regime "{row.get("regime")}": '
                    "simulated sweep cycles diverged"
                )
        e2e = run.get("end_to_end", {})
        if e2e.get("sim_results_match") is not True:
            fail(
                f'run "{label}": simulated results diverged across '
                "host configurations"
            )
        # Cross-cell scaling must not decay — but only a multi-slot
        # cpuset can scale at all.
        threads = run.get("host_threads")
        par = e2e.get("parallel_speedup")
        if isinstance(threads, int) and threads >= 2:
            if not isinstance(par, (int, float)) or par < 1.15:
                fail(
                    f'run "{label}": parallel_speedup {par} below '
                    "the 1.15 floor despite "
                    f"{threads} host threads"
                )

    # End-to-end host-time regression: the newest full-mode run vs the
    # best earlier full-mode run on an equal host fingerprint, with
    # 1.25x host-noise headroom.
    def host_class(run):
        return json.dumps(run.get("host"), sort_keys=True)

    full = [
        r for r in runs
        if r.get("quick") is not True and isinstance(
            r.get("end_to_end", {}).get("fast_parallel_seconds"),
            (int, float))
    ]
    if full:
        newest = full[-1]
        prior = [
            r["end_to_end"]["fast_parallel_seconds"]
            for r in full[:-1]
            if host_class(r) == host_class(newest)
        ]
        latest = newest["end_to_end"]["fast_parallel_seconds"]
        if prior and latest > 1.25 * min(prior):
            fail(
                f'run "{newest.get("label")}": fast-parallel e2e '
                f"regressed to {latest:.3f}s (best prior full run on "
                f"the same host {min(prior):.3f}s, 1.25x budget)"
            )
    return "determinism contract held in all"


def check_soak_runs(runs):
    for i, run in enumerate(runs):
        label = run.get("label")
        if not isinstance(label, str) or not label:
            fail(f"soak run {i} has no label")
        strategies = run.get("strategies")
        if not isinstance(strategies, list) or not strategies:
            fail(f'soak run "{label}" has no strategies')
        for s in strategies:
            name = s.get("strategy", "?")
            if s.get("survived") is not True:
                fail(
                    f'soak run "{label}" strategy "{name}": did not '
                    "survive its fault schedule"
                )
            if s.get("oracle_violations") != 0:
                fail(
                    f'soak run "{label}" strategy "{name}": '
                    f'{s.get("oracle_violations")} temporal-safety '
                    "oracle violation(s)"
                )
        e2e = run.get("oracle_e2e", {})
        if e2e.get("sim_cycles_match") is not True:
            fail(
                f'soak run "{label}": attaching the oracle perturbed '
                "simulated time"
            )
    return "all strategies survived, zero oracle violations"


def check_file(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")

    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail(f'{path}: no "runs" array (not an accumulating '
             "bench file?)")

    kind = doc.get("bench", "bench_all")
    if kind == "soak":
        verdict = check_soak_runs(runs)
    else:
        verdict = check_trajectory_runs(runs)
    print(f"check_trajectory: OK: {path}: {len(runs)} run(s), "
          f"{verdict}")


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    for path in sys.argv[1:]:
        check_file(path)


if __name__ == "__main__":
    main()
