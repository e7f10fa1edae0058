#!/usr/bin/env python3
"""Fixture tests for check_trajectory.py.

Each JSON file in tools/trajectory_fixtures/ is a small trajectory
document with an "expect" key: "ok" when the checker must accept it,
or "fail: <text>" when it must reject it with <text> in the
diagnostic. check_trajectory.py ignores the key.

Usage: test_check_trajectory.py   (exits non-zero on any mismatch)
"""

import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKER = os.path.join(HERE, "check_trajectory.py")
FIXTURES = os.path.join(HERE, "trajectory_fixtures")


def run_fixture(path):
    with open(path) as f:
        expect = json.load(f)["expect"]
    proc = subprocess.run([sys.executable, CHECKER, path],
                          capture_output=True, text=True)
    out = proc.stdout + proc.stderr
    if expect == "ok":
        return proc.returncode == 0, out
    needle = expect.split(":", 1)[1].strip()
    return proc.returncode != 0 and needle in out, out


def main():
    paths = sorted(glob.glob(os.path.join(FIXTURES, "*.json")))
    if not paths:
        print("test_check_trajectory: no fixtures found", file=sys.stderr)
        return 1
    failed = 0
    for path in paths:
        ok, out = run_fixture(path)
        name = os.path.basename(path)
        print(f"test_check_trajectory: {name:32} "
              f"{'as expected' if ok else 'UNEXPECTED'}")
        if not ok:
            print(out, file=sys.stderr)
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
