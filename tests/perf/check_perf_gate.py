#!/usr/bin/env python3
"""Exit-code contract of bench_perf's relative gate (--vs).

CI's perf-smoke job runs the naive reference first
(`bench_perf --smoke --naive --json N`), then gates the optimized build
against it (`bench_perf --smoke --vs N --min-ratio 2.0`). That second
command's exit code is the gate:

  0  this run's total cycles/sec >= min-ratio x the reference's
  1  below the floor
  2  usage error or unusable reference: missing file, not JSON, or a
     missing, zero or non-finite totalCyclesPerSec. The reference is
     checked before the sweep, so these exit before the first [perf]
     line.

Usage: check_perf_gate.py <bench_perf>
"""

import json
import os
import subprocess
import sys
import tempfile

FAILURES = []


def check(name, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print(f"[{status}] {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        FAILURES.append(name)


def run(bench, args, tmp):
    return subprocess.run([bench, "--smoke", "--no-json"] + args,
                          capture_output=True, text=True, cwd=tmp)


def point(total):
    """A well-formed perf point reporting @p total cycles/sec."""
    return {
        "version": 1, "label": "reference", "smoke": True, "sms": 2,
        "totalCyclesPerSec": total, "wallSec": 1.0, "simCycles": 1,
        "peakRssKb": 0,
        "schemes": {"Baseline": {"cyclesPerSec": total, "wallSec": 1.0,
                                 "peakRssKb": 0}},
    }


def write(tmp, name, text):
    path = os.path.join(tmp, name)
    with open(path, "w") as f:
        f.write(text)
    return path


def test_bad_references_exit_2_before_the_sweep(bench, tmp):
    no_total = point(1.0)
    del no_total["totalCyclesPerSec"]
    cases = {
        "missing file": os.path.join(tmp, "absent.json"),
        "non-JSON": write(tmp, "garbage.json", "not json\n"),
        "missing totalCyclesPerSec": write(
            tmp, "no_total.json",
            json.dumps({"bench": "perf", "point": no_total})),
        "zero totalCyclesPerSec": write(
            tmp, "zero.json",
            json.dumps({"bench": "perf", "point": point(0.0)})),
        # json.dumps cannot spell infinity; 1e999 overflows to it.
        "non-finite totalCyclesPerSec": write(
            tmp, "inf.json",
            json.dumps({"bench": "perf", "point": point(7.0)}).replace(
                '"totalCyclesPerSec": 7.0', '"totalCyclesPerSec": 1e999')),
    }
    for label, path in cases.items():
        proc = run(bench, ["--vs", path], tmp)
        check(f"{label} reference exits 2", proc.returncode == 2,
              f"rc={proc.returncode} stderr={proc.stderr[-300:]}")
        check(f"{label} reference exits before the sweep",
              "[perf]" not in proc.stderr, proc.stderr[-300:])
    proc = run(bench, ["--vs", cases["missing file"], "--min-ratio", "x2"],
               tmp)
    check("garbage --min-ratio exits 2 before the sweep",
          proc.returncode == 2 and "[perf]" not in proc.stderr,
          f"rc={proc.returncode} stderr={proc.stderr[-300:]}")


def test_gate_passes_and_fails(bench, tmp):
    # One simulated SM halves the sweep; the gate logic does not care,
    # and sanitizer builds run this driver too.
    tiny = write(tmp, "tiny.json",
                 json.dumps({"bench": "perf", "point": point(1.0)}))
    artifact = os.path.join(tmp, "BENCH_perf_run.json")
    proc = subprocess.run(
        [bench, "--smoke", "--sms", "1", "--vs", tiny, "--min-ratio", "2.0",
         "--json", artifact],
        capture_output=True, text=True, cwd=tmp)
    check("run above the floor exits 0", proc.returncode == 0,
          f"rc={proc.returncode} stderr={proc.stderr[-300:]}")
    # The artifact this run wrote is itself a usable reference; no run
    # can beat itself a million times over.
    proc = run(bench, ["--sms", "1", "--vs", artifact, "--min-ratio", "1e6"],
               tmp)
    check("run below the floor exits 1", proc.returncode == 1,
          f"rc={proc.returncode} stderr={proc.stderr[-300:]}")
    check("a failed gate names the floor", "need >=" in proc.stderr,
          proc.stderr[-300:])


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    bench = os.path.abspath(sys.argv[1])
    with tempfile.TemporaryDirectory(prefix="lbsim_perf_gate_") as tmp:
        test_bad_references_exit_2_before_the_sweep(bench, tmp)
        test_gate_passes_and_fails(bench, tmp)
    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed: {', '.join(FAILURES)}")
        return 1
    print("all perf-gate checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
