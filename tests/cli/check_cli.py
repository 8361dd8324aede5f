#!/usr/bin/env python3
"""Exit-code contract tests for the lbsim command-line tools.

The exit codes are API: scripts and CI jobs branch on them, so they are
pinned here end-to-end against the real binaries.

  lbsim_cli:     0 ok, 1 usage error (unknown option), 3 watchdog trip
                 (with a parseable JSON hang report next to it)
  lbsim_submit:  0 ok, 2 usage/connect errors, 4 shed by the daemon

Usage: check_cli.py <lbsim_cli> <lbsimd> <lbsim_submit>
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

FAILURES = []


def check(name, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print(f"[{status}] {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        FAILURES.append(name)


def run(cmd, **kwargs):
    return subprocess.run(cmd, capture_output=True, text=True, **kwargs)


def test_cli_hang_exit_code(cli, tmp):
    """A wedged run exits 3 and writes a parseable JSON hang report."""
    plan = os.path.join(tmp, "wedge.fault")
    with open(plan, "w") as f:
        # An interconnect wedge from cycle 0: every response is delayed
        # past the cycle budget, so the watchdog must trip.
        f.write("fault=icnt-delay,0,1000000000,1000000000\n")
    report = os.path.join(tmp, "hang.json")
    proc = run([
        cli, "--app", "GA", "--scheme", "baseline", "--sms", "1",
        "--warmup", "0", "--cycles", "120000", "--timeout-cycles", "8000",
        "--no-cache", "--fault-plan", plan, "--hang-report", report,
    ])
    check("cli wedged run exits 3", proc.returncode == 3,
          f"rc={proc.returncode} stderr={proc.stderr[-400:]}")
    try:
        with open(report) as f:
            doc = json.load(f)
        check("hang report parses as JSON", True)
        check("hang report names the trip",
              "watchdog" in json.dumps(doc).lower(), json.dumps(doc)[:200])
    except (OSError, ValueError) as e:
        check("hang report parses as JSON", False, str(e))


def test_cli_ok_exit_code(cli, tmp):
    """A healthy smoke run exits 0."""
    proc = run([
        cli, "--app", "S2", "--scheme", "baseline", "--sms", "1",
        "--warmup", "20000", "--cycles", "30000", "--no-cache", "--csv",
    ])
    check("cli healthy run exits 0", proc.returncode == 0,
          f"rc={proc.returncode} stderr={proc.stderr[-400:]}")


def test_cli_rejects_unknown_options(cli):
    """A retired or misspelled option is a usage error, never ignored."""
    base = [cli, "--app", "S2", "--scheme", "baseline", "--sms", "1",
            "--warmup", "0", "--no-cache"]
    # The retired flag is spelled in two pieces so that a tree-wide
    # grep for it only finds real uses.
    retired = "--sm-" "threads"
    for bad, value in ((retired, "2"), ("--cylces", "1000")):
        proc = run(base + [bad, value])
        check(f"cli {bad} exits 1", proc.returncode == 1,
              f"rc={proc.returncode} stderr={proc.stderr[-200:]}")
        check(f"cli {bad} is named on stderr", bad in proc.stderr,
              proc.stderr[-200:])


def test_submit_usage_and_connect_errors(submit, tmp):
    proc = run([submit, "--socket", os.path.join(tmp, "x.sock")])
    check("submit without --schemes exits 2", proc.returncode == 2,
          f"rc={proc.returncode}")
    proc = run([
        submit, "--socket", os.path.join(tmp, "nonexistent.sock"),
        "--schemes", "baseline", "--apps", "S2", "--smoke",
    ])
    check("submit to a dead socket exits 2", proc.returncode == 2,
          f"rc={proc.returncode} stderr={proc.stderr[-200:]}")


def test_submit_shed_exit_code(daemon, submit, tmp):
    """A shed submission exits 4, distinct from failure and hang."""
    sock = os.path.join(tmp, "d.sock")
    log = open(os.path.join(tmp, "daemon.log"), "w")
    # --queue 0: the daemon sheds every submission as queue-full.
    proc = subprocess.Popen(
        [daemon, "--socket", sock, "--queue", "0",
         "--plans-journal", "none"],
        stdout=log, stderr=log, cwd=tmp)
    try:
        for _ in range(100):
            if os.path.exists(sock):
                break
            time.sleep(0.05)
        check("daemon came up", os.path.exists(sock))
        shed = run([
            submit, "--socket", sock, "--client", "exit-code-test",
            "--schemes", "baseline", "--apps", "S2", "--smoke",
        ])
        check("shed submission exits 4", shed.returncode == 4,
              f"rc={shed.returncode} stderr={shed.stderr[-200:]}")
        check("shed reason reaches the client",
              "queue-full" in shed.stderr + shed.stdout,
              (shed.stderr + shed.stdout)[-200:])
    finally:
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=30)
        log.close()
        check("daemon drains to exit 0 on SIGTERM", rc == 0, f"rc={rc}")


def main():
    if len(sys.argv) != 4:
        print(__doc__)
        return 2
    # The daemon runs with cwd inside the sandbox: absolutize first.
    cli, daemon, submit = (os.path.abspath(p) for p in sys.argv[1:4])
    with tempfile.TemporaryDirectory(prefix="lbsim_cli_test_") as tmp:
        # Keep every artifact (and the memo cache) inside the sandbox.
        os.environ["LBSIM_CACHE_PATH"] = os.path.join(tmp, "cache.journal")
        test_cli_ok_exit_code(cli, tmp)
        test_cli_hang_exit_code(cli, tmp)
        test_cli_rejects_unknown_options(cli)
        test_submit_usage_and_connect_errors(submit, tmp)
        test_submit_shed_exit_code(daemon, submit, tmp)
    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed: {', '.join(FAILURES)}")
        return 1
    print("all exit-code checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
