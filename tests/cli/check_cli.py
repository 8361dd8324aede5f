#!/usr/bin/env python3
"""Exit-code contract tests for the lbsim command-line tools.

The exit codes are API: scripts and CI jobs branch on them, so they are
pinned here end-to-end against the real binaries.

  lbsim_cli:     0 ok, 1 usage error (unknown option or a bad numeric
                 value), 3 watchdog trip (with a parseable JSON hang
                 report next to it)
  lbsim_submit:  0 ok, 2 usage/connect/protocol errors, 4 shed by the
                 daemon
  lbsimd:        2 usage error
  lbsim_figures: 0 ok, 1 artifact not written, 2 usage error (unknown
                 option or id, --json <path> with --fig all)

It also pins LBTRACE=1: the controller trace goes to stderr, names a
known rule on every line, and leaves stdout byte-identical.

Usage: check_cli.py <lbsim_cli> <lbsimd> <lbsim_submit> <lbsim_figures>
"""

import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
import traceback

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


# The controller decisions' reasons (reasonName in lb/throttle_logic.cpp).
# "Monitoring" windows are not decisions and are never traced.
TRACE_REASONS = {
    "Proactive", "TransferWait", "Settle", "Rise", "Recovery", "Floor",
    "Overshoot", "Degraded", "FirstFall", "StaleReference", "Stable",
    "StepBack", "SlotFreed",
}


def test_lbtrace_names_the_rule(cli, tmp):
    """LBTRACE=1 prints one stderr line per controller decision on every
    SM, naming its rule, and changes nothing on stdout."""
    cmd = [cli, "--app", "PF", "--scheme", "linebacker", "--no-cache"]
    plain = run(cmd, cwd=tmp)
    traced = run(cmd, cwd=tmp, env=dict(os.environ, LBTRACE="1"))
    check("cli traced and plain runs exit 0",
          plain.returncode == 0 and traced.returncode == 0,
          f"rc={plain.returncode}/{traced.returncode}")
    check("LBTRACE leaves stdout byte-identical",
          plain.stdout == traced.stdout)
    check("no trace without LBTRACE", "lbtrace" not in plain.stderr,
          plain.stderr[-200:])
    lines = [line for line in traced.stderr.splitlines()
             if line.startswith("lbtrace ")]
    fields = [dict(re.findall(r"(\w+)=(\S+)", line)) for line in lines]
    check("LBTRACE prints controller decisions", len(lines) > 0,
          traced.stderr[-200:])
    check("LBTRACE covers every SM",
          {f.get("sm") for f in fields} == {"0", "1"},
          str(sorted({str(f.get("sm")) for f in fields})))
    unknown = [line for line, f in zip(lines, fields)
               if f.get("reason") not in TRACE_REASONS]
    check("every trace line names a known reason", not unknown,
          "; ".join(unknown[:3]))


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


def test_bad_numeric_values(cli, submit):
    """A numeric option takes a whole number in range, or is refused
    up front with its name on stderr; it never falls back to a default
    or reaches the simulator."""
    base = [cli, "--app", "KM", "--scheme", "baseline", "--warmup", "0",
            "--cycles", "1000", "--no-cache"]
    for option, value in (("--l1-kb", "0"), ("--sms", "abc")):
        proc = run(base + [option, value])
        check(f"cli {option} {value} exits 1", proc.returncode == 1,
              f"rc={proc.returncode} stderr={proc.stderr[-200:]}")
        check(f"cli {option} {value} is named on stderr",
              option in proc.stderr, proc.stderr[-200:])
    # --direct would otherwise run the plan in-process and exit 0.
    proc = run([submit, "--direct", "--schemes", "baseline", "--apps",
                "S2", "--smoke", "--sms", "abc"])
    check("submit --sms abc exits 2", proc.returncode == 2,
          f"rc={proc.returncode} stderr={proc.stderr[-200:]}")
    check("submit --sms abc is named on stderr", "--sms" in proc.stderr,
          proc.stderr[-200:])


def test_front_ends_refuse_unlisted_options(daemon, submit, figures, tmp):
    """A misspelled option is a usage error in every front end, never a
    silently ignored argument."""
    proc = run([submit, "--direct", "--apps", "S2", "--schemes",
                "baseline", "--smok", "--sms", "1", "--cycles", "2000",
                "--warmup", "0"])
    check("submit --smok exits 2", proc.returncode == 2,
          f"rc={proc.returncode} stderr={proc.stderr[-200:]}")
    try:
        # A daemon that accepted the typo would listen until killed.
        proc = run([daemon, "--wrokers", "4", "--socket",
                    os.path.join(tmp, "typo.sock"), "--plans-journal",
                    "none"], cwd=tmp, timeout=20)
        check("lbsimd --wrokers exits 2", proc.returncode == 2,
              f"rc={proc.returncode} stderr={proc.stderr[-200:]}")
    except subprocess.TimeoutExpired:
        check("lbsimd --wrokers exits 2", False, "daemon started")
    proc = run([figures, "--fig", "table1_config", "--smok"], cwd=tmp)
    check("figures --smok exits 2", proc.returncode == 2,
          f"rc={proc.returncode} stderr={proc.stderr[-200:]}")


def test_figures_exit_codes(figures, tmp):
    """lbsim_figures: 2 for a usage error, 1 for an artifact it cannot
    write, 0 with a parseable artifact otherwise."""
    proc = run([figures, "--fig", "fig99_nope"], cwd=tmp)
    check("figures unknown id exits 2", proc.returncode == 2,
          f"rc={proc.returncode} stderr={proc.stderr[-200:]}")
    proc = run([figures, "--fig", "all", "--json", "x.json"], cwd=tmp)
    check("figures --fig all --json <path> exits 2", proc.returncode == 2,
          f"rc={proc.returncode} stderr={proc.stderr[-200:]}")
    path = os.path.join(tmp, "t.json")
    proc = run([figures, "--fig", "table1_config", "--json", path],
               cwd=tmp)
    check("figures table1_config exits 0", proc.returncode == 0,
          f"rc={proc.returncode} stderr={proc.stderr[-200:]}")
    try:
        with open(path) as f:
            bench = json.load(f).get("bench")
        check("figures artifact names its bench", bench == "table1_config",
              str(bench))
    except (OSError, ValueError) as e:
        check("figures artifact names its bench", False, str(e))
    proc = run([figures, "--fig", "table1_config", "--json",
                os.path.join(tmp, "missing", "t.json")], cwd=tmp)
    check("figures unwritable artifact exits 1", proc.returncode == 1,
          f"rc={proc.returncode} stderr={proc.stderr[-200:]}")


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
        # Checked before connecting: the live daemon would shed it (4).
        bad = run([
            submit, "--socket", sock, "--priority", "abc",
            "--schemes", "baseline", "--apps", "S2", "--smoke",
        ])
        check("submit --priority abc exits 2", bad.returncode == 2,
              f"rc={bad.returncode} stderr={bad.stderr[-200:]}")
        check("submit --priority abc is named on stderr",
              "--priority" in bad.stderr, bad.stderr[-200:])
    finally:
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=30)
        log.close()
        check("daemon drains to exit 0 on SIGTERM", rc == 0, f"rc={rc}")


def serve_frames(server, frames):
    """Fake lbsimd: take one submission, answer with @p frames."""
    conn, _ = server.accept()
    with conn:
        length = struct.unpack("<I", conn.recv(4, socket.MSG_WAITALL))[0]
        conn.recv(length, socket.MSG_WAITALL)
        for frame in frames:
            data = frame.encode()
            try:
                conn.sendall(struct.pack("<I", len(data)) + data)
            except OSError:
                return  # The client already gave up on the stream.


def test_submit_refuses_bad_frame_counts(submit, tmp):
    """A count from the daemon that is not a whole number in range is a
    protocol error (exit 2). The client once sized its result table
    from these values unchecked, aborting on std::bad_alloc or
    inventing failed cells."""
    cell = ('{"type":"cell","index":%s,"app":"S2","scheme":"baseline",'
            '"variant":"","ok":true,"outcome":"ok","error":"",'
            '"metrics":"","hangReport":""}')
    accepted = '{"type":"accepted","planId":"p1","cells":%s}'
    done = '{"type":"done","planId":"p1","completed":1,"failed":0}'
    cases = {
        "accepted cells 1e12": [accepted % "1e12", done],
        "cell index 1e15": [accepted % "1", cell % "1e15", done],
        "cell index 2.5": [accepted % "1", cell % "2.5", done],
    }
    for label, frames in cases.items():
        sock = os.path.join(tmp, "fake.sock")
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(sock)
        server.listen(1)
        server.settimeout(20)
        thread = threading.Thread(target=serve_frames,
                                  args=(server, frames), daemon=True)
        thread.start()
        try:
            proc = run([submit, "--socket", sock, "--schemes", "baseline",
                        "--apps", "S2", "--smoke"], timeout=20)
            check(f"submit {label} exits 2", proc.returncode == 2,
                  f"rc={proc.returncode} stderr={proc.stderr[-200:]}")
        except subprocess.TimeoutExpired:
            check(f"submit {label} exits 2", False, "client hung")
        thread.join(timeout=20)
        server.close()
        os.unlink(sock)


def main():
    if len(sys.argv) != 5:
        print(__doc__)
        return 2
    # The daemon runs with cwd inside the sandbox: absolutize first.
    cli, daemon, submit, figures = (os.path.abspath(p)
                                    for p in sys.argv[1:5])
    with tempfile.TemporaryDirectory(prefix="lbsim_cli_test_") as tmp:
        # Keep every artifact (and the memo cache) inside the sandbox.
        os.environ["LBSIM_CACHE_PATH"] = os.path.join(tmp, "cache.journal")
        checks = [
            (test_cli_ok_exit_code, (cli, tmp)),
            (test_cli_hang_exit_code, (cli, tmp)),
            (test_cli_rejects_unknown_options, (cli,)),
            (test_lbtrace_names_the_rule, (cli, tmp)),
            (test_bad_numeric_values, (cli, submit)),
            (test_submit_usage_and_connect_errors, (submit, tmp)),
            (test_front_ends_refuse_unlisted_options,
             (daemon, submit, figures, tmp)),
            (test_figures_exit_codes, (figures, tmp)),
            (test_submit_shed_exit_code, (daemon, submit, tmp)),
            (test_submit_refuses_bad_frame_counts, (submit, tmp)),
        ]
        for test, args in checks:
            # An uncaught exception fails only its own check, by name and
            # with its traceback; the remaining checks still run.
            try:
                test(*args)
            except Exception:
                check(test.__name__, False, "raised\n" +
                      traceback.format_exc())
    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed: {', '.join(FAILURES)}")
        return 1
    print("all exit-code checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
