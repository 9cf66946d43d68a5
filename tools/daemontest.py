#!/usr/bin/env python3
"""Integration checks for the sdspd compile service (docs/SERVICE.md).

Run as:  daemontest.py SDSPC SDSPD

Four suites, each against a freshly started daemon on a scratch socket:

  equality      a matrix of invocations (kernels, emit modes, stdin
                source, diagnostics, file outputs) run locally and
                through `sdspc --remote` must match byte for byte on
                stdout, stderr, and exit code;
  compute-once  two concurrent clients compiling the same kernel share
                the daemon's store: the shutdown metrics report
                cache hits, i.e. the second request replayed the
                first's artifacts instead of recomputing;
  accept-fault  with daemon:accept:fail@1 armed, the first client gets
                a transport failure (exit 2) and a diagnostic, the
                second is served normally, and the daemon's drain
                reports exactly one drop;
  persistence   a --store-dir daemon is stopped and restarted: the
                second incarnation answers every cacheable pass from
                the disk store (store.disk.hits > 0, writes == 0) with
                byte-identical client output.

With the cache disabled (SDSP_DISABLE_ARTIFACT_CACHE not empty or "0",
as the session reads it) compute-once and persistence instead assert
cache.hits, store.disk.hits and store.disk.writes all 0.

Exits nonzero with a diagnostic on the first violated invariant.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading


def fail(msg):
    sys.stderr.write("daemontest: FAIL: %s\n" % msg)
    sys.exit(1)


CACHE_OFF = os.environ.get("SDSP_DISABLE_ARTIFACT_CACHE", "") not in ("", "0")


def expect_cache_off(counters, who):
    for name in ("cache.hits", "store.disk.hits", "store.disk.writes"):
        if counters.get(name, 0):
            fail("%s: %s is %d with the cache disabled"
                 % (who, name, counters[name]))


class Daemon:
    """One sdspd on a scratch socket; a context manager that always
    tears the process down."""

    def __init__(self, sdspd, sock, *extra):
        self.proc = subprocess.Popen(
            [sdspd, "--socket=" + sock, *extra],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.sock = sock
        # The readiness line is the connect barrier: the socket is bound
        # and listening before it is printed.
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.proc.kill()
            fail("daemon never became ready (got %r)" % line)

    def stop(self, expect_drops=0, sig=signal.SIGTERM):
        if self.proc.poll() is None and sig is not None:
            self.proc.send_signal(sig)
        try:
            _, err = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            fail("daemon did not drain within 60s")
        if self.proc.returncode != 0:
            fail("daemon exited %d: %s" % (self.proc.returncode, err))
        if "(%d dropped)" % expect_drops not in err:
            fail("daemon drain line %r does not report %d drops"
                 % (err.strip(), expect_drops))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def run(cmd, stdin_text=None, cwd=None):
    p = subprocess.run(cmd, input=stdin_text, capture_output=True,
                       text=True, timeout=120, cwd=cwd)
    return p.returncode, p.stdout, p.stderr


def check_equality(sdspc, sdspd, scratch):
    matrix = [
        (["-k", "loop7", "--verify"], None),
        (["-k", "l2", "--emit=timeline"], None),
        (["-k", "loop3", "--emit=c", "--opt"], None),
        (["-k", "loop5", "--emit=rate", "--rate-engine=enumerate"], None),
        (["-k", "loop9", "--scp=4", "--pipelines=2"], None),
        (["-k", "loop1", "--run=4", "--seed=7"], None),
        (["-k", "nosuchkernel"], None),          # Diagnostics, exit 1.
        (["--emit=rate", "-"],                    # Source on stdin.
         "do i { y = x[i] + x[i-1]; out y; }"),
        (["--badflag"], None),                    # Usage error, exit 1.
    ]
    sock = os.path.join(scratch, "eq.sock")
    with Daemon(sdspd, sock) as d:
        for args, stdin_text in matrix:
            lrc, lout, lerr = run([sdspc, *args], stdin_text)
            rrc, rout, rerr = run([sdspc, "--remote=" + sock, *args],
                                  stdin_text)
            if (lrc, lout, lerr) != (rrc, rout, rerr):
                fail("remote output diverges for %s:\n"
                     "  local  exit=%d\n  remote exit=%d\n"
                     "  stdout diff: %r vs %r\n  stderr diff: %r vs %r"
                     % (args, lrc, rrc, lout[:200], rout[:200],
                        lerr[:200], rerr[:200]))

        # File outputs compose with --remote: the daemon captures them
        # server-side and the client writes them locally.
        trace = os.path.join(scratch, "remote_trace.json")
        rc, _, err = run([sdspc, "--remote=" + sock, "-k", "loop7",
                          "--trace=" + trace])
        if rc != 0:
            fail("remote --trace run exited %d: %s" % (rc, err))
        with open(trace) as f:
            if "traceEvents" not in json.load(f):
                fail("remote --trace did not produce a trace capture")

        # Host-only flags are rejected per request, not silently obeyed.
        rc, _, err = run([sdspc, "--remote=" + sock, "-k", "loop1",
                          "--store-dir=" + scratch])
        if rc != 1 or "daemon owns the store" not in err:
            fail("remote --store-dir was not rejected (exit %d: %s)"
                 % (rc, err))
        d.stop()


def check_compute_once(sdspc, sdspd, scratch):
    sock = os.path.join(scratch, "co.sock")
    metrics = os.path.join(scratch, "co_metrics.json")
    with Daemon(sdspd, sock, "-j", "2",
                "--metrics-json=" + metrics) as d:
        results = [None, None]

        def client(i):
            results[i] = run([sdspc, "--remote=" + sock, "-k", "loop7",
                              "--verify"])

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i, (rc, _, err) in enumerate(results):
            if rc != 0:
                fail("concurrent client %d exited %d: %s" % (i, rc, err))
        if results[0] != results[1]:
            fail("concurrent clients saw different outputs")
        d.stop()
    with open(metrics) as f:
        counters = json.load(f)["counters"]
    if counters.get("daemon.requests") != 2:
        fail("expected 2 requests, metrics say %s"
             % counters.get("daemon.requests"))
    # The second request replayed the first's artifacts from the shared
    # memory tier instead of recomputing.
    if CACHE_OFF:
        expect_cache_off(counters, "compute-once daemon")
    elif counters.get("cache.hits", 0) < 1:
        fail("no cache hits across concurrent requests: %s" % counters)


def check_accept_fault(sdspc, sdspd, scratch):
    sock = os.path.join(scratch, "af.sock")
    with Daemon(sdspd, sock, "--fault-spec=daemon:accept:fail@1",
                "--max-requests=2") as d:
        rc1, _, err1 = run([sdspc, "--remote=" + sock, "-k", "l1",
                            "--emit=rate"])
        if rc1 != 2:
            fail("dropped client exited %d, want 2 (%s)" % (rc1, err1))
        if "sdspc: remote:" not in err1:
            fail("dropped client printed no transport diagnostic: %r"
                 % err1)
        rc2, out2, err2 = run([sdspc, "--remote=" + sock, "-k", "l1",
                               "--emit=rate"])
        if rc2 != 0:
            fail("post-fault client exited %d: %s" % (rc2, err2))
        if not out2:
            fail("post-fault client produced no output")
        # --max-requests=2 already stops the daemon; just reap it.
        d.stop(expect_drops=1, sig=None)


def check_persistence(sdspc, sdspd, scratch):
    store = os.path.join(scratch, "store")
    sock = os.path.join(scratch, "ps.sock")
    m1 = os.path.join(scratch, "ps_m1.json")
    m2 = os.path.join(scratch, "ps_m2.json")
    args = ["-k", "loop7", "--verify"]

    with Daemon(sdspd, sock, "--store-dir=" + store,
                "--metrics-json=" + m1) as d:
        rc, out_cold, err_cold = run([sdspc, "--remote=" + sock, *args])
        if rc != 0:
            fail("cold store run exited %d: %s" % (rc, err_cold))
        d.stop()
    with open(m1) as f:
        c1 = json.load(f)["counters"]
    if CACHE_OFF:
        expect_cache_off(c1, "cold daemon")
    elif c1.get("store.disk.writes", 0) < 1:
        fail("cold daemon wrote nothing to the store: %s" % c1)

    # The restarted daemon has an empty memory tier; only the disk
    # store can answer without recomputing.
    with Daemon(sdspd, sock, "--store-dir=" + store,
                "--metrics-json=" + m2) as d:
        rc, out_warm, err_warm = run([sdspc, "--remote=" + sock, *args])
        if rc != 0:
            fail("warm store run exited %d: %s" % (rc, err_warm))
        d.stop()
    if (out_warm, err_warm) != (out_cold, err_cold):
        fail("warm-restart output differs from cold output")
    with open(m2) as f:
        c2 = json.load(f)["counters"]
    if CACHE_OFF:
        expect_cache_off(c2, "restarted daemon")
    elif c2.get("store.disk.hits", 0) < 1:
        fail("restarted daemon served nothing from disk: %s" % c2)
    if c2.get("store.disk.writes", 0) != 0:
        fail("restarted daemon recomputed and rewrote objects: %s" % c2)
    if c2.get("store.disk.corrupt", 0) != 0:
        fail("restarted daemon rejected objects as corrupt: %s" % c2)


def main():
    if len(sys.argv) != 3:
        fail("usage: daemontest.py SDSPC SDSPD")
    sdspc, sdspd = sys.argv[1], sys.argv[2]
    # Sockets live in a short mkdtemp path: sun_path caps out around
    # 108 bytes, which deep build trees can exceed.
    scratch = tempfile.mkdtemp(prefix="sdspd-test-")
    try:
        check_equality(sdspc, sdspd, scratch)
        check_compute_once(sdspc, sdspd, scratch)
        check_accept_fault(sdspc, sdspd, scratch)
        check_persistence(sdspc, sdspd, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("daemontest: all checks passed")


if __name__ == "__main__":
    main()
