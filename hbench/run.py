#!/usr/bin/env python3
"""The hoiho benchmark: one command, a seed, three workloads.

    python3 hbench/run.py --workload model-build --seed 1 --seconds 36 --trace 0
    python3 -m unittest hbench/test_run.py      # the benchmark's own tests

Workloads (why each exists is recorded in BENCHMARK.json). Every pass
of every workload starts with `save-model` and `relearn`, so each one
reports every end-to-end metric:
  model-build  save-model over a quarter-scale ipv4-aug20 corpus, relearn
               over one migration-only drift epoch, bulk `apply` of 200K
               unseen hostnames, one-shot single-hostname `apply` calls
  lookup-hot   a fresh daemon; GET /geolocate over a hot set: open-loop
               rate ladder, then a pipelined closed-loop saturation phase
  batch-cold   a fresh daemon; POST /batch of 256 hostnames, each sent
               once per daemon, closed loop

The end-to-end numbers come from the real `hoiho` binary run as child
processes with no tracing. `--trace 1` runs the same workload and, after
each pass, replays its CLI steps in fresh processes through each layer's
public functions (`probe replay`, once with spans and once without); it
prints the per-layer metrics instead. The layer rows plus the
unattributed row add up to the run's untraced time for those steps
(learn_s + relearn_s + the bulk apply's wall time or the daemon's
setup_s); rows that exceed it by more than ROW_TOL fail the run's
accounting check.

Every answer is checked against the in-process reference
(`Serve.geolocate_uncached_conf` on the same decoded model) and the
relearned model against a batch learn of the final corpus; each mismatch
is a failed operation. Inputs are built from the seed by `probe gen` and
cached under hbench/.cache, keyed by seed and the probe binary, which
holds the generator parameters; models and answers are never cached.

The last line of stdout is the JSON result; the lines before it name
every metric with its unit and the workload's wall time. Exit status is
non-zero, without a result line, when the program cannot be built or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOIHO = os.path.join(ROOT, "_build", "default", "bin", "hoiho_cli.exe")
PROBE = os.path.join(ROOT, "_build", "default", "hbench", "probe.exe")
WORK = os.path.join(HERE, ".work", "run-%d" % os.getpid())  # removed on exit

CONNS = min(2, os.cpu_count() or 1)  # connections == daemon --jobs <= nproc
BATCH = 256  # hostnames per POST /batch body
REF_RATE = 2000  # lookup-hot reference rate for p50/p99, req/s
# lookup-hot ladder, per pass: (rate req/s, seconds). The reference
# step, whose latencies give p50_ms, is the longest. A pipelined
# closed-loop saturation phase of SATURATION_S follows.
LADDER = [(1000, 0.1), (REF_RATE, 1.0), (4000, 0.1), (6000, 0.1), (8000, 0.1),
          (10000, 0.1), (12000, 0.1)]
SATURATION_S = 0.3
COLD_BATCHES = 390  # batch-cold requests per pass: ~100K names, each once per daemon
P99_LIMIT_MS = 10.0  # max_rps: p99 from due time must stay under this
LATE_LIMIT_MS = 5.0  # max_rps: generator lateness in a step's last quarter
SETUP_SPAWNS = 15  # extra daemon spawns per run timed for setup_s
ONE_SHOTS = 20  # single-hostname `hoiho apply` calls per model-build pass
# Traced runs: the share of the end-to-end time by which the layer rows
# may exceed it. The replay runs next to the steps, not inside them, so
# host noise can push the unattributed row a little below zero; rows
# beyond this count time the steps do not spend.
ROW_TOL = 0.25

END_TO_END = [("setup_s", "s"), ("learn_s", "s"), ("relearn_s", "s"),
              ("hosts_per_s", "1/s"), ("p50_ms", "ms"), ("peak_rss_mb", "MB")]


class Fail(Exception):
    """The benchmark cannot produce a result (build or harness error)."""


# --- statistics (unit-tested in test_run.py) ---

def percentile(xs, q):
    """q-th percentile (0..100) with linear interpolation between ranks."""
    if not xs:
        raise ValueError("percentile of an empty sample")
    s = sorted(xs)
    k = (len(s) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def open_loop_stats(records):
    """Accounting for one open-loop step.

    records: (due, sent, done, ok) in ms; done < 0 means the request
    never completed. Latency runs from the due time, so a stall also
    charges the requests queued behind it; lateness is sent - due.
    Returns dict(n, failed, latencies, late_p99, late_tail_max).
    """
    lat = [d - due for due, _, d, ok in records if ok and d >= 0]
    late = [s - due for due, s, _, _ in records if s >= 0]
    tail = late[len(late) * 3 // 4:]
    return {
        "n": len(records),
        "failed": len(records) - len(lat),
        "latencies": lat,
        "late_p99": percentile(late, 99) if late else float("inf"),
        "late_tail_max": max(tail) if tail else float("inf"),
    }


def parse_metrics(text):
    """OpenMetrics exposition -> {sample name: value} (labels kept)."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            continue
    return out


def metrics_delta(before, after, name):
    """Growth of counter `name` (dotted registry name) between scrapes."""
    key = "hoiho_" + name.replace(".", "_") + "_total"
    return after.get(key, 0.0) - before.get(key, 0.0)


def layer_rows(spans):
    """Per-layer self time from a span list, in seconds by span name.

    spans: dicts with name, id, parent, t0, t1 (ms); roots named step.*
    stand for the CLI steps and are not layers. A span's self time is
    its duration minus the union of its children's intervals clipped to
    it, so overlapping or overhanging children never drive a row below
    zero and nested layers are not counted twice.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def covered(s):
        ivs = sorted((max(c["t0"], s["t0"]), min(c["t1"], s["t1"]))
                     for c in children.get(s["id"], []))
        total, end = 0.0, s["t0"]
        for a, b in ivs:
            a = max(a, end)
            if b > a:
                total += b - a
                end = b
        return total

    rows = {}
    for s in spans:
        if not s["name"].startswith("step."):
            own = max(0.0, (s["t1"] - s["t0"]) - covered(s)) / 1000.0
            rows[s["name"]] = rows.get(s["name"], 0.0) + own
    return rows


def unattributed(total, parts):
    """End-to-end time no layer row accounts for, signed: below zero
    when the rows took longer than the end-to-end time they divide."""
    return total - sum(parts)


def accounting_ok(total, residual):
    """The traced run's check on an unattributed row: it may dip below
    zero by host noise, by at most ROW_TOL of the end-to-end time."""
    return residual >= -ROW_TOL * total


# --- processes ---

CHILDREN = []


def hwm_mb(pid):
    """Peak RSS of a live process since its exec (VmHWM), in MB; None
    once it has exited."""
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


class PeakRss(threading.Thread):
    """Polls a child's VmHWM until it exits. The child's ru_maxrss would
    not do: Linux folds the forking parent's resident memory into it."""

    def __init__(self, pid):
        super().__init__(daemon=True)
        self.pid, self.mb, self.done = pid, 0.0, threading.Event()
        self.start()

    def run(self):
        while not self.done.is_set():
            mb = hwm_mb(self.pid)
            if mb is None:
                return
            self.mb = max(self.mb, mb)
            self.done.wait(0.005)

    def stop(self):
        self.done.set()
        self.join()
        return self.mb


def spawn(args, watch=False, **kw):
    """Start a child; watch=True also tracks its peak RSS (see reap)."""
    p = subprocess.Popen(args, **kw)
    p.peak = PeakRss(p.pid) if watch else None
    CHILDREN.append(p)
    return p


def reap(p):
    """Wait for p; returns its peak RSS in MB when it was watched."""
    _, status = os.waitpid(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    CHILDREN.remove(p)
    return p.peak.stop() if p.peak else None


def stop_children():
    for p in list(CHILDREN):
        if p.poll() is None:
            p.kill()
        try:
            p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        CHILDREN.remove(p)


def run_timed(args, stdin=None):
    """Run to completion: (wall s, peak RSS MB, stdout text)."""
    with open(os.path.join(WORK, "stderr"), "w+b") as errf:
        t0 = time.perf_counter()
        p = spawn(args, watch=True, stdin=stdin, stdout=subprocess.PIPE, stderr=errf)
        out = p.stdout.read()
        rss = reap(p)
        wall = time.perf_counter() - t0
        errf.seek(0)
        err = errf.read()
    if p.returncode != 0:
        raise Fail("%s exited %d: %s" % (os.path.basename(args[0]) + " " + args[1],
                                          p.returncode, err.decode(errors="replace")[-500:]))
    return wall, rss, out.decode(errors="replace")


def probe(*args):
    return run_timed([PROBE] + [str(a) for a in args])[2]


def build():
    try:
        r = subprocess.run(["dune", "build", "--root", ROOT, "./bin/hoiho_cli.exe",
                            "./hbench/probe.exe"], cwd=ROOT, capture_output=True,
                           text=True, timeout=850,
                           env=dict(os.environ, DUNE_CACHE="disabled"))
    except (OSError, subprocess.TimeoutExpired) as e:
        raise Fail("build: %s" % e)
    if r.returncode != 0 or not (os.path.exists(HOIHO) and os.path.exists(PROBE)):
        raise Fail("build failed:\n" + r.stderr[-2000:])


def inputs(seed):
    """Workload inputs for `seed`, generated once and cached."""
    h = hashlib.sha256()
    with open(PROBE, "rb") as f:
        h.update(f.read())
    d = os.path.join(HERE, ".cache", h.hexdigest()[:16], "seed-%d" % seed)
    if not os.path.exists(os.path.join(d, "done")):
        tmp = d + ".tmp-%d" % os.getpid()
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        probe("gen", seed, tmp)
        open(os.path.join(tmp, "done"), "w").close()
        shutil.rmtree(d, ignore_errors=True)
        os.rename(tmp, d)
    return d


def read_lines(path):
    with open(path) as f:
        return [l.rstrip("\n") for l in f if l.strip()]


def oracle(model, hosts, out):
    """Expected answers: {hostname: (describe, conf)} in input order."""
    probe("oracle", model, hosts, out)
    want = {}
    for line in read_lines(out):
        h, d, c = line.split("\t")
        want[h] = (d, c)
    return want


def answered_ratio(want):
    """Share of the oracle's hostnames that get a location."""
    return sum(1 for d, _ in want.values() if d != "-") / len(want)


def cli_line(h, ans):
    """`hoiho apply`'s output line for an oracle answer."""
    d, c = ans
    return "%-50s %s\t%s" % (h, "(no geolocation)" if d == "-" else d, c)


# --- model lifecycle steps shared by every workload ---

class Run:
    def __init__(self, args, d):
        self.args, self.d = args, d
        self.replays = []  # (traced, probe replay JSON), traced runs only
        self.attempted = 0
        self.failed = 0
        self.samples = {}  # metric -> list of per-pass values
        self.mean_of = {"learn_s", "relearn_s"}  # see value()
        self.diag = {}  # per-layer values measured during the run
        self.relearned_digest = None

    def path(self, name):
        return os.path.join(WORK, name)

    def add(self, metric, value):
        self.samples.setdefault(metric, []).append(value)

    def value(self, metric):
        """The run's value of a sampled metric (0 when never sampled):
        peak_rss_mb is the largest process, the metrics in mean_of the
        mean over passes, everything else the median over passes (or
        set-ups). A shared host can alternate between speed regimes for
        seconds at a time, and a figure taken from one short-lived
        process, such as a whole save-model or relearn, lands in one
        regime or the other, so over a handful of passes its median
        jumps between regimes while the mean moves smoothly; figures
        taken over thousands of requests are steadier except for the
        odd stalled pass, which the median ignores."""
        xs = self.samples.get(metric)
        if not xs:
            return 0.0
        if metric == "peak_rss_mb":
            return max(xs)
        return (statistics.mean if metric in self.mean_of else statistics.median)(xs)

    def op(self, ok, n=1):
        self.attempted += n
        if not ok:
            self.failed += n

    def learn_and_relearn(self, d):
        """save-model then relearn; returns the relearned model path and
        the two steps' peak RSS."""
        model, relearned = self.path("model.hoiho.json"), self.path("relearned.hoiho.json")
        for f in (model, relearned):
            if os.path.exists(f):
                os.remove(f)
        wall, learn_rss, _ = run_timed([HOIHO, "save-model", "-i",
                                        os.path.join(d, "corpus.itdk"), "-o", model])
        self.add("learn_s", wall)
        wall, relearn_rss, _ = run_timed([HOIHO, "relearn", "-i", os.path.join(d, "corpus.itdk"),
                                          "--model", model, "--events",
                                          os.path.join(d, "events.json"), "-o", relearned])
        self.add("relearn_s", wall)
        with open(relearned, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        if self.relearned_digest is None:
            self.relearned_digest = digest
            ok = probe("relearn-check", os.path.join(d, "corpus.itdk"),
                       os.path.join(d, "events.json"), relearned).startswith("relearn-check: equal")
            self.op(ok)
        else:
            # the relearned snapshot carries no timings: every pass of
            # the same inputs must write the same bytes
            self.op(digest == self.relearned_digest)
        self.diag["model_kb"] = os.path.getsize(model) / 1024.0
        return relearned, (learn_rss, relearn_rss)

    def replay_pair(self, i):
        """Traced runs, after each pass: its CLI steps replayed in fresh
        processes with spans and without, the order alternating between
        passes so that a drifting host favours neither."""
        bulk = int(self.args.workload == "model-build")
        for traced in ((1, 0) if i % 2 == 0 else (0, 1)):
            out = self.path("replay.json")
            probe("replay", self.d, WORK, out, bulk, traced)
            with open(out) as f:
                self.replays.append((traced, json.load(f)))


def passes(run, body):
    """Call body(i) for i = 0, 1, ... for --seconds, stopping once the
    window would end less than half a mean pass later. Each pass gives
    one sample of every metric it measures (see end_to_end)."""
    start = time.perf_counter()
    i = 0
    while True:
        body(i)
        if run.args.trace:
            run.replay_pair(i)
        i += 1
        now = time.perf_counter()
        if now + 0.5 * (now - start) / i >= start + run.args.seconds:
            return


# --- model-build ---

def model_build(run, d):
    # a pass's hosts_per_s is one bulk `apply` process and its p50_ms
    # twenty one-shots within a fraction of a second: like learn_s, each
    # lands in one host regime
    run.mean_of.update(("hosts_per_s", "p50_ms"))
    fresh_path = os.path.join(d, "fresh.txt")
    fresh = read_lines(fresh_path)
    hot = read_lines(os.path.join(d, "hot.txt"))
    ref = {}

    def one_pass(i):
        relearned, rss = run.learn_and_relearn(d)
        # peak_rss_mb: the largest of the three CLI steps
        for mb in rss:
            run.add("peak_rss_mb", mb)
        if i == 0:
            want = oracle(relearned, fresh_path, run.path("fresh.oracle"))
            ref["hot"] = oracle(relearned, os.path.join(d, "hot.txt"), run.path("hot.oracle"))
            ref["bulk"] = [cli_line(h, want[h]) for h in fresh]
            run.diag["serve.answered_ratio"] = answered_ratio(want)
        # bulk apply: time to the first answer line is set-up; the
        # whole process gives hostnames per second
        with open(fresh_path, "rb") as stdin:
            t0 = time.perf_counter()
            p = spawn([HOIHO, "apply", "--stats", "--model", relearned], watch=True,
                      stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            first = p.stdout.readline()
            t_first = time.perf_counter() - t0
            rest = p.stdout.read()
            err = p.stderr.read().decode(errors="replace")
            rss = reap(p)
            wall = time.perf_counter() - t0
        got = (first + rest).decode(errors="replace").splitlines()
        expected = ref["bulk"]
        bad = sum(1 for a, b in zip(got, expected) if a != b) + abs(len(got) - len(expected))
        run.attempted += len(expected)
        run.failed += min(bad, len(expected)) if p.returncode == 0 else len(expected)
        run.add("setup_s", t_first)
        run.add("apply_wall_s", wall)
        run.add("hosts_per_s", len(expected) / wall)
        run.add("peak_rss_mb", rss)
        for line in err.splitlines():
            if line.startswith("serve:") and "applied" in line:
                f = line.replace(",", "").split()
                applied, hits, evictions = int(f[1]), int(f[3]), int(f[8])
                run.diag["serve.cache_hit_ratio"] = hits / max(1, applied)
                run.diag["lru.evictions_per_host"] = evictions / max(1, applied)
        # one-shot lookups: a single-hostname `hoiho apply` per call
        lat = []
        for k in range(ONE_SHOTS):
            h = hot[(i * ONE_SHOTS + k) % len(hot)]
            wall, _, out = run_timed([HOIHO, "apply", "--model", relearned, h])
            run.op(out.rstrip("\n") == cli_line(h, ref["hot"][h]))
            lat.append(wall * 1000.0)
        run.add("p50_ms", percentile(lat, 50))
        run.add("p99_ms", percentile(lat, 99))

    passes(run, one_pass)


# --- daemon workloads ---

def http_get(port, path, timeout=5.0):
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(("GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
                   % path).encode())
        chunks = []
        while True:
            b = s.recv(65536)
            if not b:
                break
            chunks.append(b)
    raw = b"".join(chunks).decode(errors="replace")
    head, _, body = raw.partition("\r\n\r\n")
    return int(head.split()[1]), body


class Daemon:
    """`hoiho serve` on an ephemeral port; start() returns set-up seconds
    (spawn to the first 200 from /healthz)."""

    def __init__(self, model):
        self.model = model

    def start(self):
        t0 = time.perf_counter()
        self.p = spawn([HOIHO, "serve", "--model", self.model, "--jobs", str(CONNS),
                        "--port", "0"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = self.p.stdout.readline().decode()
        if " on 127.0.0.1:" not in line:
            raise Fail("serve did not start: %r" % line)
        self.port = int(line.split(" on 127.0.0.1:")[1].split()[0])
        while True:
            try:
                if http_get(self.port, "/healthz")[0] == 200:
                    return time.perf_counter() - t0
            except OSError:
                pass
            if time.perf_counter() - t0 > 30:
                raise Fail("serve never became healthy")
            time.sleep(0.0005)

    def metrics(self):
        status, body = http_get(self.port, "/metrics")
        if status != 200:
            raise Fail("/metrics answered %d" % status)
        return parse_metrics(body)

    def peak_mb(self):
        """The daemon's VmHWM so far."""
        mb = hwm_mb(self.p.pid)
        if mb is None:
            raise Fail("serve exited early")
        return mb

    def stop(self):
        self.p.send_signal(signal.SIGTERM)
        self.p.stdout.read()  # to EOF: the daemon has shut down
        self.p.stdout.close()
        reap(self.p)


def load_log(path):
    """probe load log -> list of (step, due, sent, done, ok)."""
    out = []
    with open(path) as f:
        for line in f:
            st, due, sent, done, ok = line.split()
            out.append((int(st), float(due), float(sent), float(done), ok == "1"))
    return out


def load_phase_diag(run, before, after, hostnames, requests):
    """Per-layer values from /metrics deltas over a load phase."""
    d = lambda n: metrics_delta(before, after, n)
    hits, misses = d("serve.cache_hits"), d("serve.cache_misses")
    run.diag["serve.cache_hit_ratio"] = hits / max(1.0, hits + misses)
    run.diag["lru.evictions_per_host"] = d("serve.cache_evictions") / max(1, hostnames)
    run.diag["net.batch_fill"] = d("net.batch_hostnames") / max(1.0, d("net.batches"))
    run.diag["net.shed_ratio"] = d("net.shed") / max(1, hostnames)
    run.diag["pool.jobs_per_request"] = d("pool.jobs_submitted") / max(1, requests)
    execs = d("rx.exec_calls")
    run.diag["rx.exec_calls"] = execs
    run.diag["rx.prefilter_skip_ratio"] = d("rx.prefilter_skips") / max(1.0, execs)


def setup_samples(run, model):
    """SETUP_SPAWNS timed daemon starts, each stopped again."""
    for _ in range(SETUP_SPAWNS):
        daemon = Daemon(model)
        run.add("setup_s", daemon.start())
        daemon.stop()


def lookup_hot(run, d):
    hot_oracle = run.path("hot.oracle")
    n_hot = len(read_lines(os.path.join(d, "hot.txt")))

    def one_pass(i):
        relearned, _ = run.learn_and_relearn(d)
        if i == 0:
            want = oracle(relearned, os.path.join(d, "hot.txt"), hot_oracle)
            run.diag["serve.answered_ratio"] = answered_ratio(want)
            setup_samples(run, relearned)
        daemon = Daemon(relearned)
        run.add("setup_s", daemon.start())
        # warm: every hot hostname once, so the ladder only ever hits
        probe("load", "closed", daemon.port, 1, 1, 60, n_hot, hot_oracle, 0,
              run.path("warm.log"))
        before = daemon.metrics()
        log = run.path("ladder.log")
        probe("load", "open", daemon.port, CONNS, hot_oracle,
              ",".join("%d:%g" % step for step in LADDER), log)
        recs = load_log(log)
        max_rps, unbroken = 0, True
        for k, (rate, _) in enumerate(LADDER):
            st = open_loop_stats([r[1:] for r in recs if r[0] == k])
            run.attempted += st["n"]
            run.failed += st["failed"]
            lat = st["latencies"]
            p50 = percentile(lat, 50) if lat else float("inf")
            p99 = percentile(lat, 99) if lat else float("inf")
            print("ladder %6d req/s: n %6d failed %5d p50 %7.3f p99 %8.3f ms, "
                  "late p99 %7.3f tail max %8.3f ms" % (rate, st["n"], st["failed"], p50, p99,
                                                        st["late_p99"], st["late_tail_max"]))
            if rate == REF_RATE:
                run.add("p50_ms", p50)
                run.add("p99_ms", p99)
                run.add("gen.late_ms", st["late_p99"])
            # max_rps: the top of the unbroken run of steps that meet the
            # p99 limit, complete every request and keep the generator
            # on time
            unbroken = unbroken and (st["failed"] == 0 and p99 <= P99_LIMIT_MS
                                     and st["late_tail_max"] <= LATE_LIMIT_MS)
            if unbroken:
                max_rps = rate
        run.add("max_rps", max_rps)
        # saturation: pipelined closed loop, hostnames answered per second
        sat = run.path("sat.log")
        probe("load", "closed", daemon.port, CONNS, 16, SATURATION_S, 0, hot_oracle, 0, sat)
        sat_recs = load_log(sat)
        ok = [r for r in sat_recs if r[4]]
        run.attempted += len(sat_recs)
        run.failed += len(sat_recs) - len(ok)
        if ok:
            span = max(r[3] for r in ok) - min(r[2] for r in sat_recs)
            run.add("hosts_per_s", len(ok) / (span / 1000.0))
        after = daemon.metrics()
        n = len(recs) + len(sat_recs)
        load_phase_diag(run, before, after, n, n)
        run.add("peak_rss_mb", daemon.peak_mb())
        daemon.stop()

    passes(run, one_pass)


def batch_cold(run, d):
    fresh_oracle = run.path("fresh.oracle")
    lat = []

    def one_pass(i):
        relearned, _ = run.learn_and_relearn(d)
        if i == 0:
            want = oracle(relearned, os.path.join(d, "fresh.txt"), fresh_oracle)
            run.diag["serve.answered_ratio"] = answered_ratio(want)
            setup_samples(run, relearned)
        # a fresh daemon per pass: within one daemon no hostname repeats
        daemon = Daemon(relearned)
        run.add("setup_s", daemon.start())
        before = daemon.metrics()
        log = run.path("batch.log")
        probe("load", "closed", daemon.port, CONNS, 1, 3600, COLD_BATCHES, fresh_oracle,
              BATCH, log)
        after = daemon.metrics()
        recs = load_log(log)
        ok = [r for r in recs if r[4]]
        run.attempted += len(recs)
        run.failed += len(recs) - len(ok)
        # a request is due when the response before it on its
        # connection arrives: done - sent is its latency, sent - due
        # the generator's turnaround
        pass_lat = [r[3] - r[2] for r in ok]
        lat.extend(pass_lat)
        run.add("gen.late_ms", percentile([r[2] - r[1] for r in recs], 99))
        if ok:
            span = max(r[3] for r in ok) - min(r[2] for r in recs)
            run.add("hosts_per_s", len(ok) * BATCH / (span / 1000.0))
            run.add("p50_ms", percentile(pass_lat, 50))
        load_phase_diag(run, before, after, len(recs) * BATCH, len(recs))
        run.add("peak_rss_mb", daemon.peak_mb())
        daemon.stop()

    passes(run, one_pass)
    if lat:
        run.add("p99_ms", percentile(lat, 99))


WORKLOADS = {"model-build": model_build, "lookup-hot": lookup_hot, "batch-cold": batch_cold}


# --- reporting ---

def end_to_end(run):
    m = {}
    for name, unit in END_TO_END:
        if not run.samples.get(name):
            raise Fail("no samples for %s" % name)
        m[name] = {"value": run.value(name), "unit": unit}
    return m


def traced(run, workload):
    """Per-layer metrics: the load-phase values of this run, the replays
    made after its passes (probe replay) and per-call costs (probe
    costs). Each replay value and layer row is the median over the
    traced replays."""
    tr = [r for t, r in run.replays if t]
    untraced = [r["values"]["replay_s"] for t, r in run.replays if not t]
    row_sets = [layer_rows(r["spans"]) for r in tr]
    rows = {n: statistics.median(rs.get(n, 0.0) for rs in row_sets)
            for n in sorted(set().union(*row_sets))}
    v = {k: statistics.median(r["values"][k] for r in tr) for k in tr[0]["values"]}
    out = run.path("costs.json")
    probe("costs", run.d, run.path("relearned.hoiho.json"), CONNS, out)
    with open(out) as f:
        v.update(json.load(f)["values"])
    # the rows divide the untraced end-to-end time of the CLI steps they
    # replay, as this run measured it
    last = "apply_wall_s" if workload == "model-build" else "setup_s"
    total = run.value("learn_s") + run.value("relearn_s") + run.value(last)
    cli_unattributed = unattributed(total, rows.values())
    if workload == "lookup-hot":
        parts = [v["http.parse_us"], v["serve.hit_us"], v["http.render_us"], v["health.record_us"]]
    elif workload == "batch-cold":
        parts = [v["http.parse_body_us"], v["serve.apply_batch_ms"] * 1000.0,
                 v["http.render_us"], v["health.record_us"]]
    else:  # a one-shot `hoiho apply HOST`: load, create, one uncached lookup
        parts = [v["oneshot.load_us"], v["oneshot.create_us"], v["serve.miss_us"]]
    p50_us = run.value("p50_ms") * 1000.0
    net_unattributed = unattributed(p50_us, parts)
    m = {name: (val, unit) for name, val, unit in [
        ("itdk.load_s", rows.get("itdk.load", 0.0), "s"),
        ("itdk.heap_mb", v["itdk.heap_mb"], "MB"),
        ("pipeline.run_s", rows.get("pipeline.run", 0.0), "s"),
        ("pipeline.apparent_s", v["pipeline.apparent_s"], "s"),
        ("pipeline.regen_s", v["pipeline.regen_s"], "s"),
        ("pipeline.ncsel_s", v["pipeline.ncsel_s"], "s"),
        ("pipeline.learn_s", v["pipeline.learn_s"], "s"),
        ("pipeline.reselect_s", v["pipeline.reselect_s"], "s"),
        ("ncsel.candidates_evaluated", v["ncsel.candidates_evaluated"], "count"),
        # rx: the daemon's /metrics deltas under load; on model-build,
        # the learn replay's counters
        ("rx.exec_calls", run.diag.get("rx.exec_calls", v["learn.rx.exec_calls"]), "count"),
        ("rx.prefilter_skip_ratio", run.diag.get(
            "rx.prefilter_skip_ratio",
            v["learn.rx.prefilter_skips"] / max(1.0, v["learn.rx.exec_calls"])), "ratio"),
        ("learned_io.encode_s", rows.get("learned_io.encode", 0.0), "s"),
        ("learned_io.decode_s", rows.get("learned_io.decode", 0.0), "s"),
        ("model_kb", run.diag["model_kb"], "KiB"),
        ("delta.apply_s", v["delta.apply_s"], "s"),
        ("delta.relearn_s", rows.get("delta.relearn", 0.0), "s"),
        ("delta.groups_relearned", v["delta.groups_relearned"], "count"),
        ("delta.groups_reused", v["delta.groups_reused"], "count"),
        ("serve.create_s", rows.get("serve.create", 0.0), "s"),
        ("serve.apply_s", rows.get("serve.apply", 0.0), "s"),
        ("cli.stdin_read_s", rows.get("cli.stdin_read", 0.0), "s"),
        ("serve.hit_us", v["serve.hit_us"], "us"),
        ("serve.miss_us", v["serve.miss_us"], "us"),
        ("serve.apply_batch_ms", v["serve.apply_batch_ms"], "ms"),
        ("serve.cache_hit_ratio", run.diag.get("serve.cache_hit_ratio", 0.0), "ratio"),
        ("serve.answered_ratio", run.diag.get("serve.answered_ratio", 0.0), "ratio"),
        ("lru.evictions_per_host", run.diag.get("lru.evictions_per_host", 0.0), "ratio"),
        ("psl.split_us", v["psl.split_us"], "us"),
        ("http.parse_us", v["http.parse_us"], "us"),
        ("http.parse_body_us", v["http.parse_body_us"], "us"),
        ("http.render_us", v["http.render_us"], "us"),
        ("net.batch_fill", run.diag.get("net.batch_fill", 0.0), "count"),
        ("net.shed_ratio", run.diag.get("net.shed_ratio", 0.0), "ratio"),
        ("pool.jobs_per_request", run.diag.get("pool.jobs_per_request", 0.0), "count"),
        ("health.record_us", v["health.record_us"], "us"),
        ("cli.unattributed_s", cli_unattributed, "s"),
        ("net.unattributed_us", net_unattributed, "us"),
        ("gen.late_ms", run.value("gen.late_ms"), "ms"),
        ("p99_ms", run.value("p99_ms"), "ms"),
        ("max_rps", run.value("max_rps"), "1/s"),
        ("trace.total_s", total, "s"),
        ("trace.overhead_pct",
         100.0 * (v["replay_s"] - statistics.median(untraced)) / statistics.median(untraced), "%"),
    ]}
    missing = [n for n in rows if n + "_s" not in m]
    if missing:
        raise Fail("span rows without a metric: %s" % missing)
    print("layer rows: " + " + ".join("%s_s %.6f" % kv for kv in rows.items()))
    for name, end, residual, unit, what in [
            ("cli.unattributed_s", total, cli_unattributed, "s",
             "learn_s + relearn_s + " + last),
            ("net.unattributed_us", p50_us, net_unattributed, "us", "p50_ms")]:
        ok = accounting_ok(end, residual)
        run.op(ok)
        print("%s %.6f %s of %.6f %s (%s)%s" % (
            name, residual, unit, end, unit, what,
            "" if residual >= 0 else "  NOTE: rows exceed it" if ok
            else "  FAILED: rows exceed it by more than %g of it" % ROW_TOL))
    return {k: {"value": val, "unit": u} for k, (val, u) in m.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t0 = time.perf_counter()
    # a terminated run still stops its children (see the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    os.makedirs(WORK, exist_ok=True)
    try:
        build()
        d = inputs(args.seed)
        run = Run(args, d)
        WORKLOADS[args.workload](run, d)
        metrics = traced(run, args.workload) if args.trace else end_to_end(run)
    except Fail as e:
        print("hbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        stop_children()
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK))
        except OSError:
            pass  # another run's directory is still there
    for name, m in metrics.items():
        xs = run.samples.get(name, [])
        print("%-28s %14.6g %-6s %s" % (name, m["value"], m["unit"], "" if len(xs) < 2 else
                                        "samples " + " ".join("%.6g" % x for x in xs)))
    print("%-28s %14d" % ("attempted", run.attempted))
    print("%-28s %14d" % ("failed", run.failed))
    print("%-28s %14.3f s (set-up included)" % ("workload_wall", time.perf_counter() - t0))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
