#!/usr/bin/env python3
"""End-to-end benchmark of the CloverLeaf study's `figures` program.

    python3 perfbench/run.py --workload paper|corun|serve --seed N \
        --seconds S --trace 0|1

Builds `figures` (and, for the traced run, `perfbench-trace`) from the
checkout, drives them as child processes and prints one JSON object as the
last line of stdout: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones, measured through the
CLI and the serve socket protocol with tracing off; with `--trace 1` they
are the per-layer ones of one traced pass.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import socket
import statistics
import selectors
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
RESULTS = HERE / "results"
# CLI --jobs, daemon --workers and serve client count: fixed, at most nproc.
JOBS = min(2, len(os.sched_getaffinity(0)))
# Paper: --check invocations per pass.
PAPER_PASS = 4
# Cold set-ups per run whose median is `setup_s`: `figures list` spawns
# (paper), store-loading sweep spawns (corun), daemon starts (serve).
LIST_SPAWNS = 101
SETUP_SPAWNS = 15
# Serve: requests replayed sequentially by the traced run.
TRACE_ROUNDS = 2
SPAWN_TIMEOUT_S = 60


class Run:
    """Counters and samples of one benchmark run."""

    def __init__(self, workdir, figures):
        self.workdir = workdir
        self.figures = str(figures)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.peak_rss_kb = 0

    def op(self, errors):
        """Count one operation; it failed if its checks found errors."""
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors += errors[:3]

    def spawn(self, args, watch=None):
        """Run `figures <args>` to completion with stdout to a file.

        Returns (seconds, exit code, stdout, seconds until a stderr line
        containing `watch` arrived or None).  The child's peak resident set
        comes from its rusage.
        """
        out_path = self.workdir / "stdout"
        start = time.perf_counter()
        with open(out_path, "wb") as out:
            proc = subprocess.Popen(
                [self.figures, *args], stdout=out, stderr=subprocess.PIPE, cwd=self.workdir
            )
        seen = None
        for line in proc.stderr:
            if watch and seen is None and watch in line.decode(errors="replace"):
                seen = time.perf_counter() - start
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return seconds, proc.returncode, out_path.read_text(), seen


def build():
    """Build the programs from source; returns (figures, perfbench-trace)."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = Path(env["CARGO_TARGET_DIR"])
    target = target if target.is_absolute() else ROOT / target
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "clover-bench", "--bin", "figures"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    return target / "release" / "figures", target / "release" / "perfbench-trace"


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(setup_s, pass_s, op_s, peak_rss_kb):
    """Every end-to-end metric of BENCHMARK.json.  `op_p99_ms` and
    `ops_per_s` are meant for serve, whose runs hold thousands of requests;
    a paper or corun run holds a few dozen invocations, so there they are
    only the slowest invocation and the invocation rate (see the README)."""
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (statistics.median(pass_s), "s"),
        "op_p50_ms": (statistics.median(op_s) * 1e3, "ms"),
        "op_p99_ms": (percentile(op_s, 99) * 1e3, "ms"),
        # Every pass holds the same operations.
        "ops_per_s": (len(op_s) / len(pass_s) / statistics.median(pass_s), "1/s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def prepare_store(run, path, sweeps):
    for args in sweeps:
        _, code, _, _ = run.spawn(["sweep", *args, "--store", str(path)])
        if code != 0:
            raise RuntimeError(f"preparing {path.name} failed: figures sweep exited {code}")


def paper(run, seed, seconds):
    """Repeated cold `figures --check all` processes."""
    del seed  # `figures --check all` takes no generated input
    _, code, table, _ = run.spawn(["--delta-table", "all"])
    anchors = checks.anchor_counts(table)
    if code != 0 or not anchors:
        raise RuntimeError("figures --delta-table all gave no anchor counts")
    setup = []
    for _ in range(LIST_SPAWNS):
        t, code, text, _ = run.spawn(["list"])
        if code != 0 or "fig11" not in text:
            raise RuntimeError("figures list failed")
        setup.append(t)
    run.peak_rss_kb = 0
    pass_s, op_s, outputs = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        pass_start = time.perf_counter()
        for _ in range(PAPER_PASS):
            t, code, text, _ = run.spawn(["--check", "all"])
            op_s.append(t)
            outputs.append((text, code))
        pass_s.append(time.perf_counter() - pass_start)
    for text, code in outputs:
        run.op(checks.paper_errors(text, code, anchors))
    return end_to_end(setup, pass_s, op_s, run.peak_rss_kb)


def corun(run, seed, seconds):
    """One `figures interfere` and seeded `figures sweep --store` aggressor
    sweeps per pass, on a store warmed by an untimed run of the same plans."""
    sweeps = inputs.corun_sweeps(seed, JOBS)
    prepared = run.workdir / "prepared.store"
    prepare_store(run, prepared, sweeps)
    store = run.workdir / "run.store"
    # Set-up: spawn to `entries warm` of a one-point sweep on a fresh copy
    # of the store, which loads the same store as the pass's sweeps.
    setup = []
    for _ in range(SETUP_SPAWNS):
        shutil.copyfile(prepared, store)
        _, code, _, warm = run.spawn(
            ["sweep", "--machine", inputs.CORUN_MACHINES[0], "--ranks", "1..1",
             "--store", str(store)], watch="entries warm")
        if code != 0 or warm is None:
            raise RuntimeError("a set-up sweep did not report its store warm")
        setup.append(warm)
    run.peak_rss_kb = 0
    pass_s, op_s, outputs = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        shutil.copyfile(prepared, store)
        pass_start = time.perf_counter()
        t, code, text, _ = run.spawn(["interfere"])
        op_s.append(t)
        outputs.append(("interfere", text, code, True))
        for args in sweeps:
            t, code, text, warm = run.spawn(
                ["sweep", *args, "--store", str(store)], watch="entries warm"
            )
            op_s.append(t)
            outputs.append(("sweep", text, code, warm is not None))
        pass_s.append(time.perf_counter() - pass_start)
    for kind, text, code, warm in outputs:
        errors = [] if code == 0 else [f"{kind} exited {code}"]
        if not warm:
            errors.append("sweep did not report its store warm")
        errors += checks.interfere_errors(text) if kind == "interfere" else checks.sweep_errors(text)
        run.op(errors)
    return end_to_end(setup, pass_s, op_s, run.peak_rss_kb)


class Client:
    """One connection speaking the `figures serve` line protocol."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""
        self.line = None
        self.sent_at = None

    def send(self, line):
        self.line = line
        self.sent_at = time.perf_counter()
        self.sock.sendall(line.encode() + b"\n")

    def receive(self):
        """Read what has arrived; returns the whole response to the last
        request, or None while it is incomplete.  A sweep answers with its
        payload (`ok <bytes>` framing) or an error line, returned as a
        ProtocolError; other requests answer with one line."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("figures serve closed the connection")
        self.buf += chunk
        end = self.buf.find(b"\n")
        if end < 0:
            return None
        head = self.buf[:end].decode()
        if not self.line.startswith("sweep "):
            self.buf = self.buf[end + 1:]
            return head
        words = head.split()
        if len(words) != 2 or words[0] != "ok" or not words[1].isdigit():
            self.buf = self.buf[end + 1:]
            return ProtocolError(f"sweep answered {head!r}")
        size = int(words[1])
        if len(self.buf) < end + 1 + size:
            return None
        payload = self.buf[end + 1:end + 1 + size].decode()
        self.buf = self.buf[end + 1 + size:]
        return payload

    def request(self, line):
        self.send(line)
        response = None
        while response is None:
            response = self.receive()
        return response

    def close(self):
        self.sock.close()


class ProtocolError(Exception):
    pass


def closed_loop(clients, items):
    """Drive the request lines of `items` through `clients`, each sending
    its next request only once its previous response is complete.  Returns
    (line, payload or ProtocolError, seconds) per request."""
    pending = iter(items)
    results = []
    with selectors.DefaultSelector() as selector:

        def next_request(client):
            item = next(pending, None)
            if item is None:
                selector.unregister(client.sock)
            else:
                client.send(item[1])

        for client in clients:
            selector.register(client.sock, selectors.EVENT_READ, client)
            next_request(client)
        while selector.get_map():
            for key, _ in selector.select():
                client = key.data
                response = client.receive()
                if response is not None:
                    results.append((client.line, response, time.perf_counter() - client.sent_at))
                    next_request(client)
    return results


class Daemon:
    """A `figures serve --socket` process and the time it took to answer
    its first ping."""

    def __init__(self, run, store):
        self.run = run
        self.path = os.path.relpath(run.workdir / "serve.sock")
        self.log = open(run.workdir / "serve.log", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [run.figures, "serve", "--socket", "serve.sock", "--store", str(store),
             "--workers", str(JOBS)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self.log, cwd=run.workdir,
        )
        try:
            self._await_first_ping(start)
        except BaseException:
            self.stop()
            raise

    def _await_first_ping(self, start):
        while True:
            try:
                self.first = Client(self.path)
                break
            except OSError:
                if self.proc.poll() is not None or time.perf_counter() - start > SPAWN_TIMEOUT_S:
                    raise RuntimeError("figures serve did not start listening")
                time.sleep(0.0005)
        pong = self.first.request("ping")
        self.setup_s = time.perf_counter() - start
        if pong != "ok pong":
            raise RuntimeError(f"ping answered {pong!r}")
        if b"entries warm" not in (self.run.workdir / "serve.log").read_bytes():
            raise RuntimeError("figures serve did not warm-load its store")

    def stop(self):
        if self.proc.returncode is None:
            self.proc.terminate()
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.run.peak_rss_kb = max(self.run.peak_rss_kb, usage.ru_maxrss)
        self.log.close()


def stats_fields(line):
    """The counters of a `stats` response as a dict."""
    words = line.split()
    if words[:2] != ["ok", "stats"]:
        return None
    return {k: int(v) for k, v in zip(words[2::2], words[3::2]) if v.isdigit()}


def failing_payloads(run, payloads):
    """Request lines whose payloads differ from each other or from a
    one-shot `figures sweep` process on the same arguments, or fail the
    sweep checks."""
    failing = set()
    for line, seen in payloads.items():
        errors = [] if len(seen) == 1 else [f"{len(seen)} different payloads"]
        payload = next(iter(seen))
        _, code, oneshot, _ = run.spawn(line.split())
        if code != 0 or oneshot != payload:
            errors.append("payload differs from a one-shot figures sweep")
        errors += checks.sweep_errors(payload)
        if errors:
            failing.add(line)
            run.errors += [f"{line!r}: {e}" for e in errors[:3]]
    return failing


def serve(run, seed, seconds):
    """Closed-loop clients on `figures serve --socket --store`."""
    prepared = run.workdir / "prepared.store"
    prepare_store(run, prepared, inputs.store_sweeps())
    store = run.workdir / "daemon.store"
    # Set-up: cold daemon starts, each on a fresh copy of the store.
    setup = []
    for _ in range(SETUP_SPAWNS):
        shutil.copyfile(prepared, store)
        daemon = Daemon(run, store)
        daemon.stop()
        daemon.first.close()
        setup.append(daemon.setup_s)
    shutil.copyfile(prepared, store)
    stream = inputs.ServeStream(seed)
    run.peak_rss_kb = 0
    daemon = Daemon(run, store)
    clients = [daemon.first]
    results = []
    pass_s = []
    try:
        clients += [Client(daemon.path) for _ in range(JOBS - 1)]
        start = time.perf_counter()
        k = 0
        while time.perf_counter() - start < seconds:
            pass_start = time.perf_counter()
            results += closed_loop(clients, stream.round(k))
            stats = clients[0].request("stats")
            saved = clients[0].request("save")
            pass_s.append(time.perf_counter() - pass_start)
            run.op([] if stats_fields(stats) else [f"stats answered {stats!r}"])
            run.op([] if saved.startswith("ok saved ") else [f"save answered {saved!r}"])
            k += 1
    finally:
        for c in clients:
            c.close()
        daemon.stop()
    op_s = [t for _, _, t in results]
    metrics = end_to_end(setup, pass_s, op_s, run.peak_rss_kb)
    payloads = {}
    for line, payload, _ in results:
        if isinstance(payload, ProtocolError):
            run.op([f"{line!r}: {payload}"])
        else:
            payloads.setdefault(line, set()).add(payload)
    failing = failing_payloads(run, payloads)
    for line, payload, _ in results:
        if not isinstance(payload, ProtocolError):
            run.op(["payload failed its checks"] if line in failing else [])
    return metrics


def traced(run, workload, seed, tracer):
    """The per-layer pass: socket round trips and daemon counters through
    the CLI, then `perfbench-trace` over the same inputs."""
    prepared = run.workdir / "prepared.store"
    prepare_store(run, prepared, inputs.store_sweeps())
    stream = inputs.ServeStream(seed)
    items = [item for k in range(TRACE_ROUNDS) for item in stream.round(k)]
    shutil.copyfile(prepared, run.workdir / "daemon.store")
    daemon = Daemon(run, run.workdir / "daemon.store")
    rtt = {"hit": [], "miss": [], "corun": []}
    try:
        for cls, line in items:
            t = time.perf_counter()
            payload = daemon.first.request(line)
            rtt[cls].append((time.perf_counter() - t) * 1e3)
            run.op([str(payload)] if isinstance(payload, ProtocolError) else checks.sweep_errors(payload))
        stats = stats_fields(daemon.first.request("stats"))
        run.op([] if stats else ["stats failed"])
    finally:
        daemon.first.close()
        daemon.stop()

    spans = RESULTS / f"spans-{workload}-seed{seed}.jsonl"
    plan = run.workdir / "trace.inputs"
    lines = [f"store {prepared}", f"save {run.workdir / 'saved.store'}"]
    lines += ["sweep " + " ".join(args) for args in inputs.corun_sweeps(seed, JOBS)]
    lines += [f"request {cls} {line}" for cls, line in items]
    plan.write_text("\n".join(lines) + "\n")
    proc = subprocess.run([str(tracer), str(plan), str(spans)], capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench-trace exited {proc.returncode}: {proc.stderr.strip()}")
    metrics = {}
    for line in proc.stdout.splitlines():
        words = line.split()
        if words[0] == "metric":
            metrics[words[1]] = (float(words[2]), words[3])
        elif words[0] == "check":
            run.op([] if words[1] == "ok" else [" ".join(words[2:])])
    for cls, samples in rtt.items():
        metrics[f"service.rtt_{cls}_ms"] = (statistics.median(samples), "ms")
    metrics["service.transport_ms"] = (
        metrics["service.rtt_miss_ms"][0] - metrics["service.handle_miss_ms"][0], "ms")
    # Counters the daemon stops reporting are left out, not failed.
    if stats:
        pairs = {
            "service.response_hit_ratio": ("response-hits", "response-misses"),
            "service.sweep_hit_ratio": ("sweep-hits", "sweep-misses"),
        }
        for name, (hits, misses) in pairs.items():
            if hits in stats and misses in stats and stats[hits] + stats[misses]:
                metrics[name] = (stats[hits] / (stats[hits] + stats[misses]), "ratio")
        if "response-evictions" in stats:
            metrics["service.response_evictions"] = (stats["response-evictions"], "count")
        if "sim-hits" in stats and "sim-misses" in stats:
            metrics["service.sim_lookups"] = (stats["sim-hits"] + stats["sim-misses"], "count")
    return metrics


WORKLOADS = {"paper": paper, "corun": corun, "serve": serve}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        figures, tracer = build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: building the programs failed: {e}")
    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(workdir, figures)
    try:
        if args.trace:
            metrics = traced(run, args.workload, args.seed, tracer)
        else:
            metrics = WORKLOADS[args.workload](run, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in run.errors[:10]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(line + "\n")
    print(line)


if __name__ == "__main__":
    main()
