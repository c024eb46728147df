"""The four workloads.  Each returns a :class:`Result`; ``run.py`` prints it.

Closed loops only: every op (a corpus evaluation, a compile+evaluate, an
HTTP request, a CLI process) starts after the previous one on its client
finished.  ``served_mix`` has two clients (keep-alive connections); every
other workload has one.
"""

from __future__ import annotations

import json
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from typing import Any, Callable

from perfbench import checks, inputs
from perfbench.stats import OpLog, Round, merged, tail
from perfbench.trace import IMPORT_GROUPS, LAYERS, OP_SPAN, LayerPatch, SpanRecorder, import_times, self_times

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 8
#: ``served_mix`` boots this many servers in set-up and measures the last.
SERVER_BOOTS = 3

#: Fewest rounds of each kind (untraced, traced) a run makes.
MIN_ROUNDS = 8

#: ``served_mix`` reads the server's peak RSS after this many requests:
#: every miss adds a compiled loop to its cache, so a later peak would
#: grow with throughput.
MEMORY_AFTER = 256

#: Ops of ``generated_large``'s first pass whose schedules also run on the
#: cycle-level executor (0.3-2 s each); every op's schedules are
#: checked for legality.
EXECUTOR_CHECKS = 8


@dataclass
class Context:
    root: Path
    scratch: Path
    seed: int
    seconds: float
    trace: bool
    processes: list[subprocess.Popen] = field(default_factory=list)

    @property
    def env(self) -> dict[str, str]:
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(self.root / "src")
        return env

    def spawn(self, argv: list[str], **kwargs) -> subprocess.Popen:
        process = subprocess.Popen(argv, cwd=self.scratch, env=self.env, **kwargs)
        self.processes.append(process)
        return process

    def run_child(self, argv: list[str], timeout: float = 120) -> tuple[float, int, bytes, bytes]:
        """Spawn, wait, return (spawn-to-exit seconds, exit code, stdout, stderr)."""
        started = time.perf_counter()
        process = self.spawn(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        stdout, stderr = process.communicate(timeout=timeout)
        elapsed = time.perf_counter() - started
        self.processes.remove(process)
        return elapsed, process.returncode, stdout, stderr

    def setup_probe(self, workload: str) -> float:
        """Spawn-to-exit seconds of one fresh-process set-up."""
        elapsed, code, _out, err = self.run_child(
            [sys.executable, str(self.root / "perfbench" / "child.py"), "setup", workload, str(self.seed)]
        )
        if code != 0:
            raise RuntimeError(f"set-up child failed ({code}): {err.decode()[-2000:]}")
        return elapsed

    def reap(self) -> None:
        """Stop every child still running and wait for it."""
        for process in self.processes:
            if process.poll() is None:
                process.kill()
            process.wait()
        self.processes.clear()


@dataclass
class Result:
    log: OpLog
    end_to_end: dict[str, tuple[float, str]]
    per_layer: dict[str, tuple[float, str]]
    notes: list[str]
    problems: list[str]
    recorder: SpanRecorder | None = None


# -- shared metric assembly ---------------------------------------------------------


def per_layer_defaults() -> dict[str, tuple[float, str]]:
    """Every per-layer metric at zero: the value for layers a workload
    never calls (the served pipeline runs in the server, out of reach of
    the benchmark's spans; only ``served_mix`` has a client)."""
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = (0.0, "s")
        metrics[f"{layer}.calls"] = (0.0, "count")
    metrics["pipeline.unattributed_s"] = (0.0, "s")
    for name in ("sync.pairs", "codegen.instructions", "dfg.arcs", "sched.sync.runtime_lbd_pairs"):
        metrics[name] = (0.0, "count")
    metrics["sim.fast_path_ratio"] = (0.0, "ratio")
    for name in ("client.send_ms", "client.wait_ms", "client.read_ms", "client.decode_ms",
                 "service.server_p50_ms", "service.server_tail_ms", "service.gap_p50_ms",
                 "service.gap_tail_ms", "service.grid_ms", "python.startup_ms", "import.repro_ms",
                 "cli.op_ms"):
        metrics[name] = (0.0, "ms")
    for group in IMPORT_GROUPS:
        metrics[f"import.repro.{group}_ms"] = (0.0, "ms")
    metrics["service.coalesced_mean"] = (0.0, "count")
    metrics["perf.batch.eval_hit_ratio"] = (0.0, "ratio")
    metrics["obs.ledger.bytes_per_request"] = (0.0, "B")
    metrics["trace.overhead_ratio"] = (0.0, "ratio")
    return metrics


def layer_metrics(recorder: SpanRecorder, metrics: dict, notes: list[str]) -> None:
    """Per-op mean self time of every layer, the unattributed remainder,
    and the exact counters, from a recorder whose ops are pipeline ops."""
    per_op = self_times(recorder.spans)
    ops = max(recorder.ops, 1)
    totals: dict[str, float] = {}
    worst = 0.0
    for op, selfs in per_op.items():
        for name, seconds in selfs.items():
            totals[name] = totals.get(name, 0.0) + seconds
        wall = sum(
            (row[3] - row[2]) / 1e9 for row in recorder.spans if row[0] == op and row[4] is None
        )
        worst = max(worst, abs(sum(selfs.values()) - wall))
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = (totals.get(layer, 0.0) / ops, "s")
        metrics[f"{layer}.calls"] = (recorder.counters.get(f"{layer}.calls", 0.0) / ops, "count")
    metrics["pipeline.unattributed_s"] = (totals.get(OP_SPAN, 0.0) / ops, "s")
    for name in ("sync.pairs", "codegen.instructions", "dfg.arcs", "sched.sync.runtime_lbd_pairs"):
        metrics[name] = (recorder.counters.get(name, 0.0) / ops, "count")
    simulations = recorder.counters.get("sim.simulate.calls", 0.0)
    metrics["sim.fast_path_ratio"] = (
        recorder.counters.get("sim.fast_path", 0.0) / simulations if simulations else 0.0,
        "ratio",
    )
    wall = sum(totals.values()) / ops
    notes.append(
        f"traced ops: {recorder.ops}; per op, layers + unattributed = {wall * 1e3:.3f} ms "
        f"= op wall (largest per-op residual {worst * 1e9:.0f} ns)"
    )


def python_startup_ms(ctx: Context) -> tuple[float, str]:
    """Median spawn-to-exit of ``python -c pass``: the floor of any CLI op."""
    startups = [ctx.run_child([sys.executable, "-c", "pass"])[0] for _ in range(5)]
    return statistics.median(startups) * 1e3, "ms"


def interpreter_metrics(ctx: Context, metrics: dict) -> None:
    """``python.startup_ms`` and the ``-X importtime`` split of
    ``import repro.cli``."""
    metrics["python.startup_ms"] = python_startup_ms(ctx)
    imports = []
    for _ in range(3):
        _elapsed, _code, _out, err = ctx.run_child(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"]
        )
        imports.append(import_times(err.decode()))
    import_metrics(imports, metrics)


def import_metrics(imports: list[dict[str, float]], metrics: dict) -> None:
    metrics["import.repro_ms"] = (statistics.median(i["total"] for i in imports), "ms")
    for group in IMPORT_GROUPS:
        metrics[f"import.repro.{group}_ms"] = (statistics.median(i[group] for i in imports), "ms")


def timing_metrics(rounds: list[Round], metrics: dict, notes: list[str]) -> None:
    """Throughput, median and tail over every op of ``rounds``."""
    log = merged(rounds)
    seconds = sum(r.seconds for r in rounds)
    metrics["throughput_ops_s"] = ((log.attempted - log.refused) / seconds, "1/s")
    metrics["latency_p50_ms"] = (log.p50() * 1e3, "ms")
    found = log.tail()
    if found is None or found.percentile < 50:
        notes.append(f"latency_tail_ms: {log.attempted} samples are too few for a tail; max reported")
        metrics["latency_tail_ms"] = (max(log.samples()) * 1e3, "ms")
    else:
        notes.append(f"latency_tail_ms: {found.describe()}")
        metrics["latency_tail_ms"] = (found.value * 1e3, "ms")


def run_rounds(
    ctx: Context, one_round: Callable[[int, bool], Round], workload: str, period: int = 1
) -> tuple[list[Round], float]:
    """Rounds until the window closes, and ``setup_s``.

    With ``--trace 1``, runs of ``period`` rounds alternate untraced and
    traced.  A run makes at least ``MIN_ROUNDS`` untraced rounds (and as
    many traced) and at least two runs of each kind.  ``setup_s`` is the
    median of ``SETUP_REPEATS`` fresh-process set-ups spread evenly over
    the window, between rounds, so a burst of host load cannot cover them
    all."""
    rounds: list[Round] = []
    probes: list[float] = []
    started = time.perf_counter()
    deadline = started + ctx.seconds
    least = max(MIN_ROUNDS, 2 * period) * (2 if ctx.trace else 1)
    while time.perf_counter() < deadline or len(rounds) < least:
        if time.perf_counter() >= started + len(probes) * ctx.seconds / SETUP_REPEATS:
            probes.append(ctx.setup_probe(workload))
        index = len(rounds)
        rounds.append(one_round(index, ctx.trace and (index // period) % 2 == 1))
    while len(probes) < SETUP_REPEATS:
        probes.append(ctx.setup_probe(workload))
    return rounds, statistics.median(probes)


def finish(ctx: Context, rounds: list[Round], metrics: dict, notes: list[str],
           recorder: SpanRecorder | None, problems: list[str]) -> Result:
    """Shared tail of the round-based workloads: e2e timings from the
    untraced rounds, per-layer metrics from the traced ones."""
    untraced = [r for r in rounds if not r.traced]
    timing_metrics(untraced, metrics, notes)
    log = merged(rounds)
    notes.append(f"failed_ratio = {log.failed_ratio:.6f} ({log.failed} of {log.attempted} ops)")
    layers = per_layer_defaults()
    if ctx.trace:
        traced = [r for r in rounds if r.traced]
        layer_metrics(recorder, layers, notes)
        layers["trace.overhead_ratio"] = (
            merged(traced).attempted / sum(r.seconds for r in traced)
            / (merged(untraced).attempted / sum(r.seconds for r in untraced)),
            "ratio",
        )
    return Result(log, metrics, layers, notes, problems, recorder)


def timed(op: Callable[[], Any], tracing: tuple[LayerPatch, SpanRecorder] | None) -> tuple[Any, float]:
    """Run one op; return its result and seconds from call to return.  With
    ``tracing`` the op runs under the layer wrappers, as one recorder op."""
    if tracing is None:
        started = time.perf_counter()
        result = op()
        return result, time.perf_counter() - started
    patch, recorder = tracing
    with patch, recorder.op():
        started = time.perf_counter()
        result = op()
        latency = time.perf_counter() - started
    return result, latency


def rss_mb(kilobytes: float) -> float:
    return kilobytes / 1024.0


def self_peak_rss_mb() -> float:
    return rss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


# -- table2_cold ---------------------------------------------------------------------


def table2_cold(ctx: Context) -> Result:
    from repro.options import EvalOptions
    from repro.pipeline import evaluate_corpus

    cells = [(name, sources, case, inputs.machine(case)) for name, sources, case in inputs.table2_cells(ctx.seed)]
    expected = checks.load_table2()
    options = EvalOptions()
    recorder = SpanRecorder() if ctx.trace else None
    tracing = (LayerPatch(recorder), recorder) if ctx.trace else None
    problems: list[str] = []

    def evaluate(name, sources, machine):
        return evaluate_corpus(name, list(sources), machine, inputs.N, options)

    name, sources, _case, machine = cells[0]
    evaluate(name, sources, machine)  # warm-up

    def one_sweep(_index: int, traced: bool) -> Round:
        log = OpLog()
        t_new = 0
        started = time.perf_counter()
        for name, sources, case, machine in cells:
            corpus, latency = timed(lambda: evaluate(name, sources, machine), tracing if traced else None)
            log.ok(latency)
            t_new += corpus.t_new
            if not checks.table2_cell_ok(expected, name, case, corpus.t_list, corpus.t_new):
                log.mismatches += 1
                problems.append(
                    f"{name}@{case}: (t_list, t_new) = ({corpus.t_list}, {corpus.t_new}) "
                    f"!= committed Table 2 {expected['cells'][name][checks.case_key(case)]}"
                )
        return Round(time.perf_counter() - started, log, traced, t_new)

    rounds, setup_s = run_rounds(ctx, one_sweep, "table2_cold")
    totals = sorted({r.t_new for r in rounds})
    if totals != [expected["sweep_t_new"]]:
        problems.append(f"sweep t_new totals {totals} != {expected['sweep_t_new']}")
    notes = [f"{len(rounds)} sweeps of {len(cells)} cells; t_new per sweep {totals}"]
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (self_peak_rss_mb(), "MB"),
        "t_new_cycles": (float(statistics.median(r.t_new for r in rounds)), "cycles"),
    }
    result = finish(ctx, rounds, metrics, notes, recorder, problems)
    if ctx.trace:
        interpreter_metrics(ctx, result.per_layer)
    return result


# -- generated_large -----------------------------------------------------------------


def generated_large(ctx: Context) -> Result:
    from repro.options import EvalOptions
    from repro.pipeline import compile_loop, evaluate_loop

    corpus = [(source, inputs.machine(case)) for source, case in inputs.generated_corpus(ctx.seed)]
    options = EvalOptions()
    recorder = SpanRecorder() if ctx.trace else None
    tracing = (LayerPatch(recorder), recorder) if ctx.trace else None
    problems: list[str] = []
    answers: list[tuple[int, int]] = []  # (t_list, t_new) of each op in the first pass
    bad: set[int] = set()  # ops whose checked output is wrong (every execution of them is)
    drifted = 0  # later executions whose cycle counts differ from the first pass
    executed = set(random.Random(f"executor/{ctx.seed}").sample(range(len(corpus)), EXECUTOR_CHECKS))
    sampled = {}
    chunks = range(0, len(corpus), inputs.GENERATED_CHUNK)
    checking = 0.0

    def evaluate(source, machine):
        return evaluate_loop(compile_loop(source), machine, inputs.N, options)

    def check(position: int, evaluation, execute: bool) -> None:
        found = checks.generated_problems(evaluation, inputs.N, execute=execute)
        if found:
            bad.add(position)
            problems.extend(f"gen{position}: {p}" for p in found)

    evaluate(*corpus[0])  # warm-up

    def one_chunk(index: int, traced: bool) -> Round:
        nonlocal checking, drifted
        log = OpLog()
        t_new = 0
        chunk = index % len(chunks)
        first = chunks[chunk]
        started = time.perf_counter()
        checked = checking
        for position, (source, machine) in enumerate(corpus[first : first + inputs.GENERATED_CHUNK], first):
            evaluation, latency = timed(lambda: evaluate(source, machine), tracing if traced else None)
            log.ok(latency)
            t_new += evaluation.t_new
            if len(answers) < len(corpus):
                # First pass, untimed: legality now; the executor sample
                # runs after the window.
                check_started = time.perf_counter()
                check(position, evaluation, execute=False)
                if position in executed:
                    sampled[position] = evaluation
                answers.append((evaluation.t_list, evaluation.t_new))
                checking += time.perf_counter() - check_started
            elif (evaluation.t_list, evaluation.t_new) != answers[position]:
                drifted += 1
                problems.append(f"gen{position}: cycle counts changed between passes")
        return Round(time.perf_counter() - started - (checking - checked), log, traced, t_new, key=chunk)

    rounds, setup_s = run_rounds(ctx, one_chunk, "generated_large", period=len(chunks))
    check_started = time.perf_counter()
    for position, evaluation in sorted(sampled.items()):
        check(position, evaluation, execute=True)
    checking += time.perf_counter() - check_started
    executions = [sum(1 for r in rounds if r.key == chunk) for chunk in range(len(chunks))]
    rounds[0].log.mismatches += drifted + sum(executions[p // inputs.GENERATED_CHUNK] for p in bad)
    pass_t_new = sum(t_new for _t_list, t_new in answers)
    notes = [
        f"{len(rounds) / len(chunks):.2f} passes of {len(corpus)} loops in rounds of "
        f"{inputs.GENERATED_CHUNK}; t_new per pass {pass_t_new}",
        f"checks (untimed): legality on {len(answers)} ops, executor on {len(sampled)}, {checking:.1f} s",
    ]
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (self_peak_rss_mb(), "MB"),
        "t_new_cycles": (float(pass_t_new), "cycles"),
    }
    result = finish(ctx, rounds, metrics, notes, recorder, problems)
    if ctx.trace:
        interpreter_metrics(ctx, result.per_layer)
    return result


# -- served_mix ----------------------------------------------------------------------


class Server:
    """A ``repro serve --port 0`` child with its own scratch ledger."""

    def __init__(self, ctx: Context, ledger: Path) -> None:
        self.ledger = ledger
        self.process = ctx.spawn(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--ledger", str(ledger)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.lines: list[str] = []
        listening = threading.Event()

        def drain() -> None:
            for line in self.process.stderr:
                self.lines.append(line)
                listening.set()
            listening.set()

        self.drainer = threading.Thread(target=drain, daemon=True)
        self.drainer.start()
        if not listening.wait(60) or not self.lines:
            raise RuntimeError("repro serve printed no listening line")
        found = re.search(r"http://[^:]+:(\d+)", self.lines[0])
        if found is None:
            raise RuntimeError(f"repro serve: {''.join(self.lines)[-2000:]}")
        self.port = int(found.group(1))
        deadline = time.monotonic() + 60
        while True:
            try:
                self.get("/v1/healthz")
                break
            except OSError:
                if time.monotonic() > deadline or self.process.poll() is not None:
                    raise
                time.sleep(0.01)

    def connection(self) -> HTTPConnection:
        return HTTPConnection("127.0.0.1", self.port, timeout=60)

    def get(self, path: str) -> tuple[int, dict]:
        connection = self.connection()
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def peak_rss_kb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
        return 0.0

    def stop(self) -> None:
        """SIGINT (the server drains in-flight work), then wait."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.drainer.join(10)


@dataclass
class Reply:
    index: int
    status: int | None  # None: no response (connection error)
    latency: float
    evaluation: dict | None = None
    coalesced: int = 0
    request_id: str | None = None
    layers: tuple[float, float, float, float] | None = None  # send, wait, read, decode
    started: float = 0.0


def post(connection: HTTPConnection, index: int, body: bytes, traced: bool) -> Reply:
    started = time.perf_counter()
    connection.request("POST", "/v1/evaluate", body=body, headers={"Content-Type": "application/json"})
    sent = time.perf_counter() if traced else 0.0
    response = connection.getresponse()
    headers = time.perf_counter() if traced else 0.0
    raw = response.read()
    read = time.perf_counter() if traced else 0.0
    data = json.loads(raw)
    done = time.perf_counter()
    reply = Reply(index, response.status, done - started, started=started)
    if response.status == 200:
        reply.evaluation = data.get("evaluation")
        reply.coalesced = data.get("coalesced", 0)
        reply.request_id = data.get("request_id")
    if traced:
        reply.layers = (sent - started, headers - sent, read - headers, done - read)
    return reply


def serve_setup(ctx: Context, attempt: int) -> tuple[Server, list[inputs.Request], int]:
    """Stream generation, boot to ``/v1/healthz``, and the hot set warmed
    into the server's cache.  Returns the server, stream and POSTs made."""
    stream = inputs.request_stream(ctx.seed)
    server = Server(ctx, ctx.scratch / f"ledger-{attempt}.jsonl")
    connection = server.connection()
    try:
        for request in inputs.hot_requests():
            reply = post(connection, -1, request.body(), False)
            if reply.status != 200:
                raise RuntimeError(f"warm-up request failed: HTTP {reply.status}")
    finally:
        connection.close()
    return server, stream, len(inputs.hot_requests())


def served_mix(ctx: Context) -> Result:
    setups = []
    server = None
    for attempt in range(SERVER_BOOTS):
        if server is not None:
            server.stop()
        started = time.perf_counter()
        server, stream, posted = serve_setup(ctx, attempt)
        setups.append(time.perf_counter() - started)
    bodies = [request.body() for request in stream]
    notes: list[str] = []
    problems: list[str] = []
    try:
        before = server.get("/v1/metrics")[1] if ctx.trace else None
        ledger_before = server.ledger.stat().st_size
        replies: list[Reply] = []
        peak_at = [0.0]
        lock = threading.Lock()
        next_index = [0]
        started = time.perf_counter()
        deadline = started + ctx.seconds
        quarter = ctx.seconds / 4

        def take() -> tuple[int, bool] | None:
            now = time.perf_counter()
            with lock:
                index = next_index[0]
                if index >= len(bodies) or (now >= deadline and index >= inputs.STREAM_PASS):
                    return None
                next_index[0] += 1
            traced = ctx.trace and int((now - started) / quarter) % 2 == 1
            return index, traced

        def client() -> None:
            connection = server.connection()
            try:
                while (job := take()) is not None:
                    index, traced = job
                    try:
                        reply = post(connection, index, bodies[index], traced)
                    except (OSError, HTTPException, ValueError) as err:
                        reply = Reply(index, None, 0.0)
                        problems.append(f"request {index}: {type(err).__name__}: {err}")
                        connection.close()
                        connection = server.connection()
                    with lock:
                        replies.append(reply)
                        if len(replies) == MEMORY_AFTER:
                            peak_at[0] = server.peak_rss_kb()
            finally:
                connection.close()

        clients = [threading.Thread(target=client) for _ in range(2)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(ctx.seconds + 120)
        elapsed = time.perf_counter() - started
        if next_index[0] >= len(bodies):
            notes.append(f"request stream exhausted after {len(bodies)} requests")
        after = server.get("/v1/metrics")[1] if ctx.trace else None
        ledger_after = server.ledger.stat().st_size
        traced_replies = [r for r in replies if r.layers is not None and r.status == 200]
        traces = fetch_traces(server, traced_replies) if ctx.trace else {}
        peak_kb = peak_at[0] or server.peak_rss_kb()
    finally:
        server.stop()

    # Correctness: every served evaluation equals the one-shot record, and
    # the ledger holds one record per request the server answered.
    log = OpLog()
    references: dict[tuple[str, tuple[int, int]], dict] = {}
    replies.sort(key=lambda r: r.index)
    t_new = 0
    for reply in replies:
        if reply.status != 200:
            log.fail()
            if reply.status is not None:
                problems.append(f"request {reply.index}: HTTP {reply.status}")
            continue
        log.ok(reply.latency)
        request = stream[reply.index]
        key = (request.source, request.case)
        if key not in references:
            references[key] = checks.one_shot_record(request.source, request.case, inputs.N)
        if reply.evaluation != references[key]:
            log.mismatches += 1
            problems.append(f"request {reply.index}: served evaluation differs from one-shot record")
        elif reply.index < inputs.STREAM_PASS:
            t_new += reply.evaluation["t_new"]
    answered = posted + sum(1 for r in replies if r.status is not None)
    records = ledger_records(server.ledger)
    if records != answered:
        problems.append(f"ledger holds {records} service evaluate records for {answered} answered requests")
        log.mismatches += abs(answered - records)

    metrics = {"setup_s": (statistics.median(setups), "s")}
    timing_metrics([Round(elapsed, log)], metrics, notes)
    notes.append(f"failed_ratio = {log.failed_ratio:.6f} ({log.failed} of {log.attempted} ops)")
    metrics["peak_rss_mb"] = (rss_mb(peak_kb), "MB")
    metrics["t_new_cycles"] = (float(t_new), "cycles")
    hits = sum(1 for r in replies if stream[r.index].hot)
    notes.append(
        f"{len(replies)} requests over 2 connections ({hits} hot, {len(replies) - hits} never-seen); "
        f"ledger {records} records; t_new over the first {inputs.STREAM_PASS} requests"
    )
    layers = per_layer_defaults()
    recorder = None
    if ctx.trace:
        served_layers(replies, traced_replies, traces, before, after, ledger_after - ledger_before, layers, notes)
        interpreter_metrics(ctx, layers)
        recorder = client_spans(traced_replies)
    return Result(log, metrics, layers, notes, problems, recorder)


#: Client-side spans of one traced request, in order.
CLIENT_LAYERS = ("client.send", "client.wait", "client.read", "client.decode")


def client_spans(traced: list[Reply]) -> SpanRecorder:
    """The traced requests as spans: a root per request and one child per
    client layer, back to back."""
    recorder = SpanRecorder()
    for reply in traced:
        root = len(recorder.spans)
        start = int(reply.started * 1e9)
        recorder.spans.append([recorder.ops, OP_SPAN, start, start + int(reply.latency * 1e9), None])
        for name, seconds in zip(CLIENT_LAYERS, reply.layers):
            end = start + int(seconds * 1e9)
            recorder.spans.append([recorder.ops, name, start, end, root])
            start = end
        recorder.ops += 1
    return recorder


def ledger_records(path: Path) -> int:
    count = 0
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("kind") == "run" and record.get("command") == "service evaluate":
                count += 1
    return count


def fetch_traces(server: Server, traced: list[Reply]) -> dict[str, dict]:
    """``GET /v1/trace/<id>`` for the traced replies the flight recorder
    still retains (it keeps the most recent requests)."""
    traces = {}
    connection = server.connection()
    try:
        for reply in reversed(traced):
            connection.request("GET", f"/v1/trace/{reply.request_id}")
            response = connection.getresponse()
            body = json.loads(response.read())
            if response.status != 200:
                break
            traces[reply.request_id] = body
    finally:
        connection.close()
    return traces


def _counter(snapshot: dict, name: str) -> float:
    return snapshot.get("metrics", {}).get("counters", {}).get(name, 0)


def _p50_tail_ms(values: list[float]) -> tuple[float, float]:
    if not values:
        return 0.0, 0.0
    found = tail(values)
    return statistics.median(values) * 1e3, (found.value if found else max(values)) * 1e3


def served_layers(replies, traced, traces, before, after, ledger_bytes, layers, notes) -> None:
    """Client-side layers of the traced requests, the server's view of the
    same requests from its flight recorder, and the counters the server
    exports at ``GET /v1/metrics`` (differenced over the timed window)."""
    count = max(len(traced), 1)
    for position, name in enumerate(CLIENT_LAYERS):
        layers[f"{name}_ms"] = (sum(r.layers[position] for r in traced) / count * 1e3, "ms")
    layers["pipeline.unattributed_s"] = (sum(r.latency - sum(r.layers) for r in traced) / count, "s")
    matched = [r for r in traced if r.request_id in traces]
    server = [traces[r.request_id]["wall_s"] for r in matched]
    gaps = [r.latency - traces[r.request_id]["wall_s"] for r in matched]
    layers["service.server_p50_ms"], layers["service.server_tail_ms"] = (
        (value, "ms") for value in _p50_tail_ms(server)
    )
    layers["service.gap_p50_ms"], layers["service.gap_tail_ms"] = (
        (value, "ms") for value in _p50_tail_ms(gaps)
    )
    grid = [
        sum(s["duration_ns"] for s in traces[r.request_id]["spans"] if s["depth"] == 1) / 1e6
        for r in matched
    ]
    layers["service.grid_ms"] = (sum(grid) / len(grid) if grid else 0.0, "ms")
    layers["service.coalesced_mean"] = (sum(r.coalesced for r in traced) / count, "count")
    hits = _counter(after, "perf.batch.eval.hit") - _counter(before, "perf.batch.eval.hit")
    misses = _counter(after, "perf.batch.eval.miss") - _counter(before, "perf.batch.eval.miss")
    layers["perf.batch.eval_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    layers["obs.ledger.bytes_per_request"] = (ledger_bytes / max(len(replies), 1), "B")
    untraced = sum(1 for r in replies if r.layers is None)
    layers["trace.overhead_ratio"] = (len(traced) / untraced if untraced else 0.0, "ratio")
    notes.append(
        f"traced requests: {len(traced)} (alternate quarters of the window), "
        f"{len(matched)} with a retained server trace; per request, client layers + "
        f"unattributed = client latency"
    )


# -- oneshot_cli -----------------------------------------------------------------------


def oneshot_cli(ctx: Context) -> Result:
    golden_out, golden_err = checks.cli_golden(ctx.root)
    plain = [sys.executable, "-m", "repro", *checks.CLI_ARGV]
    spans_path = ctx.scratch / "cli-spans.json"
    traced_argv = [
        sys.executable, "-X", "importtime", str(ctx.root / "perfbench" / "child.py"),
        "cli", str(spans_path), *checks.CLI_ARGV,
    ]
    problems: list[str] = []
    recorder = SpanRecorder() if ctx.trace else None
    imports: list[dict[str, float]] = []

    ctx.run_child(plain)  # warm-up

    def one_round(_index: int, traced: bool) -> Round:
        log = OpLog()
        elapsed, code, stdout, stderr = ctx.run_child(traced_argv if traced else plain)
        if code != 0:
            log.fail()
            problems.append(f"exit {code}: {stderr.decode()[-500:]}")
            return Round(elapsed, log, traced)
        log.ok(elapsed)
        # Traced children print -X importtime lines on stderr.
        if stdout != golden_out or (not traced and stderr != golden_err):
            log.mismatches += 1
            problems.append("output differs from the CLI golden")
        if traced:
            imports.append(import_times(stderr.decode()))
            merge_child_spans(recorder, json.loads(spans_path.read_text()), elapsed)
        return Round(elapsed, log, traced, checks.sweep_t_new(stdout))

    rounds, setup_s = run_rounds(ctx, one_round, "oneshot_cli")
    notes = [
        f"{len(rounds)} `repro {' '.join(checks.CLI_ARGV)}` processes; "
        f"t_new per sweep {sorted({r.t_new for r in rounds if r.log.refused == 0})}"
    ]
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss), "MB"),
        "t_new_cycles": (float(statistics.median(r.t_new for r in rounds if r.log.refused == 0)), "cycles"),
    }
    result = finish(ctx, rounds, metrics, notes, recorder, problems)
    if ctx.trace:
        layers = result.per_layer
        per_op = self_times(recorder.spans)
        ops = max(recorder.ops, 1)
        layers["cli.op_ms"] = (sum(s.get(OP_SPAN, 0.0) for s in per_op.values()) / ops * 1e3, "ms")
        layers["pipeline.unattributed_s"] = (sum(s.get(UNATTRIBUTED, 0.0) for s in per_op.values()) / ops, "s")
        layers["python.startup_ms"] = python_startup_ms(ctx)
        import_metrics(imports, layers)
    return result


#: Span name, in a one-shot op, for the process time outside ``import``
#: and the CLI call: interpreter start-up and teardown.
UNATTRIBUTED = "process"


def merge_child_spans(recorder: SpanRecorder, dumped: dict, wall: float) -> None:
    """Adopt one traced CLI child's spans and counters as one op, under a
    root span of the op's spawn-to-exit wall time, so self times add up
    to it."""
    spans = dumped["spans"]
    op = recorder.ops
    root = len(recorder.spans)
    first = min(row[2] for row in spans)
    recorder.spans.append([op, UNATTRIBUTED, first, first + int(wall * 1e9), None])
    for row in spans:
        parent = root if row[4] is None else row[4] + root + 1
        recorder.spans.append([op, row[1], row[2], row[3], parent])
    for name, value in dumped["counters"].items():
        recorder.counters[name] += value
    recorder.ops += 1
