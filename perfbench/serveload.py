"""The ``serve_zipf`` workload: an open loop against ``repro serve``.

The server runs in its own process (``python -m repro serve --port 0
--workers 2``, or :mod:`serve_launcher` for the traced run), so the
client never shares its interpreter lock. Two keep-alive connections
carry all load. Questions are asked Zipf-skewed from the dev set and
carry no gold SQL, like real traffic; the client scores the answers it
got back after the run, so the server does no scoring work.

The timed phase is an open-loop step at the nominal rate, timed from
when each request was due, then a closed loop with both connections
saturated, then a ladder of rising rates. The end-to-end figures come
from the saturated loop, scaled by a calibration unit the client times
after each response (see :mod:`calibrate`); the open-loop figures are
notes. At a low rate every request wakes an idle server, and on a shared
host how long that takes depends on the other tenants: the open-loop
median of the same code moved by 40 % and more between runs, while the
saturated loop keeps the machine busy. The worker pins client and server
to one CPU (see ``worker.run_serve``).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import time

import calibrate
import measure
import openloop
from spec import DATA_SEED, DEV_CORRECT

CONNECTIONS = 2
WORKERS = 2
ZIPF_SKEW = 1.2
#: The server runs Python under one interpreter lock, so it is a single
#: queue: at 50 req/s it is busy about 20 % of the time when it can
#: serve 250 req/s, and still under half when a slower machine halves
#: that, so the latency measured stays the service time plus little
#: queueing.
NOMINAL_RATE = 50.0
#: Ladder above the nominal rate, climbed until a step misses the limit
#: or the timed phase ends.
LADDER = (80.0, 100.0, 120.0, 140.0, 160.0, 180.0, 200.0, 240.0, 280.0)
LATENCY_LIMIT_MS = 50.0
#: Shares of the timed phase: nominal-rate step, then saturation; the
#: ladder gets the rest.
NOMINAL_SHARE = 0.3
SATURATE_SHARE = 0.5
#: Requests in one pass of the saturated loop: the Zipf mix rounded to
#: whole requests, sent in a seeded order; the loop runs whole passes.
SATURATE_PASS = 256
#: The saturated loop's tail is the median over this many consecutive
#: batches of each batch's tail: it is set by rare events in the server
#: (collections, time slices), and one cluster of them decided a tail
#: over the whole loop, which moved by 15 to 25 % between runs.
TAIL_BATCHES = 5
STEP_S = 1.2
DRAIN_TIMEOUT_S = 60.0


class Server:
    """One server process: boot, address, peak memory, drain."""

    def __init__(self, root, traced=False):
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=os.path.join(root, "src"))
        if traced:
            argv = [sys.executable, os.path.join(root, "perfbench",
                                                 "serve_launcher.py")]
        else:
            argv = [sys.executable, "-m", "repro", "serve"]
        argv += ["--port", "0", "--workers", str(WORKERS)]
        self.process = subprocess.Popen(
            argv, cwd=root, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        banner = self.process.stdout.readline()
        if " on http://" not in banner:
            self.kill()
            raise RuntimeError(
                f"server did not start: {banner!r} "
                f"{self.process.stderr.read()[-2000:]}"
            )
        address = banner.split(" on http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def peak_rss_mb(self):
        return measure.peak_rss_mb(self.process.pid)

    def stop(self):
        """SIGINT, wait for the drain; returns the process's remaining
        stdout. Raises when the drain does not finish."""
        self.process.send_signal(signal.SIGINT)
        try:
            out, err = self.process.communicate(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server drain did not finish") from None
        if self.process.returncode != 0 or "drained" not in out:
            raise RuntimeError(
                f"server drain failed (exit {self.process.returncode}): "
                f"{out[-500:]} {err[-2000:]}"
            )
        return out

    def mark(self):
        """Ask the traced launcher to mark a window boundary."""
        self.process.stdin.write("mark\n")
        self.process.stdin.flush()
        if self.process.stdout.readline().strip() != "mark":
            raise RuntimeError("traced server did not mark the window")

    def kill(self):
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()


class Connection:
    """One keep-alive connection; ``send`` never raises."""

    def __init__(self, host, port):
        self.host, self.port = host, port
        self.conn = None

    def request(self, method, path, payload=None):
        if self.conn is None:
            self.conn = http.client.HTTPConnection(self.host, self.port,
                                                   timeout=60)
        body = None if payload is None else json.dumps(payload)
        headers = {} if payload is None else {
            "Content-Type": "application/json"}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        return response.status, json.loads(data) if data else None

    def send(self, payload):
        try:
            status, body = self.request("POST", "/ask", payload)
        except (OSError, http.client.HTTPException, ValueError):
            self.conn = None
            return False, None
        if status != 200:
            return False, None
        return True, body["sql"]


class ServeWorkload:
    """Setup boots the server and sends every dev question once."""

    def __init__(self, root, seed, traced=False):
        from repro.bench.bird import build_workload

        self.root = root
        self.seed = seed
        self.questions = build_workload(DATA_SEED).questions
        popularity = list(range(len(self.questions)))
        random.Random(DATA_SEED).shuffle(popularity)
        self.popularity = popularity
        self.reference = {}
        self.units_ms = []   # calibration, after each warm-up request
        self.errors = []
        self.server = None
        self.boot(traced)

    def payload(self, index):
        question = self.questions[index]
        return {"tenant": question.database, "question": question.question}

    def boot(self, traced):
        self.server = Server(self.root, traced=traced)
        connection = Connection(self.server.host, self.server.port)
        for index in range(len(self.questions)):
            ok, sql = connection.send(self.payload(index))
            if not ok:
                self.server.kill()
                raise RuntimeError(f"warm-up request {index} failed")
            self.units_ms.append(calibrate.unit_ms())
            if self.reference.setdefault(index, sql) != sql:
                self.errors.append(f"question {index}: warm-up answers "
                                   f"differ between server boots")

    def send_factory(self):
        connection = Connection(self.server.host, self.server.port)

        def send(index):
            ok, sql = connection.send(self.payload(index))
            return ok, (index, sql)
        return send

    def step(self, rate, duration_s, step):
        """Open-loop step: Poisson arrivals at ``rate``, Zipf-skewed
        questions."""
        rng = random.Random(f"{self.seed}:{step}")
        offsets = openloop.poisson_offsets(rate, duration_s, rng)
        ranks = openloop.zipf_ranks(len(offsets), len(self.popularity),
                                    ZIPF_SKEW, rng)
        start, samples = openloop.send_on_schedule(
            offsets, [self.popularity[rank] for rank in ranks],
            self.send_factory, CONNECTIONS)
        return openloop.StepResult(rate, duration_s, start, samples)

    def saturate(self, duration_s):
        """Closed-loop step: both connections busy all the time, a
        calibration unit after each response."""
        rng = random.Random(f"{self.seed}:saturate")
        ranks = openloop.zipf_ranks(SATURATE_PASS, len(self.popularity),
                                    ZIPF_SKEW, rng)
        return openloop.saturate([self.popularity[rank] for rank in ranks],
                                 self.send_factory, CONNECTIONS, duration_s,
                                 unit_ms=calibrate.unit_ms)

    def rejected(self):
        status, body = Connection(self.server.host,
                                  self.server.port).request("GET",
                                                            "/healthz")
        return body["rejected"]

    def check(self, steps):
        """Score after the run: the warm-up sweep must read EX 65.15 and
        every timed answer must score like the sweep's for its question."""
        from repro.bench.cache import EvaluationCache
        from repro.bench.metrics import execution_match
        from repro.bench.schemas import build_all

        profiles = build_all(DATA_SEED)
        cache = EvaluationCache()

        def score(index, sql):
            question = self.questions[index]
            return execution_match(profiles[question.database].database,
                                   sql, question.gold_sql, cache=cache)

        verdicts = {index: score(index, sql)
                    for index, sql in self.reference.items()}
        errors = list(self.errors)
        correct = sum(verdicts.values())
        if correct != DEV_CORRECT:
            errors.append(f"warm-up sweep: {correct} correct, expected "
                          f"{DEV_CORRECT} of {len(verdicts)}")
        failed = 0
        scored = {}
        for step in steps:
            for sample in step.samples:
                if not sample.ok:
                    failed += 1
                    continue
                index, sql = sample.answer
                key = (index, sql)
                if key not in scored:
                    scored[key] = score(index, sql)
                if scored[key] != verdicts[index]:
                    failed += 1
                    errors.append(f"question {index}: served answer scores "
                                  f"{scored[key]}, sweep scored "
                                  f"{verdicts[index]}")
        return errors[:20], failed, 100.0 * correct / len(verdicts)


def max_rate(nominal, ladder_steps):
    """Highest rate meeting the latency limit with no growing backlog and
    no failure, walking the ladder from the nominal step upwards."""
    best = 0.0
    for step in [nominal] + ladder_steps:
        if not meets_limit(step):
            break
        best = step.rate
    return best


def meets_limit(step):
    latencies = [s.latency_s * 1000.0 for s in step.samples]
    value, _ = measure.tail(latencies)
    return (step.failed == 0 and value <= LATENCY_LIMIT_MS
            and not step.backlog_grows(slack=CONNECTIONS))


def latencies_ms(step, since_due=True):
    return [((s.done - s.due) if since_due else (s.done - s.sent)) * 1000.0
            for s in step.samples]


def run(root, seed, seconds, ready, setup_only=False):
    """Untraced run: the nominal step, a saturation step, then the ladder
    until a step misses the latency limit or the time is up."""
    workload = ServeWorkload(root, seed)
    try:
        ready(workload.units_ms)
        if setup_only:
            return None
        started = time.monotonic()
        steps = [workload.step(NOMINAL_RATE, seconds * NOMINAL_SHARE, 0)]
        saturated_s, saturated = workload.saturate(seconds * SATURATE_SHARE)
        for number, rate in enumerate(LADDER, start=1):
            if not meets_limit(steps[-1]):
                break
            if time.monotonic() - started + STEP_S > seconds:
                break
            steps.append(workload.step(rate, STEP_S, number))
        elapsed = time.monotonic() - started
        rejected = workload.rejected()
        rss = workload.server.peak_rss_mb()
    finally:
        workload.server.stop()
    saturation = openloop.StepResult(0.0, saturated_s, samples=saturated)
    errors, failed, ex = workload.check(steps + [saturation])
    served = [s for s in saturated if s.ok]
    metrics, notes = measure.scaled_metrics(
        [s.latency_s * 1000.0 for s in served],
        [s.unit_ms for s in served], concurrency=CONNECTIONS,
        tail_batches=TAIL_BATCHES)
    nominal = latencies_ms(steps[0])
    return {
        "errors": errors,
        "attempted": sum(len(step.samples) for step in steps)
        + len(saturated),
        "failed": failed,
        "metrics": {**metrics, "ex_pct": ex, "peak_rss_mb": rss},
        "notes": {
            **notes,
            "saturated_qps_as_measured": round(
                len(saturated) / saturated_s, 2),
            "nominal_rate_qps": NOMINAL_RATE,
            "nominal_p50_ms_as_measured": round(measure.median(nominal), 3),
            "nominal_tail_ms_as_measured": round(
                measure.tail(nominal)[0], 3),
            "max_rate_qps": max_rate(steps[0], steps[1:]),
            "server_rejected": rejected,
            "timed_s": round(elapsed, 3),
            "ladder": [
                [step.rate, len(step.samples),
                 round(measure.tail(latencies_ms(step))[0], 2),
                 meets_limit(step)]
                for step in steps
            ],
        },
    }


def trace(root, seed, seconds, ready, setup_only=False):
    """Traced run: the nominal step against a plain server, then against
    the traced launcher; per-layer numbers come from the second."""
    import layers

    workload = ServeWorkload(root, seed)
    try:
        ready(workload.units_ms)
        if setup_only:
            return None
        untraced = workload.step(NOMINAL_RATE, seconds / 2.0, 0)
    finally:
        workload.server.stop()
    workload.boot(traced=True)
    try:
        workload.server.mark()
        traced = workload.step(NOMINAL_RATE, seconds / 2.0, 1)
        workload.server.mark()
        rejected = workload.rejected()
    finally:
        out = workload.server.stop()
    errors, failed, _ex = workload.check([untraced, traced])
    dump = next((json.loads(line[len("TRACE "):])
                 for line in out.splitlines() if line.startswith("TRACE ")),
                None)
    if dump is None:
        raise RuntimeError("traced server printed no TRACE line")
    names, selfs = dump["names"], dict(dump["layers"])
    client_s = sum(latencies_ms(traced, since_due=False)) / 1000.0
    dispatch_s = names.get("serve.dispatch", {}).get("total_s", 0.0)
    selfs["serve"] = selfs.get("serve", 0.0) + client_s - dispatch_s
    ops = names.get("serve.dispatch", {}).get("calls", 0)
    client_ms = measure.mean(latencies_ms(traced, since_due=False))
    metrics = layers.layer_metrics(
        names, selfs, dump["counters"], dump["deltas"], ops, client_s,
        extra={
            "serve.client_ms": client_ms,
            "serve.http_ms": client_ms - 1000.0 * dispatch_s / ops,
            "serve.rejected": rejected,
            "serve.generator_lateness_ms": measure.mean(
                [s.lateness_s * 1000.0 for s in traced.samples]),
            "trace.overhead_pct": 100.0 * (
                measure.median(latencies_ms(traced))
                / measure.median(latencies_ms(untraced)) - 1.0),
        },
    )
    return {
        "errors": errors,
        "attempted": len(untraced.samples) + len(traced.samples),
        "failed": failed,
        "metrics": metrics,
        "notes": {"traced_ops": ops, "largest_layer": layers.largest(selfs)},
    }
