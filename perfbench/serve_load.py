"""The ``serve-mixed`` workload: an open loop against the query server.

The server runs in a subprocess (``python -m repro serve --port 0
--workers 2``, or :mod:`serve_launcher` for a traced run).  This process
drives it from one asyncio thread over two pipelined connections: each
request is sent at its due time whether or not earlier ones have been
answered, and timed from that due time, so a stall also delays the
requests queued behind it.

Eight session slots stay live.  Each slot is pinned to one connection,
so its ``create`` always reaches the server before its other requests.
A slot walks down its session's ε menu, loosest first; once it has asked
for its tightest ε it drops the session and creates a fresh one.

Phases, in order:

1. set-up, :data:`SETUPS` times: start the server and create the eight
   sessions;
2. quiet, closed loop, in rounds for the run's ``--seconds``: a cold
   ``sweep`` request on a fresh zeta session (``facts_per_s``), a cold
   ``create`` + ``query`` pair on a fresh geometric session of each query
   variant (``oneshot_s``), and tightening ``query`` requests on another fresh
   geometric session (``step_p50_ms``, ``step_p90_ms``);
3. open loop at each of :data:`RATES`, the lowest one first, for
   :data:`REQUESTS_PER_RATE` arrivals each (``serve_p50_ms``,
   ``serve_p90_ms``, ``serve_max_rps``, ``partial_share``).

The quiet phase gives the figures that ``BENCHMARK.json`` bounds: on a
shared machine the open loop's percentiles move by a third from run to
run, too much for a regression bound, so they are printed, not bounded.
Set-ups and quiet-phase requests are timed on a :class:`measure.Clock`,
which scales each wall time to the reference machine speed; the open
loop keeps plain wall times, as its arrivals run on the wall clock.

Every value a response carries is then checked against an in-process
``build_session(spec).refine(ε)`` (``refine_marginals`` for a
``marginals`` response) at the ε the response reports.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import library
import measure

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Open-loop rates in requests per second, lowest first, each for
#: :data:`REQUESTS_PER_RATE` arrivals.
RATES = (20.0, 40.0, 80.0)
REQUESTS_PER_RATE = 100
#: The p90 latency a rate must meet to count toward ``serve_max_rps``.
LATENCY_LIMIT_MS = 500.0
SETUPS = 7
SLOTS = 8

#: Session families: a spec (what ``create`` sends) and its ε menu,
#: loosest first.  The server's ε budget is 0.05: menu entries below it
#: are queued and drained in the background.
KINDS = {
    "geo": {
        "spec": {"schema": {"R": 1, "S": 2},
                 "family": {"kind": "geometric", "first": 0.05, "ratio": 0.998},
                 "query": ["EXISTS x, y. (R(x) AND S(x, y))",
                           "EXISTS u, v. (S(u, v) AND R(u))"]},
        "menu": [0.3, 0.2, 0.1, 0.07, 0.05, 0.03, 0.02, 0.01, 0.005],
    },
    "zeta": {
        "spec": {"schema": {"R": 1, "S": 2},
                 "family": {"kind": "zeta", "exponent": 1.5, "scale": 0.5},
                 "query": ["EXISTS x, y. (R(x) AND S(x, y))",
                           "EXISTS u, v. (S(u, v) AND R(u))"]},
        "menu": [0.3, 0.2, 0.1, 0.07, 0.05, 0.035, 0.025, 0.02],
    },
    "h0": {
        "spec": {"schema": {"R": 1, "S": 2, "T": 1},
                 "family": {"kind": "geometric", "first": 0.3, "ratio": 0.95},
                 "query": ["EXISTS x, y. (R(x) AND S(x, y) AND T(y))",
                           "EXISTS u, v. (T(v) AND S(u, v) AND R(u))"]},
        "menu": [0.3, 0.27, 0.245, 0.22, 0.2],
    },
    "answers": {
        "spec": {"schema": {"R": 1, "S": 2, "T": 1},
                 "family": {"kind": "geometric", "first": 0.3, "ratio": 0.95},
                 "query": ["EXISTS y. (R(x) AND S(x, y))",
                           "EXISTS v. (S(x, v) AND R(x))"]},
        "menu": [0.1, 0.05, 0.03],
    },
}
SLOT_KINDS = ["geo", "zeta", "h0", "answers", "geo", "zeta", "geo", "answers"]
BOOLEAN_SLOTS = [i for i, kind in enumerate(SLOT_KINDS) if kind != "answers"]
ANSWER_SLOTS = [i for i, kind in enumerate(SLOT_KINDS) if kind == "answers"]
#: One deck of operations, dealt in seeded order: the mix's proportions
#: are fixed, the order comes from the seed.  Sessions are dealt the same
#: way.
DECK = ["query"] * 13 + ["best"] * 4 + ["sweep"] * 2 + ["marginals"]


@dataclass
class Request:
    body: dict
    conn: int
    #: ``(kind, variant)`` of the session the request is for.
    spec_key: Optional[tuple] = None
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    response: Optional[dict] = None

    @property
    def latency(self):
        return self.done - self.due


@dataclass
class Outcome(measure.Tally):
    """What a serve run measured; set-up and quiet-phase times are
    reference-speed seconds from :attr:`clock`."""
    #: The server's threads and pool workers run beside this process.
    clock: measure.Clock = field(default_factory=lambda: measure.Clock(every_cpu=True))
    setups: List[float] = field(default_factory=list)
    steps: List[float] = field(default_factory=list)
    #: ``(facts in the tightest truncation, seconds)`` of each timed sweep.
    sweeps: List[tuple] = field(default_factory=list)
    oneshots: List[float] = field(default_factory=list)
    phases: List[dict] = field(default_factory=list)
    answered: List[Request] = field(default_factory=list)
    rss_mb: float = 0.0
    #: Seconds from the kept server's first request to the last response:
    #: the time its spans can cover.
    wall_s: float = 0.0
    spans: Optional[dict] = None
    #: (spec key, ε) → value, for comparing a traced run with a plain one.
    values: Dict[tuple, object] = field(default_factory=dict)


class Generator:
    """Seeded request stream over :data:`SLOTS` session slots."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"serve-mixed:{seed}")
        # Two variants of each session kind, used equally in every run:
        # the two query texts, each with its own ε menu (every entry
        # moved within ±5%, order kept).  A slot alternates between them
        # from one session to the next.
        self.menus = {
            (kind, variant): [e * (1 + self.rng.uniform(-0.05, 0.05)) for e in info["menu"]]
            for kind, info in KINDS.items() for variant in (0, 1)
        }
        self.generation = [0] * SLOTS
        self.level = [0] * SLOTS
        self.decks = {"ops": [], "boolean": [], "answers": []}

    @staticmethod
    def spec(key):
        kind, variant = key
        spec = dict(KINDS[kind]["spec"])
        spec["query"] = spec["query"][variant]
        return spec

    def key(self, slot):
        return SLOT_KINDS[slot], (slot + self.generation[slot]) % 2

    def name(self, slot):
        return f"{SLOT_KINDS[slot]}-{slot}-{self.generation[slot]}"

    def create(self, slot):
        key = self.key(slot)
        return Request({"op": "create", "session": self.name(slot), "spec": self.spec(key)},
                       slot % 2, key)

    def creates(self):
        return [self.create(slot) for slot in range(SLOTS)]

    def _recreate(self, slot):
        drop = Request({"op": "drop", "session": self.name(slot)}, slot % 2, self.key(slot))
        self.generation[slot] += 1
        self.level[slot] = 0
        return [drop, self.create(slot)]

    def _advance(self, slot, steps=1):
        """The next ``steps`` menu entries of ``slot`` (recreating its
        session first when the menu is used up)."""
        out = []
        if self.level[slot] >= len(self.menus[self.key(slot)]):
            out = self._recreate(slot)
        menu = self.menus[self.key(slot)]
        epsilons = menu[self.level[slot]:self.level[slot] + steps]
        self.level[slot] += len(epsilons)
        return out, epsilons

    def _deal(self, deck, cards):
        """The next card of a deck that is reshuffled when used up: every
        card comes up equally often, in seeded order."""
        if not self.decks[deck]:
            self.decks[deck] = list(cards)
            self.rng.shuffle(self.decks[deck])
        return self.decks[deck].pop()

    def next_requests(self):
        """The request(s) of the next arrival: one request, or a drop and
        a create followed by the request that needed the fresh session."""
        op = self._deal("ops", DECK)
        rng = self.rng
        if op == "marginals":
            slot = self._deal("answers", ANSWER_SLOTS)
            out, (epsilon,) = self._advance(slot)
            body = {"op": "marginals", "session": self.name(slot), "epsilon": epsilon}
        else:
            slot = self._deal("boolean", BOOLEAN_SLOTS)
            if op == "best":
                out, body = [], {"op": "best", "session": self.name(slot)}
            elif op == "sweep":
                out, epsilons = self._advance(slot, 2)
                body = {"op": "sweep", "session": self.name(slot), "epsilons": epsilons}
            elif self.level[slot] > 0 and rng.random() < 0.25:
                # Ask again for an ε already asked of this session.
                menu = self.menus[self.key(slot)]
                out = []
                body = {"op": "query", "session": self.name(slot),
                        "epsilon": menu[rng.randrange(self.level[slot])]}
            else:
                out, (epsilon,) = self._advance(slot)
                body = {"op": "query", "session": self.name(slot), "epsilon": epsilon}
        return out + [Request(body, slot % 2, self.key(slot))]

    def schedule(self, rate, count, start):
        """``count`` arrivals at ``rate`` per second from ``start``: one
        every 1/rate seconds, each moved by up to 10% of that gap."""
        gap = 1.0 / rate
        requests = []
        for i in range(count):
            due = start + (i + self.rng.uniform(-0.1, 0.1)) * gap
            for request in self.next_requests():
                request.due = due
                requests.append(request)
        return requests


# ------------------------------------------------------------------ client
class Client:
    """Two pipelined connections; responses come back in request order
    on each connection."""

    def __init__(self, streams):
        self.streams = streams
        self.pending = [deque() for _ in streams]
        self.readers = [asyncio.ensure_future(self._read(i)) for i in range(len(streams))]

    @classmethod
    async def connect(cls, port, count=2):
        streams = [await asyncio.open_connection("127.0.0.1", port) for _ in range(count)]
        return cls(streams)

    async def _read(self, i):
        reader = self.streams[i][0]
        while True:
            line = await reader.readline()
            if not line:
                break
            request, future = self.pending[i].popleft()
            request.done = time.perf_counter()
            request.response = json.loads(line)
            future.set_result(request)
        for request, future in self.pending[i]:
            if not future.done():
                future.set_exception(ConnectionError("server closed the connection"))

    def send(self, request):
        future = asyncio.get_running_loop().create_future()
        request.sent = time.perf_counter()
        self.pending[request.conn].append((request, future))
        self.streams[request.conn][1].write((json.dumps(request.body) + "\n").encode())
        return future

    async def call(self, request):
        request.due = time.perf_counter()
        return await self.send(request)

    async def close(self):
        for _, writer in self.streams:
            writer.close()
        for reader in self.readers:
            await asyncio.gather(reader, return_exceptions=True)


async def open_loop(client, requests):
    """Send each request at its due time; wait for every response."""
    futures = []
    for request in requests:
        delay = request.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        futures.append(client.send(request))
    await asyncio.gather(*futures)


# ------------------------------------------------------------------ server
class Server:
    """The server subprocess, started from the checkout root."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.proc = None
        self.port = None
        self.stderr: List[str] = []

    async def start(self):
        if self.traced:
            argv = [sys.executable, str(HERE / "serve_launcher.py")]
        else:
            argv = [sys.executable, "-m", "repro", "serve"]
        argv += ["--port", "0", "--workers", "2"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.proc = await asyncio.create_subprocess_exec(
            *argv, env=env, cwd=str(HERE.parent),
            stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.PIPE)
        while True:
            line = await asyncio.wait_for(self.proc.stderr.readline(), 60)
            if not line:
                raise RuntimeError("server exited before announcing its port: "
                                   + "".join(self.stderr))
            text = line.decode(errors="replace")
            self.stderr.append(text)
            if text.startswith("serving on "):
                self.port = int(text.rsplit(":", 1)[1])
                break
        self._stderr_task = asyncio.ensure_future(self._drain_stderr())

    async def _drain_stderr(self):
        while True:
            line = await self.proc.stderr.readline()
            if not line:
                return
            self.stderr.append(line.decode(errors="replace"))

    def peak_rss_mb(self):
        pid = self.proc.pid
        return measure.peak_rss_mb(pid) + sum(
            measure.peak_rss_mb(child) for child in measure.child_pids(pid))

    async def stop(self, client):
        """Ask the server to shut down; returns its exported spans when
        traced."""
        try:
            await asyncio.wait_for(
                client.call(Request({"op": "shutdown"}, 0)), 30)
        finally:
            await client.close()
        out = b""
        try:
            out = await asyncio.wait_for(self.proc.stdout.read(), 60)
            await asyncio.wait_for(self.proc.wait(), 30)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()
        await self._stderr_task
        if self.traced and out:
            return json.loads(out)
        return None

    async def kill(self):
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


# -------------------------------------------------------------------- runs
def _ok(outcome, request):
    response = request.response or {}
    outcome.attempted += 1
    if response.get("ok"):
        outcome.answered.append(request)
        return True
    outcome.fail(f"{request.body.get('op')} refused: {response.get('error')}")
    return False


async def _setup(generator, traced, clock):
    """Start the server and create the eight sessions; returns the
    server, a connected client, the scaled seconds and the time of the
    first request."""
    clock.start()
    server = Server(traced)
    await server.start()
    client = await Client.connect(server.port)
    first = time.perf_counter()
    for request in generator.creates():
        await client.call(request)
    return server, client, clock.stop(), first


async def _quiet(generator, client, outcome, seconds=0.0, rounds=None):
    """Closed-loop cold paths on a quiet server, in rounds until
    ``seconds`` of rounds have passed (or exactly ``rounds`` rounds).  A
    warm-up round comes first: its answers are checked, its times not
    kept."""
    i = busy = 0
    while i == 0 or ((busy < seconds) if rounds is None else (i <= rounds)):
        t0 = time.perf_counter()
        await _quiet_round(generator, client, outcome, i)
        if i:
            busy += time.perf_counter() - t0
        i += 1


async def _quiet_round(generator, client, outcome, i):
    """Round ``i`` of the quiet phase; round 0 keeps no times."""
    name, key = f"quiet-zeta-{i}", ("zeta", i % 2)
    create = Request({"op": "create", "session": name, "spec": generator.spec(key)}, 0, key)
    _ok(outcome, await client.call(create))
    sweep = Request({"op": "sweep", "session": name,
                     "epsilons": generator.menus[key]}, 0, key)
    clock = outcome.clock
    clock.start()
    await client.call(sweep)
    seconds = clock.stop()
    if _ok(outcome, sweep) and i:
        tightest = sweep.response["result"][-1]["truncation"]
        outcome.sweeps.append((tightest, seconds))
    _ok(outcome, await client.call(Request({"op": "drop", "session": name}, 0)))

    # One cold session per query variant: two one-shot samples a round.
    for variant in (0, 1):
        name, key = f"quiet-geo-{i}-{variant}", ("geo", variant)
        create = Request({"op": "create", "session": name, "spec": generator.spec(key)}, 1, key)
        query = Request({"op": "query", "session": name, "wait": True,
                         "epsilon": generator.menus[key][-1]}, 1, key)
        clock.start()
        await client.call(create)
        await client.call(query)
        seconds = clock.stop()
        ok = _ok(outcome, create)
        ok = _ok(outcome, query) and ok
        if ok and i:
            outcome.oneshots.append(seconds)
        _ok(outcome, await client.call(Request({"op": "drop", "session": name}, 1)))

    # Every query after the first, which builds the table, is a
    # tightening step.
    name, key = f"steps-geo-{i}", ("geo", i % 2)
    conn = i % 2
    _ok(outcome, await client.call(
        Request({"op": "create", "session": name, "spec": generator.spec(key)}, conn, key)))
    for j, epsilon in enumerate(generator.menus[key]):
        query = Request({"op": "query", "session": name, "epsilon": epsilon,
                         "wait": True}, conn, key)
        clock.start()
        await client.call(query)
        seconds = clock.stop()
        if _ok(outcome, query) and i and j:
            outcome.steps.append(seconds)
    _ok(outcome, await client.call(Request({"op": "drop", "session": name}, conn, key)))


async def _run(seed, seconds, traced, rates, setups, quiet_rounds=None):
    generator = Generator(seed)
    outcome = Outcome()
    server = client = None
    try:
        for i in range(setups):
            server, client, elapsed, start = await _setup(generator, traced, outcome.clock)
            outcome.setups.append(elapsed)
            if i < setups - 1:
                await server.stop(client)
        await _quiet(generator, client, outcome, seconds, quiet_rounds)
        for rate in rates:
            requests = generator.schedule(rate, REQUESTS_PER_RATE, time.perf_counter() + 0.05)
            await open_loop(client, requests)
            for request in requests:
                _ok(outcome, request)
            outcome.phases.append({"rate": rate, "requests": requests,
                                   "end": max(r.done for r in requests)})
        outcome.wall_s = time.perf_counter() - start
        outcome.rss_mb = server.peak_rss_mb()
        outcome.spans = await server.stop(client)
        server = None
    finally:
        if server is not None:
            await server.kill()
    return generator, outcome


# ------------------------------------------------------------------ checks
def check(generator, outcome):
    """Every value a response reports equals an in-process session's
    answer at the ε the response reports."""
    from repro.serve.session import build_session

    references = {}

    def reference(key, epsilon, marginal):
        if (key, epsilon) not in references:
            session = build_session(generator.spec(key))
            if marginal:
                value = {tuple(a): r.value
                         for a, r in session.refine_marginals(epsilon).items()}
            else:
                value = session.refine(epsilon).value
            references[(key, epsilon)] = value
        return references[(key, epsilon)]

    for request in outcome.answered:
        op = request.body["op"]
        result = request.response.get("result")
        if op in ("query", "best") and result:
            entries = [result]
        elif op == "sweep":
            entries = result
        elif op == "marginals":
            epsilon = request.body["epsilon"]
            got = {tuple(entry["answer"]): entry["value"] for entry in result}
            if got:
                epsilon = result[0]["epsilon"]
            outcome.values[(request.spec_key, epsilon)] = got
            library.compare(outcome, f"marginals {request.body['session']} eps={epsilon}",
                            got, reference(request.spec_key, epsilon, True))
            continue
        else:
            continue
        for entry in entries:
            epsilon = entry["epsilon"]
            outcome.values[(request.spec_key, epsilon)] = entry["value"]
            library.compare(outcome, f"{op} {request.body['session']} eps={epsilon}",
                            entry["value"], reference(request.spec_key, epsilon, False))


def _latencies(requests):
    """Latency from the due send time; a refused request never meets a
    limit."""
    return [r.latency if (r.response or {}).get("ok") else float("inf") for r in requests]


def serve_metrics(outcome):
    """The serve-specific figures, printed next to the end-to-end ones."""
    partial = queries = 0
    best_rate = 0.0
    lowest = _latencies(outcome.phases[0]["requests"])
    for phase in outcome.phases:
        requests = phase["requests"]
        p90 = measure.percentile(_latencies(requests), 90) * 1000.0
        # No growing backlog: the last response arrives within the latency
        # limit of the last due send time.
        backlog = phase["end"] - max(r.due for r in requests)
        meets = p90 <= LATENCY_LIMIT_MS and backlog * 1000.0 <= LATENCY_LIMIT_MS
        span = phase["end"] - min(r.due for r in requests)
        phase["p90_ms"], phase["meets"] = p90, meets
        phase["achieved_rps"] = len(requests) / span
        if meets:
            best_rate = max(best_rate, phase["achieved_rps"])
        for r in requests:
            if r.body["op"] == "query" and (r.response or {}).get("ok"):
                queries += 1
                partial += bool(r.response.get("partial"))
    return {
        "serve_p50_ms": measure.median(lowest) * 1000.0,
        "serve_p90_ms": measure.percentile(lowest, 90) * 1000.0,
        "serve_max_rps": best_rate,
        "partial_share": partial / queries if queries else 0.0,
    }


def end_to_end(seed, seconds):
    """The untraced run: every rate of :data:`RATES`."""
    generator, outcome = asyncio.run(_run(seed, seconds, False, RATES, SETUPS))
    check(generator, outcome)
    extra = serve_metrics(outcome)
    units = {"serve_p50_ms": "ms", "serve_p90_ms": "ms", "serve_max_rps": "req/s",
             "partial_share": "ratio"}
    lowest = len(outcome.phases[0]["requests"])
    for name, value in extra.items():
        print(f"{name:42s} {value:>16.6g} {units[name]}  (n={lowest})")
    print(f"{'speed':42s} {outcome.clock.speed():>16.6g} reference s per wall s  "
          f"(n={len(outcome.clock.raw)})")
    for phase in outcome.phases:
        print(f"  rate {phase['rate']:g}/s: p90 {phase['p90_ms']:.1f} ms, "
              f"achieved {phase['achieved_rps']:.2f}/s, meets limit: {phase['meets']}")
    metrics = {
        "setup_s": measure.median(outcome.setups),
        "step_p50_ms": measure.median(outcome.steps) * 1000.0,
        "step_p90_ms": measure.percentile(outcome.steps, 90) * 1000.0,
        "facts_per_s": (sum(n for n, _ in outcome.sweeps) / sum(s for _, s in outcome.sweeps)
                        if outcome.sweeps else 0.0),
        "oneshot_s": measure.median(outcome.oneshots),
        "peak_rss_mb": outcome.rss_mb,
    }
    samples = {"setup_s": len(outcome.setups), "step_p50_ms": len(outcome.steps),
               "step_p90_ms": len(outcome.steps), "facts_per_s": len(outcome.sweeps),
               "oneshot_s": len(outcome.oneshots)}
    return metrics, samples, outcome


def traced(seed, seconds):
    """The traced run: one quiet round (after the warm-up round) and the
    lowest rate, once against the plain server and once against
    :mod:`serve_launcher`."""
    import layers
    import spans

    plain_generator, plain = asyncio.run(_run(seed, seconds, False, RATES[:1], 1, 1))
    generator, outcome = asyncio.run(_run(seed, seconds, True, RATES[:1], 1, 1))
    check(plain_generator, plain)
    check(generator, outcome)
    for key, value in outcome.values.items():
        if key in plain.values:
            library.compare(outcome, f"traced vs untraced answer at {key}",
                            value, plain.values[key])
    summary, root_self = spans.summarize(outcome.spans)
    latency = [sum(r.latency for r in run.phases[0]["requests"]) for run in (plain, outcome)]
    lag = [r.sent - r.due for r in outcome.phases[0]["requests"]]
    extra = {
        "bench.trace_overhead_share": latency[1] / latency[0] - 1.0,
        "bench.unattributed_share": root_self / outcome.wall_s,
        "bench.generator_lag_p90_ms": measure.percentile(lag, 90) * 1000.0,
    }
    metrics = layers.compute(summary, outcome.spans["calls"],
                             layers.span_report_counters(summary), extra)
    fired = {name: int(entry["spans"]) for name, entry in sorted(summary.items())}
    print("spans " + json.dumps(fired))
    outcome.absorb(plain)
    return metrics, outcome
