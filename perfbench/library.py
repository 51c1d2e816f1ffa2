"""The three library workloads: closed loops with one caller.

Each workload is a list of *sweeps* grouped into *rounds*.  A sweep binds
one query to one freshly built countable PDB and calls
``RefinementSession.refine`` (Boolean queries) or ``.refine_marginals``
(free-variable queries, on a 2-worker ``ShardPool``) at each ε of its
schedule, loosest first, then makes the round's cold one-shot calls.  A
round builds its own PDBs, sessions and pool; that build is the set-up the
``setup_s`` metric times.  ``facts_per_s`` is a ratio of sums over all
the sweeps of a run and ``oneshot_s`` the mean over the queries of each
query's median one-shot time: every round runs the same mix of queries,
so neither figure depends on where a median falls between the queries'
different costs.
Every call is timed on a :class:`measure.Clock`, which scales its wall
time to the reference machine speed.

Sessions use the library's default compile cache, as a caller of
``RefinementSession(query, pdb)`` does.  Each round and each one-shot
call stands for a fresh process, so the process-wide compile cache is
cleared before each.
"""

from __future__ import annotations

import gc
import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.approx import approximate_answer_marginals, approximate_query_probability
from repro.core.fact_distribution import GeometricFactDistribution, ZetaFactDistribution
from repro.core.refine import RefinementSession
from repro.core.tuple_independent import CountableTIPDB
from repro.errors import ReproError
from repro.finite.compile_cache import DEFAULT_COMPILE_CACHE
from repro.finite.evaluation import marginal_answer_probabilities
from repro.logic.parser import parse_formula
from repro.logic.queries import BooleanQuery, Query
from repro.parallel.pool import ShardPool
from repro.relational.schema import Schema
from repro.universe import FactSpace, Naturals

import measure

#: Query texts per label.  Each label has variants that differ only in
#: atom order and variable names, so a seed changes the program's input
#: but not the query it asks.
QUERIES = {
    "chain": [
        "EXISTS x, y. (R(x) AND S(x, y))",
        "EXISTS u, v. (S(u, v) AND R(u))",
    ],
    "star": [
        "EXISTS x, y, z. (R(x) AND S(x, y) AND V(x, z))",
        "EXISTS u, v, w. (V(u, w) AND R(u) AND S(u, v))",
    ],
    "answers": [
        "EXISTS y. (R(x) AND S(x, y))",
        "EXISTS v. (S(x, v) AND R(x))",
    ],
}


@dataclass
class SweepSpec:
    """One sweep's generated input: what the program receives."""

    label: str
    schema: Dict[str, int]
    family: Dict[str, float]
    query: str
    epsilons: List[float]
    marginals: bool = False


@dataclass
class Record(measure.Tally):
    """Everything a library run measured; times are reference-speed
    seconds from :attr:`clock`, or from :attr:`pool_clock` for work that
    runs on a pool's workers as well."""

    clock: measure.Clock = field(default_factory=measure.Clock)
    pool_clock: measure.Clock = field(default_factory=lambda: measure.Clock(every_cpu=True))
    setups: List[float] = field(default_factory=list)
    steps: List[float] = field(default_factory=list)
    #: Sweeps completed, the facts in their tightest truncations and the
    #: seconds they took.
    sweeps: int = 0
    sweep_facts: int = 0
    sweep_seconds: float = 0.0
    #: Seconds of every timed one-shot call, by label.
    oneshots: Dict[str, List[float]] = field(default_factory=dict)
    answers: int = 0
    marginal_seconds: float = 0.0
    worker_rss_mb: float = 0.0
    #: Peak RSS of this process plus its pool workers after
    #: :data:`ROUNDS_BEFORE_RSS` rounds, in MB.
    rss_mb: float = 0.0
    #: ``(label, ε, truncation, value or {answer: value})`` of every
    #: sweep's tightest step, of every step, and of every one-shot call.
    finals: List[tuple] = field(default_factory=list)
    outputs: List[tuple] = field(default_factory=list)
    shots: List[tuple] = field(default_factory=list)
    #: ``(EvalReport, positive answers)`` of every call the loop made.
    reports: list = field(default_factory=list)


def _schedule(rng, loosest, tightest, steps, jitter, tight_jitter):
    """``steps`` log-spaced ε from ``loosest`` to ``tightest``, each moved
    by a seeded factor within its band; the ends move least, so the
    truncation sizes that define the workload stay put."""
    ratio = (tightest / loosest) ** (1.0 / (steps - 1))
    schedule = []
    for i in range(steps):
        base = loosest * ratio**i
        width = tight_jitter if i in (0, steps - 1) else jitter * abs(math.log(ratio))
        schedule.append(base * math.exp(rng.uniform(-width, width)))
    return schedule


class Workload:
    """A seeded library workload: ``round_specs`` makes one round's
    sweeps.  The seed picks each label's query variant and tightest ε
    once per run and the other ε of every sweep within their bands, so
    one one-shot call per label checks every sweep of that label."""

    name = ""
    labels: List[str] = []
    pooled = False
    #: Timed one-shot calls per label in every round.
    oneshots: Dict[str, int] = {}

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.query = {label: self.rng.choice(QUERIES[label]) for label in self.labels}
        self.tightest = {label: self.tight_epsilon(label) for label in self.labels}

    # Subclasses fill these in.
    def tight_epsilon(self, label):
        raise NotImplementedError

    def spec(self, label) -> SweepSpec:
        raise NotImplementedError

    def round_specs(self) -> List[SweepSpec]:
        labels = list(self.labels)
        self.rng.shuffle(labels)
        return [self.spec(label) for label in labels]

    # ----------------------------------------------------------- building
    def build(self, spec: SweepSpec, pool=None) -> RefinementSession:
        schema = Schema.of(**spec.schema)
        space = FactSpace(schema, Naturals())
        family = dict(spec.family)
        kind = family.pop("kind")
        if kind == "zeta":
            distribution = ZetaFactDistribution(space, **family)
        else:
            distribution = GeometricFactDistribution(space, **family)
        pdb = CountableTIPDB(schema, distribution)
        formula = parse_formula(spec.query, schema)
        query = Query(formula, schema) if spec.marginals else BooleanQuery(formula, schema)
        return RefinementSession(query, pdb, pool=pool)

    def setup(self, specs):
        """Build one round: its pool (pooled workloads) and every sweep's
        PDB and session.  Returns ``(pool, sessions)``."""
        pool = ShardPool(2) if self.pooled else None
        return pool, [self.build(spec, pool) for spec in specs]


def _settle():
    """Collect garbage before a timed unit of work, so that the cyclic
    collector's passes inside it depend on that work's own allocations,
    not on what earlier units left behind."""
    gc.collect()


def _value(result):
    if isinstance(result, dict):
        return {answer: r.value for answer, r in result.items()}
    return result.value


def _truncation(result):
    if isinstance(result, dict):
        return next(iter(result.values())).truncation if result else 0
    return result.truncation


def _positive(result):
    if isinstance(result, dict):
        return sum(1 for r in result.values() if r.value > 0)
    return 0


def run_sweep(spec: SweepSpec, session: RefinementSession, record: Record, pool=None):
    """One sweep, every call timed; stops at the first call that fails."""
    _settle()
    clock = record.clock if pool is None else record.pool_clock
    seconds = 0.0
    last = None
    for i, epsilon in enumerate(spec.epsilons):
        record.attempted += 1
        clock.start()
        try:
            if spec.marginals:
                result = session.refine_marginals(epsilon, pool=pool)
            else:
                result = session.refine(epsilon)
        except ReproError as err:
            record.fail(f"{spec.label} eps={epsilon}: {err}")
            return
        elapsed = clock.stop()
        seconds += elapsed
        if i > 0:
            # The opening call builds the table; every later call is
            # tighter than all earlier ones: a tightening step.
            record.steps.append(elapsed)
        if spec.marginals:
            record.answers += _positive(result)
            record.marginal_seconds += elapsed
        record.outputs.append((spec.label, epsilon, _truncation(result), _value(result)))
        record.reports.append((_report(result), _positive(result)))
        last = result
    record.sweeps += 1
    record.sweep_facts += _truncation(last)
    record.sweep_seconds += seconds
    record.finals.append((spec.label, spec.epsilons[-1], _truncation(last), _value(last)))


def _report(result):
    if isinstance(result, dict):
        if hasattr(result, "report"):
            return result.report
        return next(iter(result.values())).report if result else None
    return result.report


#: Set-ups timed, and thrown away, ahead of a run's rounds: ``setup_s``
#: is their median.  The rounds' own set-ups are not timed: on zeta-sweep
#: their times fell by about 40% after a few rounds, so a median over
#: both moved with the number of rounds a run fitted in.
SETUP_REPEATS = 25


def timed_setup(workload: Workload, record: Record):
    """Build a round's objects once, timed, and release them."""
    _settle()
    clock = record.pool_clock if workload.pooled else record.clock
    clock.start()
    pool, _ = workload.setup([workload.spec(label) for label in workload.labels])
    record.setups.append(clock.stop())
    if pool is not None:
        pool.close()


def run_round(workload: Workload, record: Record):
    """Set up one round, run its sweeps, then its timed one-shot calls.
    Each round starts with an empty process-wide compile cache, as a
    fresh process would, so that no round's diagrams grow from an earlier
    round's."""
    specs = workload.round_specs()
    DEFAULT_COMPILE_CACHE.clear()
    pool, sessions = workload.setup(specs)
    try:
        for spec, session in zip(specs, sessions):
            run_sweep(spec, session, record, pool)
    finally:
        if pool is not None:
            record.worker_rss_mb = max(
                record.worker_rss_mb,
                sum(measure.peak_rss_mb(pid) for pid in pool.worker_pids()))
            pool.close()
    for label in workload.labels:
        for _ in range(workload.oneshots[label]):
            seconds = oneshot(workload, label, record)
            if seconds is not None:
                record.oneshots.setdefault(label, []).append(seconds)


def oneshot(workload: Workload, label: str, record: Record):
    """A cold one-shot call at ``label``'s tightest ε on a fresh PDB —
    the CLI ``query --epsilon`` (or ``marginals --epsilon``) path.
    Returns its seconds, or None when it failed."""
    spec = workload.spec(label)
    spec.epsilons = [workload.tightest[label]]
    session = workload.build(spec)
    DEFAULT_COMPILE_CACHE.clear()
    _settle()
    record.attempted += 1
    record.clock.start()
    try:
        if spec.marginals:
            result = approximate_answer_marginals(
                session.query, session.pdb, spec.epsilons[0])
        else:
            result = approximate_query_probability(
                session.query, session.pdb, spec.epsilons[0])
    except ReproError as err:
        record.fail(f"one-shot {label}: {err}")
        return None
    seconds = record.clock.stop()
    record.reports.append((_report(result), _positive(result)))
    record.shots.append((label, spec.epsilons[0], _truncation(result), _value(result)))
    return seconds


#: How far an answer may sit from its reference before it is wrong rather
#: than a bit-level mismatch: the repo's parity tolerance for two
#: evaluation orders of the same sum.
TOLERANCE = 1e-12


def compare(tally: measure.Tally, what: str, got, want):
    """Compare an answer (a float, or ``{answer tuple: float}``) with its
    reference: equal bits pass, a difference within :data:`TOLERANCE` is
    a failed operation, anything further is a wrong answer."""
    if got == want:
        return
    if isinstance(got, dict) and isinstance(want, dict):
        close = got.keys() == want.keys() and all(
            abs(got[key] - want[key]) <= TOLERANCE for key in got)
    else:
        close = abs(got - want) <= TOLERANCE
    tally.fail(f"bits differ: {what}: got {got!r}, reference {want!r}", wrong=not close)


def check_finals(record: Record):
    """Every sweep's tightest answer equals the one-shot answer at the
    same ε, bit for bit (same truncation, same float)."""
    by_label = {shot[0]: shot for shot in record.shots}
    for label, epsilon, n, value in record.finals:
        shot = by_label.get(label)
        if shot is None:
            continue
        if (epsilon, n) != shot[1:3]:
            record.fail(f"{label}: sweep truncated to n={n} at eps={epsilon}, one-shot "
                        f"to n={shot[2]} at eps={shot[1]}", wrong=True)
            continue
        compare(record, f"{label} sweep vs one-shot at eps={epsilon}", value, shot[3])


def check_pooled(workload: Workload, record: Record):
    """Pooled marginals of each sweep's final step equal the serial
    ``marginal_answer_probabilities`` on the same truncation."""
    serial_by_n = {}
    for label, epsilon, n, values in record.finals:
        if n not in serial_by_n:
            session = workload.build(workload.spec(label))
            serial = marginal_answer_probabilities(session.query, session.pdb.truncate(n))
            serial_by_n[n] = {answer: float(value) for answer, value in serial.items()}
        compare(record, f"{label} pooled vs serial marginals at eps={epsilon}",
                values, serial_by_n[n])


# ---------------------------------------------------------------- workloads
class ZetaSweep(Workload):
    """Boolean sweeps over a zeta-tailed PDB: each tighter ε multiplies
    the truncation about 4×, so enumeration and table growth dominate."""

    name = "zeta-sweep"
    labels = ["chain", "star"]
    oneshots = {"chain": 1, "star": 1}
    SCHEMA = {"R": 1, "S": 2, "V": 2}
    FAMILY = {"kind": "zeta", "exponent": 1.5, "scale": 0.5}
    BANDS = [0.1, 0.05, 0.02, 0.01]

    # The truncation grows about as 1/ε², so ε moves within narrow bands:
    # ±0.5% at the tightest ε moves its truncation by about 1%.
    def tight_epsilon(self, label):
        return self.BANDS[-1] * math.exp(self.rng.uniform(-0.005, 0.005))

    def spec(self, label):
        epsilons = [b * math.exp(self.rng.uniform(-0.01, 0.01)) for b in self.BANDS[:-1]]
        return SweepSpec(label, self.SCHEMA, self.FAMILY, self.query[label],
                         epsilons + [self.tightest[label]])


class GeometricSweep(Workload):
    """Many closely spaced ε on slowly growing geometric truncations of
    the safe chain and star queries: each step adds about 1% new facts.

    The unsafe H0 sweep the workload was meant to carry as well is left
    out: its tightest answer differs from a cold one-shot's in the last
    bit, a defect of the program that ``tests/test_perfbench.py`` pins
    (see ``workloads.json``)."""

    name = "geometric-sweep"
    labels = ["chain", "star"]
    oneshots = {"chain": 2, "star": 2}
    SCHEMA = {"R": 1, "S": 2, "V": 2}
    FAMILY = {"kind": "geometric", "first": 0.05, "ratio": 0.999}

    def tight_epsilon(self, label):
        return 0.0005 * math.exp(self.rng.uniform(-0.02, 0.02))

    def spec(self, label):
        epsilons = _schedule(self.rng, 0.05, 0.0005, 30, 0.4, 0.02)
        epsilons[-1] = self.tightest[label]
        return SweepSpec(label, self.SCHEMA, self.FAMILY, self.query[label], epsilons)


class MarginalsSweep(Workload):
    """An answer-marginal sweep of a free-variable safe query, fanned out
    on a 2-worker shard pool; each step grounds one Boolean query per
    candidate answer, more than the 64 families a compile cache holds."""

    name = "marginals-sweep"
    labels = ["answers"]
    pooled = True
    oneshots = {"answers": 2}
    SCHEMA = {"R": 1, "S": 2, "T": 1}
    FAMILY = {"kind": "geometric", "first": 0.3, "ratio": 0.98}

    def tight_epsilon(self, label):
        return 0.005 * math.exp(self.rng.uniform(-0.02, 0.02))

    def round_specs(self):
        return [self.spec("answers"), self.spec("answers")]

    # Twelve closely spaced ε, so that step times spread smoothly between
    # the loosest and the tightest step and their median falls in no gap.
    def spec(self, label):
        epsilons = _schedule(self.rng, 0.1, 0.005, 12, 0.1, 0.02)
        epsilons[-1] = self.tightest[label]
        return SweepSpec(label, self.SCHEMA, self.FAMILY, self.query[label], epsilons,
                         marginals=True)


WORKLOADS = {cls.name: cls for cls in (ZetaSweep, GeometricSweep, MarginalsSweep)}


def warm_up(name: str, seed: int):
    """Fill the process-wide caches and finish lazy imports before any
    timing: one short sweep and two one-shot calls per label, on inputs
    of another seed.  The first one-shot calls of a process run slower
    than later ones."""
    workload = WORKLOADS[name](seed + 10**6)
    specs = workload.round_specs()
    for spec in specs:
        spec.epsilons = spec.epsilons[:2]
    pool, sessions = workload.setup(specs)
    try:
        for spec, session in zip(specs, sessions):
            run_sweep(spec, session, Record(), pool)
    finally:
        if pool is not None:
            pool.close()
    for label in workload.labels:
        workload.tightest[label] = workload.spec(label).epsilons[1]
        for _ in range(2):
            oneshot(workload, label, Record())


#: Rounds run before the peak-memory reading, so that the reading covers
#: the same work however many rounds follow.
ROUNDS_BEFORE_RSS = 2


def run(name: str, seed: int, seconds: float, rounds: Optional[int] = None) -> Record:
    """Run a library workload: rounds until ``seconds`` of rounds have
    passed (or exactly ``rounds`` rounds), with the peak-memory reading
    after :data:`ROUNDS_BEFORE_RSS` rounds (or the last round, if
    fewer)."""
    workload = WORKLOADS[name](seed)
    record = Record()
    # Start every run from the same process state: no cached plans or
    # indexes of an earlier run, no garbage waiting to be collected.
    DEFAULT_COMPILE_CACHE.clear()
    gc.collect()
    for _ in range(SETUP_REPEATS):
        timed_setup(workload, record)
    busy = done = 0
    while (busy < seconds) if rounds is None else (done < rounds):
        t0 = time.perf_counter()
        run_round(workload, record)
        busy += time.perf_counter() - t0
        done += 1
        if done == ROUNDS_BEFORE_RSS:
            record.rss_mb = measure.peak_rss_mb() + record.worker_rss_mb
    if done < ROUNDS_BEFORE_RSS:
        record.rss_mb = measure.peak_rss_mb() + record.worker_rss_mb
    return record


def check(name: str, seed: int, record: Record):
    """The answer checks, outside any timing; mismatches land in
    ``record.wrong``."""
    check_finals(record)
    workload = WORKLOADS[name](seed)
    if workload.pooled:
        check_pooled(workload, record)
