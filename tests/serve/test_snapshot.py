"""Snapshot/restore: the versioned envelope, the round-trip equality of
warmed mid-sweep sessions, and the no-recompile warm-resume guarantee.

Also the home of the ``__getstate__`` audit test (issue satellite): a
session pickled *mid-sweep* — prefix cache materialized, truncation
table grown, BDD family extended, plan cache warm — must restore to
something that produces bit-identical answers, which would fail if any
``__getstate__`` carried a stale columnar mirror or dropped live state
it shouldn't.
"""

import pickle

import pytest

from repro import obs
from repro.errors import SnapshotError
from repro.serve.session import SessionManager
from repro.serve.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    dump_snapshot,
    load_snapshot,
    loads_snapshot,
    save_snapshot,
)

UNSAFE_SPEC = {
    "schema": {"R": 1},
    "family": {"kind": "geometric", "first": 0.3, "ratio": 0.9},
    "query": "EXISTS x. R(x) AND (R(1) OR R(2))",
    "strategy": "bdd",
}
SAFE_SPEC = dict(UNSAFE_SPEC, query="EXISTS x. R(x)", strategy="auto")


def warmed_manager(spec=UNSAFE_SPEC):
    manager = SessionManager()
    managed = manager.create("s", spec)
    managed.sweep([0.2, 0.1])  # mid-sweep: warm but not finished
    return manager


# ------------------------------------------------------------- round trips
@pytest.mark.parametrize("spec", [UNSAFE_SPEC, SAFE_SPEC],
                         ids=["bdd", "lifted"])
def test_mid_sweep_round_trip_is_bit_identical(tmp_path, spec):
    """Continue the same sweep on the original and on a restored copy:
    every subsequent answer must agree bit-for-bit."""
    manager = warmed_manager(spec)
    path = tmp_path / "state.snapshot"
    save_snapshot(manager, str(path))
    restored = load_snapshot(str(path))

    original = manager.get("s")
    copy = restored.get("s")
    assert copy.best.value == original.best.value
    assert copy.session._n == original.session._n
    for epsilon in (0.05, 0.02, 0.01):
        a = original.refine(epsilon)
        b = copy.refine(epsilon)
        assert b.value == a.value
        assert b.truncation == a.truncation
        assert b.alpha == a.alpha


def test_round_trip_preserves_bookkeeping(tmp_path):
    manager = warmed_manager()
    managed = manager.get("s")
    managed.epsilon_budget = 0.07
    managed.pending.append(0.004)  # a queued guarantee survives
    path = tmp_path / "state.snapshot"
    save_snapshot(manager, str(path))
    copy = load_snapshot(str(path)).get("s")
    assert copy.epsilon_budget == 0.07
    assert copy.pending == [0.004]
    assert copy.requests == managed.requests
    assert copy.refinements == managed.refinements
    # ...and the restored queue drains normally.
    copy.drain()
    assert copy.best.epsilon == 0.004


def test_warm_resume_extends_instead_of_recompiling(tmp_path):
    """The acceptance criterion: a restored session meets a tighter ε by
    *extending* its compiled family (``CacheStats.extensions`` /
    ``cache.extension``), never compiling from scratch."""
    manager = warmed_manager(UNSAFE_SPEC)
    path = tmp_path / "state.snapshot"
    save_snapshot(manager, str(path))
    copy = load_snapshot(str(path)).get("s")

    stats = copy.session.compile_cache.stats
    extensions_before = stats.extensions
    with obs.trace() as t:
        copy.refine(0.01)
    # The warm family survived the pickle: the new truncation was an
    # extension of the restored diagrams, not a cold compile.
    assert stats.extensions == extensions_before + 1
    assert t.counters.get("cache.extension", 0) >= 1


def test_warm_resume_reuses_lifted_plan(tmp_path):
    """Safe-query flavour: the restored family's cached safe plan is
    hit (``lifted.plan_cache_hits``) and no new plan is built."""
    manager = warmed_manager(SAFE_SPEC)
    path = tmp_path / "state.snapshot"
    save_snapshot(manager, str(path))
    copy = load_snapshot(str(path)).get("s")

    with obs.trace() as t:
        copy.refine(0.01)
    assert t.counters.get("lifted.plan_cache_hits", 0) >= 1
    assert t.counters.get("lifted.plans", 0) == 0


ZETA_SPEC = {
    "schema": {"R": 1, "S": 2},
    "family": {"kind": "zeta", "exponent": 1.5, "scale": 0.5},
    "query": "EXISTS x, y. R(x) AND S(x, y)",
}


@pytest.mark.parametrize("total_first", [False, True],
                         ids=["lazy-total", "evaluated-total"])
def test_zeta_session_round_trip(tmp_path, total_first):
    """A zeta family's total is evaluated on first use and kept.
    Snapshots taken before it (the total still a callable) and after it
    (a plain float, as snapshots held it when the total was computed at
    construction) both restore to sessions that answer bit for bit like
    the original and report the same total."""
    manager = warmed_manager(ZETA_SPEC)
    original = manager.get("s")
    distribution = original.session.pdb.distribution
    if total_first:
        distribution.total_mass()
    path = tmp_path / "state.snapshot"
    save_snapshot(manager, str(path))
    copy = load_snapshot(str(path)).get("s")
    restored = copy.session.pdb.distribution
    assert callable(restored._certificate._total) is not total_first
    for epsilon in (0.05, 0.02):
        a = original.refine(epsilon)
        b = copy.refine(epsilon)
        assert (b.value, b.truncation) == (a.value, a.truncation)
    assert restored.total_mass() == distribution.total_mass()


# ----------------------------------------------------------------- envelope
def test_envelope_shape():
    envelope = pickle.loads(dump_snapshot(SessionManager()))
    assert envelope["format"] == SNAPSHOT_FORMAT
    assert envelope["version"] == SNAPSHOT_VERSION
    assert isinstance(envelope["payload"], bytes)


def test_version_guard():
    envelope = pickle.loads(dump_snapshot(SessionManager()))
    envelope["version"] = SNAPSHOT_VERSION + 1
    with pytest.raises(SnapshotError, match="version"):
        loads_snapshot(pickle.dumps(envelope))


def test_format_guard():
    envelope = pickle.loads(dump_snapshot(SessionManager()))
    envelope["format"] = "something-else"
    with pytest.raises(SnapshotError, match="format"):
        loads_snapshot(pickle.dumps(envelope))


def test_not_an_envelope():
    with pytest.raises(SnapshotError, match="envelope"):
        loads_snapshot(pickle.dumps({"no": "format"}))
    with pytest.raises(SnapshotError):
        loads_snapshot(b"definitely not a pickle")


def test_payload_type_guard():
    envelope = pickle.loads(dump_snapshot(SessionManager()))
    envelope["payload"] = pickle.dumps(["not", "a", "manager"])
    with pytest.raises(SnapshotError, match="SessionManager"):
        loads_snapshot(pickle.dumps(envelope))


def test_snapshot_bytes_counter(tmp_path):
    path = tmp_path / "state.snapshot"
    with obs.trace() as t:
        size = save_snapshot(warmed_manager(), str(path))
    assert size == path.stat().st_size > 0
    assert t.counters.get("serve.snapshot_bytes") == size


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "state.snapshot"
    save_snapshot(warmed_manager(), str(path))
    save_snapshot(warmed_manager(), str(path))  # overwrite in place
    assert [p.name for p in tmp_path.iterdir()] == ["state.snapshot"]
