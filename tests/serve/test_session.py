"""SessionManager / ManagedSession: specs, ε-budget scheduling,
admission control, and the serve obs counters."""

import gc
import weakref

import pytest

from repro import obs
from repro.errors import ServeError
from repro.serve.session import (
    ManagedSession,
    SessionManager,
    build_session,
    result_to_json,
)

SPEC = {
    "schema": {"R": 1},
    "family": {"kind": "geometric", "first": 0.3, "ratio": 0.9},
    "query": "EXISTS x. R(x) AND (R(1) OR R(2))",
    "strategy": "bdd",
    "epsilon_budget": 0.05,
}


def fresh_manager(**kwargs):
    return SessionManager(**kwargs)


# ----------------------------------------------------------------- specs
class TestBuildSession:
    def test_schema_family_spec(self):
        session = build_session(SPEC)
        result = session.refine(0.1)
        assert 0.0 <= result.value <= 1.0

    def test_zeta_family(self):
        spec = dict(SPEC, family={"kind": "zeta", "exponent": 2.0,
                                  "scale": 0.5})
        session = build_session(spec)
        assert session.refine(0.1).truncation > 0

    def test_table_open_world_spec(self):
        spec = {
            "table": {
                "kind": "tuple-independent",
                "schema": {"R": 1},
                "facts": [["R", [1], 0.5], ["R", [2], 0.25]],
            },
            "open_world": {"first": 0.3, "ratio": 0.5},
            "query": "EXISTS x. R(x)",
        }
        session = build_session(spec)
        result = session.refine(0.05)
        assert result.value >= 0.5  # at least the closed-world R(1)

    def test_missing_query_rejected(self):
        with pytest.raises(ServeError, match="query"):
            build_session({"schema": {"R": 1}, "family": {}})

    def test_table_without_open_world_rejected(self):
        with pytest.raises(ServeError, match="open_world"):
            build_session({"table": {}, "query": "R(1)"})

    def test_unknown_family_kind_rejected(self):
        with pytest.raises(ServeError, match="family kind"):
            build_session(dict(SPEC, family={"kind": "pareto"}))

    def test_sessions_have_isolated_compile_caches(self):
        a, b = build_session(SPEC), build_session(SPEC)
        assert a.compile_cache is not b.compile_cache


# ------------------------------------------------------- budget scheduling
class TestEpsilonBudget:
    def test_inline_at_or_above_budget(self):
        managed = ManagedSession("s", build_session(SPEC),
                                 epsilon_budget=0.05)
        result, partial = managed.submit(0.1)
        assert not partial
        assert result.epsilon == 0.1

    def test_first_request_always_inline(self):
        """No best answer yet → nothing partial to return; run inline
        even below the budget."""
        managed = ManagedSession("s", build_session(SPEC),
                                 epsilon_budget=0.05)
        result, partial = managed.submit(0.01)
        assert not partial and result.epsilon == 0.01

    def test_tight_request_queues_and_returns_partial(self):
        managed = ManagedSession("s", build_session(SPEC),
                                 epsilon_budget=0.05)
        coarse, _ = managed.submit(0.1)
        result, partial = managed.submit(0.001)
        assert partial
        assert result is coarse           # the anytime answer, unchanged
        assert managed.pending == [0.001]

    def test_drain_meets_queued_guarantee(self):
        managed = ManagedSession("s", build_session(SPEC),
                                 epsilon_budget=0.05)
        managed.submit(0.1)
        managed.submit(0.001)
        assert managed.drain() == 1
        assert managed.pending == []
        assert managed.best.epsilon == 0.001
        # Now the tight answer is served complete, from memory.
        result, partial = managed.submit(0.001)
        assert not partial and result is managed.best

    def test_best_covers_looser_request(self):
        """An existing tighter answer certifies any looser ε without
        touching the session."""
        managed = ManagedSession("s", build_session(SPEC))
        managed.submit(0.01, wait=True)
        refinements = managed.refinements
        result, partial = managed.submit(0.1)
        assert not partial
        assert result.epsilon == 0.01
        assert managed.refinements == refinements  # answered from memory

    def test_wait_forces_inline(self):
        managed = ManagedSession("s", build_session(SPEC),
                                 epsilon_budget=0.05)
        managed.submit(0.1)
        result, partial = managed.submit(0.001, wait=True)
        assert not partial and result.epsilon == 0.001

    def test_drain_loosest_first(self):
        managed = ManagedSession("s", build_session(SPEC),
                                 epsilon_budget=0.3)
        managed.submit(0.4)
        managed.pending = [0.001, 0.01, 0.1]
        first = managed.drain_one()
        assert first.epsilon == 0.1
        assert managed.pending == [0.001, 0.01]

    def test_queue_admission_control(self):
        managed = ManagedSession("s", build_session(SPEC),
                                 epsilon_budget=0.3, max_pending=2)
        managed.submit(0.4)
        managed.submit(0.01)
        managed.submit(0.02)
        with pytest.raises(ServeError, match="queue full"):
            managed.submit(0.03)
        # A duplicate of an already-queued ε is not a new queue entry.
        result, partial = managed.submit(0.01)
        assert partial

    def test_nonpositive_epsilon_rejected(self):
        managed = ManagedSession("s", build_session(SPEC))
        with pytest.raises(ServeError, match="positive"):
            managed.submit(0.0)

    def test_sweep_contract(self):
        managed = ManagedSession("s", build_session(SPEC))
        results = managed.sweep([0.01, 0.1, 0.1, 0.05])
        assert list(results) == [0.1, 0.05, 0.01]  # loosest first, deduped
        assert managed.best.epsilon == 0.01


# -------------------------------------------------------------- the manager
class TestSessionManager:
    def test_create_get_drop(self):
        manager = fresh_manager()
        managed = manager.create("s1", SPEC)
        assert manager.get("s1") is managed
        assert "s1" in manager and len(manager) == 1
        manager.drop("s1")
        assert "s1" not in manager
        with pytest.raises(ServeError, match="no session"):
            manager.get("s1")

    def test_duplicate_name_rejected(self):
        manager = fresh_manager()
        manager.create("s1", SPEC)
        with pytest.raises(ServeError, match="already exists"):
            manager.create("s1", SPEC)

    def test_session_limit(self):
        manager = fresh_manager(max_sessions=2)
        manager.create("a", SPEC)
        manager.create("b", SPEC)
        with pytest.raises(ServeError, match="session limit"):
            manager.create("c", SPEC)
        manager.drop("a")
        manager.create("c", SPEC)  # freed slot admits again

    def test_stats_and_summaries(self):
        manager = fresh_manager()
        manager.create("s1", SPEC).submit(0.1)
        stats = manager.stats()
        assert stats["sessions"] == 1
        assert stats["requests"] == 1
        (summary,) = manager.summaries()
        assert summary["name"] == "s1"
        assert summary["best"]["epsilon"] == 0.1

    @pytest.mark.parametrize("spec", [
        dict(SPEC, strategy="auto"),
        {"schema": {"R": 1, "S": 2, "T": 1},
         "family": {"kind": "geometric", "first": 0.3, "ratio": 0.95},
         "query": "EXISTS x, y. (R(x) AND S(x, y) AND T(y))"},
        {"table": {"kind": "tuple-independent", "schema": {"R": 1},
                   "facts": [["R", [1], 0.5], ["R", [2], 0.25]]},
         "open_world": {"first": 0.3, "ratio": 0.5},
         "query": "EXISTS x. R(x)"},
    ], ids=["safe", "unsafe", "completion"])
    def test_drop_frees_the_session_at_once(self, spec):
        """No reference cycle runs through a session, so dropping it frees
        its PDB, distribution, prefix and compiled state by reference
        counting, with the cycle collector switched off."""
        manager = fresh_manager()
        managed = manager.create("s", spec)
        for epsilon in (0.3, 0.2):
            managed.submit(epsilon, wait=True)
        session = managed.session
        pdb = session.pdb
        distribution = getattr(pdb, "new_facts", pdb).distribution
        refs = [weakref.ref(obj) for obj in (
            managed, session, session.compile_cache, pdb, distribution,
            distribution.prefix_cache())]
        del managed, session, pdb, distribution
        gc.disable()
        try:
            manager.drop("s")
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_result_to_json_is_json_ready(self):
        import json

        manager = fresh_manager()
        result, _ = manager.create("s1", SPEC).submit(0.1)
        wire = result_to_json(result)
        assert json.loads(json.dumps(wire)) == wire
        assert wire["low"] <= wire["value"] <= wire["high"]


# --------------------------------------------------------------- obs counters
def test_serve_counters():
    manager = fresh_manager()
    with obs.trace() as t:
        managed = manager.create("s1", SPEC)
        managed.submit(0.1)       # inline
        managed.submit(0.001)     # queued + partial
    assert t.counters.get("serve.sessions") == 1
    assert t.counters.get("serve.requests") == 2
    assert t.counters.get("serve.queued") == 1
