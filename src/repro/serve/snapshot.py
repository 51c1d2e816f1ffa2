"""Versioned snapshot/restore of serve-layer session state.

A snapshot file is a two-layer pickle: an *envelope* dict with the
format marker, an integer version, and the session payload as an opaque
``bytes`` blob.  :func:`load_snapshot` validates the marker and version
**before** unpickling the payload — an old server refuses a new-format
snapshot with a clear :class:`~repro.errors.SnapshotError` instead of
exploding half-way through reconstructing classes whose pickled layout
has since changed.

The payload pickles the :class:`~repro.serve.session.SessionManager`
whole, which transitively snapshots every warm
:class:`~repro.core.refine.RefinementSession`: the grown truncation
table, the per-session compile cache with its flattened BDD node stores
(:meth:`BDDManager.__getstate__ <repro.finite.bdd.BDDManager.__getstate__>`),
cached safe plans, and the still-pending guarantee queues.  Derived
columnar mirrors, locks and live generators are dropped by each class's
own ``__getstate__`` discipline and rebuilt lazily after restore — so a
restored server resumes a sweep by *extending* its diagrams, not
recompiling them (observable as ``cache.extension`` /
``lifted.plan_cache_hits`` without fresh ``lifted.plans``).

Writes are atomic (temp file + ``os.replace``) so a crash mid-snapshot
never corrupts the previous good snapshot.
"""

from __future__ import annotations

import os
import pickle
import tempfile

from repro import obs
from repro.errors import SnapshotError
from repro.serve.session import SessionManager

#: Envelope format marker; anything else is rejected unread.
SNAPSHOT_FORMAT = "repro-serve-snapshot"
#: Bump when the pickled layout of session state changes incompatibly.
#: Version 1 pickled each fact's cached hash, which is only valid under
#: the writing process's string-hash salt; version 2 rebuilds facts,
#: relation symbols and instances through their constructors.
SNAPSHOT_VERSION = 2
#: Trace counter: bytes written by the last snapshot.
SNAPSHOT_BYTES_COUNTER = "serve.snapshot_bytes"


def dump_snapshot(manager: SessionManager) -> bytes:
    """The snapshot file contents for ``manager``, as bytes."""
    payload = pickle.dumps(manager, protocol=pickle.HIGHEST_PROTOCOL)
    envelope = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "payload": payload,
    }
    return pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)


def save_snapshot(manager: SessionManager, path: str) -> int:
    """Atomically write ``manager`` to ``path``; returns bytes written."""
    data = dump_snapshot(manager)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".snapshot-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    obs.incr(SNAPSHOT_BYTES_COUNTER, len(data))
    return len(data)


def loads_snapshot(data: bytes) -> SessionManager:
    """Restore a manager from snapshot bytes (see :func:`load_snapshot`)."""
    try:
        envelope = pickle.loads(data)
    except Exception as err:
        raise SnapshotError(f"unreadable snapshot envelope: {err}") from err
    if not isinstance(envelope, dict) or "format" not in envelope:
        raise SnapshotError(
            "not a serve snapshot (missing envelope); was this file "
            "written by save_snapshot?"
        )
    if envelope["format"] != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"unknown snapshot format {envelope['format']!r} "
            f"(expected {SNAPSHOT_FORMAT!r})"
        )
    version = envelope.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version!r} is not supported "
            f"(this server reads version {SNAPSHOT_VERSION}); "
            "re-create the snapshot with a matching server"
        )
    try:
        manager = pickle.loads(envelope["payload"])
    except Exception as err:
        raise SnapshotError(f"corrupt snapshot payload: {err}") from err
    if not isinstance(manager, SessionManager):
        raise SnapshotError(
            f"snapshot payload is a {type(manager).__name__}, "
            "expected a SessionManager"
        )
    return manager


def load_snapshot(path: str) -> SessionManager:
    """Restore a :class:`SessionManager` from a snapshot file.

    Raises :class:`~repro.errors.SnapshotError` on format or version
    mismatch — checked before the session payload is unpickled.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    return loads_snapshot(data)
