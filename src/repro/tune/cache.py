"""Persistent execution-plan cache.

The cache is what turns the autotuner from a per-process optimisation
into a per-*matrix* one: the first process ever to see a structure pays
the empirical search (and, for FBMPK plans, the preprocessing), writes
the winning :class:`~repro.tune.plan.ExecutionPlan` — plus the
preprocessed operator artefact when available — under a
:class:`~repro.tune.fingerprint.StructureFingerprint` key, and every
later process skips both.  This is OSKI's "save/restore tuned handle"
workflow realised as a content-addressed directory of JSON envelopes.

Layout (one entry per fingerprint key ``K``)::

    <root>/K.json     schema-versioned envelope: fingerprint, plan, meta
    <root>/K.op.npz   optional FBMPKOperator artefact (see
                      FBMPKOperator.save) letting a hit skip the
                      recomputable split/colour/group preprocessing too

``<root>`` resolves, in order, to: an explicit constructor argument,
``$REPRO_PLAN_CACHE_DIR``, ``$XDG_CACHE_HOME/repro/plans``, and
``~/.cache/repro/plans``.

Robustness contract: a cache entry can *never* make things worse than
having no cache.  Corrupt JSON, truncated files, future schema
versions, plans the current reader does not understand, fingerprint
mismatches — all load as a miss (counted as ``plan_cache.corrupt`` on
top of the miss) and the entry is left for a subsequent ``store`` to
overwrite.  Writes are atomic (temp file + ``os.replace``) so a killed
process cannot leave a half-written entry behind.

Telemetry: every lookup increments ``plan_cache.hit`` or
``plan_cache.miss`` on the active :class:`repro.obs.Telemetry` session
(no-ops otherwise); stores increment ``plan_cache.store``.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from .. import obs
from .fingerprint import StructureFingerprint
from .plan import ExecutionPlan, PlanFormatError

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CACHE_DIR_ENV_VAR",
    "default_cache_dir",
    "CacheEntry",
    "PlanCache",
]

#: Version of the on-disk entry envelope (independent of the plan
#: schema: the envelope carries bookkeeping the plan does not).
#: Version 2: power plans no longer carry a ``backend`` knob, and every
#: fused plan sums rows in Algorithm 2's order, so a version-1 entry
#: (timed under the old kernels) loads as a miss and is re-tuned.
CACHE_SCHEMA_VERSION = 2

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV_VAR = "REPRO_PLAN_CACHE_DIR"


def default_cache_dir() -> Path:
    """Resolve the plan-cache directory (see module docstring)."""
    env = os.environ.get(CACHE_DIR_ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "plans"


@dataclass
class CacheEntry:
    """One successfully loaded cache entry."""

    plan: ExecutionPlan
    meta: Dict[str, Any] = field(default_factory=dict)
    #: Path of the preprocessed-operator artefact, when one was stored
    #: and is present on disk; loaders must still treat the file as
    #: untrusted (fall back to rebuilding from the plan on any error).
    operator_path: Optional[Path] = None


class PlanCache:
    """Content-addressed persistent store of winning execution plans."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    # -- paths ----------------------------------------------------------
    def entry_path(self, fp: StructureFingerprint) -> Path:
        """The JSON envelope path for ``fp``."""
        return self.root / f"{fp.key()}.json"

    def operator_path(self, fp: StructureFingerprint) -> Path:
        """The operator-artefact path for ``fp``."""
        return self.root / f"{fp.key()}.op.npz"

    # -- lookup ---------------------------------------------------------
    def load(self, fp: StructureFingerprint) -> Optional[CacheEntry]:
        """Look up ``fp``; None on miss.

        Every way an entry can be unusable — unreadable file, invalid
        JSON, wrong envelope schema version, fingerprint mismatch,
        plan that fails :meth:`ExecutionPlan.from_dict` — degrades to a
        miss, never an exception.
        """
        path = self.entry_path(fp)
        entry = self._read_entry(path, fp)
        if entry is None:
            obs.add_counter("plan_cache.miss")
            return None
        obs.add_counter("plan_cache.hit")
        op_path = self.operator_path(fp)
        if op_path.is_file():
            entry.operator_path = op_path
        return entry

    def _read_entry(self, path: Path,
                    fp: StructureFingerprint) -> Optional[CacheEntry]:
        try:
            raw = path.read_text()
        except OSError:
            return None  # plain miss: no entry (or unreadable)
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                raise PlanFormatError("cache entry is not a JSON object")
            if payload.get("schema_version") != CACHE_SCHEMA_VERSION:
                raise PlanFormatError(
                    f"unsupported cache schema_version "
                    f"{payload.get('schema_version')!r}")
            if not fp.matches(payload.get("fingerprint", {})):
                raise PlanFormatError("fingerprint mismatch")
            plan = ExecutionPlan.from_dict(payload.get("plan"))
        except (ValueError, PlanFormatError):
            # ValueError covers json.JSONDecodeError; PlanFormatError is
            # a ValueError too but named for clarity.
            obs.add_counter("plan_cache.corrupt")
            return None
        meta = payload.get("meta")
        return CacheEntry(plan=plan,
                          meta=meta if isinstance(meta, dict) else {})

    # -- store ----------------------------------------------------------
    def store(
        self,
        fp: StructureFingerprint,
        plan: ExecutionPlan,
        meta: Optional[Dict[str, Any]] = None,
        operator=None,
    ) -> Path:
        """Persist ``plan`` (and optionally a preprocessed ``operator``)
        under ``fp``; returns the envelope path.

        ``operator`` must expose ``save(path)`` writing an ``.npz``
        (i.e. :class:`repro.core.fbmpk.FBMPKOperator`); it is written
        first so a hit never observes an envelope whose artefact is
        still in flight.  Both writes are atomic replaces.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        if operator is not None:
            self._atomic_write(self.operator_path(fp),
                               lambda tmp: operator.save(tmp))
        envelope = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "fingerprint": fp.to_dict(),
            "plan": plan.to_dict(),
            "meta": dict(meta or {}),
        }
        payload = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
        self._atomic_write(self.entry_path(fp),
                           lambda tmp: Path(tmp).write_text(payload))
        obs.add_counter("plan_cache.store")
        return self.entry_path(fp)

    def _atomic_write(self, dest: Path, write) -> None:
        # The temp name must keep the destination's suffix: np.savez
        # appends ".npz" to names without it, which would strand the
        # payload next to an empty renamed placeholder.
        fd, tmp = tempfile.mkstemp(dir=str(self.root),
                                   prefix=dest.stem + ".tmp.",
                                   suffix=dest.suffix)
        os.close(fd)
        try:
            write(tmp)
            os.replace(tmp, dest)
        finally:
            if os.path.exists(tmp):  # write or replace failed midway
                os.unlink(tmp)

    # -- concurrency ----------------------------------------------------
    @contextmanager
    def lock(self, fp: StructureFingerprint,
             timeout_s: Optional[float] = None):
        """Advisory exclusive lock for ``fp``'s entry (``<key>.lock``).

        Serialises the tune-search critical section across processes
        *and* threads (``flock`` locks the open file description, and
        every ``with`` opens its own descriptor), so two concurrent
        first-tuners of the same structure cannot both pay the search
        or interleave their stores: the loser blocks, then finds the
        winner's entry on its in-lock re-check (double-checked
        locking — see :func:`repro.tune.autotune_power`).

        ``timeout_s`` bounds how long a waiter blocks on the holder:
        past it, the section proceeds *unlocked* (counter
        ``plan_cache.lock_timeout``) rather than stalling behind a
        wedged or slow peer — the duplicated search costs time, never
        correctness.

        Best-effort by design: on platforms without ``fcntl`` or on
        any locking failure this degrades to an unlocked section.
        Atomic stores keep that *correct* (last writer wins, entries
        are never torn) — the lock only removes duplicated work.
        """
        try:
            import fcntl
        except ImportError:  # pragma: no cover - POSIX-only fallback
            yield
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fh = open(self.root / f"{fp.key()}.lock", "a+")
        except OSError:  # pragma: no cover - unwritable cache dir
            yield
            return
        try:
            try:
                if timeout_s is None:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
                else:
                    self._flock_bounded(fcntl, fh.fileno(), timeout_s)
            except OSError:  # pragma: no cover - e.g. NFS without locks
                pass
            yield
        finally:
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
            except OSError:  # pragma: no cover
                pass
            fh.close()

    @staticmethod
    def _flock_bounded(fcntl, fd: int, timeout_s: float) -> None:
        """Non-blocking ``flock`` retried until ``timeout_s`` elapses.

        Gives up (returning without the lock held — the caller's
        section then runs unlocked) instead of blocking indefinitely
        behind a holder that is slow, hung, or SIGSTOPped.
        """
        import errno
        import time as _time
        end = _time.monotonic() + max(0.0, timeout_s)
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                return
            except OSError as exc:
                if exc.errno not in (errno.EAGAIN, errno.EACCES):
                    raise
            if _time.monotonic() >= end:
                obs.add_counter("plan_cache.lock_timeout")
                return
            _time.sleep(min(0.02, max(0.0, end - _time.monotonic())))

    # -- maintenance ----------------------------------------------------
    def invalidate(self, fp: StructureFingerprint) -> None:
        """Drop the entry (and artefact) for ``fp``, if present."""
        for path in (self.entry_path(fp), self.operator_path(fp)):
            try:
                path.unlink()
            except OSError:
                pass

    def clear(self) -> int:
        """Remove every entry in the cache directory; returns the number
        of files removed.  Only this cache's file patterns are touched."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in list(self.root.glob("*.json")) + \
                list(self.root.glob("*.op.npz")) + \
                list(self.root.glob("*.lock")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanCache(root={str(self.root)!r})"
