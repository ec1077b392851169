"""Content-keyed on-disk result store, safe under concurrent writers.

The :class:`~repro.experiments.campaign.Campaign` has always cached
finished :class:`~repro.gpu.results.RunResult` records on disk, one JSON
file per content key.  This module extracts that storage into a
standalone class so every execution surface — the CLI campaign, the
:mod:`repro.service` job server and its worker processes — shares one
directory layout, one record schema, and one set of durability rules:

* **Atomic writes.**  Records are written to a temp file in the cache
  directory and published with ``os.replace``, so a reader (or a second
  writer racing on the same key) only ever sees a complete record.
  Writers racing on one key are idempotent by construction — the
  simulator is deterministic and keys are content hashes, so whichever
  ``os.replace`` lands last installed the same bytes.
* **Corrupt-entry quarantine.**  A record that fails to decode (torn by
  a crashed writer predating atomic publication, disk corruption, a
  stray partial copy) is moved into a ``quarantine/`` subdirectory
  rather than deleted or left in place.  Leaving it would make every
  future lookup re-parse garbage; deleting it would destroy the
  evidence.  After quarantine the key simply misses and re-executes.
* **Version gating.**  Records carry the campaign
  :data:`~repro.experiments.campaign.CACHE_VERSION`; a valid record with
  a stale version is *not* quarantined (it is well-formed, just retired)
  — it reads as a miss and is overwritten by the next store.
* **Keys are file names.**  A key that is not one plain file name (it
  holds a path separator or a NUL, is empty, or is ``.`` or ``..``) has
  no record: lookups miss without touching the disk, and storing one
  raises ``ValueError``.  The job server hands URL path segments to
  :meth:`ResultStore.load`, so this keeps ``GET /results/../x`` from
  reading or quarantining files outside the cache directory.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional

from repro.gpu.results import RunResult

#: Subdirectory (inside the cache dir) that corrupt records are moved to.
QUARANTINE_DIR = "quarantine"


def _is_file_name(key: str) -> bool:
    """Whether ``key`` names one file inside a directory, not a path."""
    return (key not in ("", ".", "..") and "\0" not in key
            and os.sep not in key
            and (os.altsep is None or os.altsep not in key))


class ResultStore:
    """One directory of ``<content-key>.json`` RunResult records.

    Args:
        cache_dir: storage directory, created on first use.  ``None``
            disables persistence — every lookup misses and every store
            is a no-op, so callers need no ``if cache_dir`` guards.
        version: record schema version; defaults to the campaign's
            :data:`~repro.experiments.campaign.CACHE_VERSION`.

    Attributes:
        hits / misses: lookup counters (hits = decoded current-version
            records).
        quarantined: corrupt records moved aside by this instance.
    """

    def __init__(self, cache_dir: Optional[str],
                 version: Optional[int] = None):
        if version is None:
            from repro.experiments.campaign import CACHE_VERSION
            version = CACHE_VERSION
        self.cache_dir = cache_dir
        self.version = version
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    # -------------------------------------------------------------- paths
    def path(self, key: str) -> Optional[str]:
        """The record path for ``key`` (None when persistence is off or
        ``key`` is not a plain file name)."""
        if not self.cache_dir or not _is_file_name(key):
            return None
        return os.path.join(self.cache_dir, f"{key}.json")

    def quarantine_path(self, key: str) -> Optional[str]:
        if not self.cache_dir or not _is_file_name(key):
            return None
        return os.path.join(self.cache_dir, QUARANTINE_DIR, f"{key}.json")

    # ------------------------------------------------------------- lookup
    def load(self, key: str) -> Optional[RunResult]:
        """The stored result for ``key``, or None on any kind of miss.

        A record whose result payload does not decode into a
        :class:`RunResult` is corrupt even if it is valid JSON — it is
        quarantined like a torn file would be.
        """
        record = self.load_record(key)
        if record is None:
            return None
        try:
            result = RunResult.from_dict(record["result"])
        except (ValueError, KeyError, TypeError, AttributeError):
            self.quarantine(key)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def load_record(self, key: str) -> Optional[dict]:
        """The raw on-disk record (``{"version", "spec", "result"}``).

        Undecodable files are quarantined; well-formed records with a
        stale version read as misses but stay in place.  Hit counting
        happens in :meth:`load`, which also vets the result payload.
        """
        path = self.path(key)
        if path is None or not os.path.exists(path):
            self.misses += 1
            return None
        try:
            with open(path, encoding="utf-8") as fh:
                record = json.load(fh)
            if not isinstance(record, dict) or "result" not in record:
                raise ValueError("record is not a {version, result} object")
        except OSError:
            # Unreadable, not provably corrupt (permissions, transient
            # I/O): miss without quarantining.
            self.misses += 1
            return None
        except ValueError:
            self.quarantine(key)
            self.misses += 1
            return None
        if record.get("version") != self.version:
            self.misses += 1
            return None
        return record

    # -------------------------------------------------------------- store
    def store(self, key: str, spec_dict: Optional[dict],
              result_dict: dict) -> None:
        """Atomically publish a result record for ``key``.

        ``spec_dict`` rides along for provenance (a record is
        self-describing: the spec that produced it is inside), matching
        the historical campaign record schema.  A key that is not a plain
        file name raises ``ValueError`` (with persistence on).
        """
        path = self.path(key)
        if path is None:
            if self.cache_dir:
                raise ValueError(f"result key {key!r} is not a file name")
            return
        record = {"version": self.version, "spec": spec_dict,
                  "result": result_dict}
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(record, fh)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # --------------------------------------------------------- quarantine
    def quarantine(self, key: str) -> Optional[str]:
        """Move ``key``'s record into the quarantine subdirectory.

        Returns the quarantine path, or None when there was nothing to
        move (the move itself races benignly: a concurrent writer may
        republish the key first, in which case the fresh record wins and
        the corrupt bytes land in quarantine regardless of order).
        """
        path, qpath = self.path(key), self.quarantine_path(key)
        if path is None or not os.path.exists(path):
            return None
        os.makedirs(os.path.dirname(qpath), exist_ok=True)
        try:
            os.replace(path, qpath)
        except OSError:
            return None
        self.quarantined += 1
        return qpath
