"""Content-addressed on-disk cache of experiment results.

Records live under ``.repro_cache/<hh>/<key>.json`` where ``key`` is a
figure run's cache key (identity hash + package version, see
:mod:`repro.orchestration.figures`) and ``hh`` is its first two hex digits
(a git-style fan-out that keeps directories small).  A record stores the
spec that produced it plus one entry per completed trial, so a
partially-executed run resumes incrementally: only the missing trial
indices re-run.

Corrupt or unreadable records are treated as cache misses -- the trial is
simply recomputed and the record rewritten -- so a truncated file can never
poison a run.  Writes go through a temp file + ``os.replace`` to stay
atomic under concurrent runs.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

logger = logging.getLogger(__name__)

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Record schema version; bump on incompatible layout changes.
STORE_VERSION = 1


def default_cache_root() -> Path:
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


class ResultStore:
    """Content-addressed JSON store keyed by a figure run's cache key."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()

    # -- paths ------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- read -------------------------------------------------------------

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the record for ``key``, or ``None`` on miss/corruption."""
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            logger.warning("ignoring corrupt cache record %s: %s", path, exc)
            return None
        if (
            not isinstance(record, dict)
            or record.get("hash") != key
            or not isinstance(record.get("trials"), dict)
        ):
            logger.warning("ignoring malformed cache record %s", path)
            return None
        return record

    def cached_trials(self, key: str) -> Dict[int, Dict[str, Any]]:
        """The completed trials of a record, keyed by integer trial index."""
        record = self.load(key)
        if record is None:
            return {}
        out: Dict[int, Dict[str, Any]] = {}
        for trial_key, entry in record["trials"].items():
            if not isinstance(entry, dict):
                logger.warning("skipping malformed trial entry %r in %s",
                               trial_key, key)
                continue
            try:
                out[int(trial_key)] = entry
            except (TypeError, ValueError):
                logger.warning("skipping malformed trial key %r in %s",
                               trial_key, key)
        return out

    def has(self, key: str) -> bool:
        return self.load(key) is not None

    # -- write ------------------------------------------------------------

    def save(self, key: str, record: Dict[str, Any]) -> Path:
        """Atomically write ``record`` for ``key`` and return its path."""
        record = dict(record)
        record["hash"] = key
        record.setdefault("version", STORE_VERSION)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # No sort_keys: trial values keep their insertion order, which
                # downstream table rendering treats as the column order.
                json.dump(record, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # -- listing / eviction ----------------------------------------------

    def _record_paths(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("??/*.json"))

    def entries(self) -> List[Dict[str, Any]]:
        """Summaries of every readable record, for ``cache ls``."""
        out: List[Dict[str, Any]] = []
        for path in self._record_paths():
            record = self.load(path.stem)
            if record is None:
                out.append({"hash": path.stem, "name": "<corrupt>",
                            "trials": 0, "bytes": path.stat().st_size})
                continue
            spec = record.get("spec", {})
            out.append({
                "hash": record["hash"],
                "name": spec.get("name", "?"),
                "runner": spec.get("runner", "?"),
                "trials": len(record["trials"]),
                "bytes": path.stat().st_size,
            })
        return out

    #: Shortest accepted eviction prefix; below this, typos wipe whole swaths.
    MIN_CLEAR_PREFIX = 6

    def clear(self, key: Optional[str] = None) -> int:
        """Remove records and return how many were deleted.

        With ``key`` (a full hash or a unique prefix of at least
        :data:`MIN_CLEAR_PREFIX` characters), exactly one record is
        targeted -- like git, an ambiguous prefix is refused with a
        ``ValueError`` rather than deleting everything it matches.
        Without ``key``, every record goes.
        """
        if key is not None and len(key) < self.MIN_CLEAR_PREFIX:
            raise ValueError(
                f"hash prefix {key!r} is too short; "
                f"use at least {self.MIN_CLEAR_PREFIX} characters or --all"
            )
        targets = [
            path for path in self._record_paths()
            if key is None or path.stem.startswith(key)
        ]
        if key is not None and len(targets) > 1 and \
                len(key) < 64:
            raise ValueError(
                f"hash prefix {key!r} is ambiguous "
                f"({len(targets)} records match); use more characters"
            )
        removed = 0
        for path in targets:
            path.unlink(missing_ok=True)
            removed += 1
            try:
                path.parent.rmdir()
            except OSError:
                pass  # not empty; other records share the fan-out dir
        return removed
