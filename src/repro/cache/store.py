"""The on-disk result cache: one JSON file per content-addressed key.

Layout is two-level (``<root>/<key[:2]>/<key>.json``) so a large cache
never puts tens of thousands of entries in one directory.  Writes are
atomic — serialize to a temp file in the destination directory, then
``os.replace`` — so concurrent pool workers publishing the same key
race benignly: whichever rename lands last wins and both files were
identical by construction (the key *is* the content address of the
inputs).

Lookups never raise.  A missing entry is a miss; a corrupt, truncated,
stale-schema or key-mismatched entry is an *invalidation* (counted
separately, best-effort deleted) and then a miss.  Hit/miss/
invalidation counters feed the ambient metrics registry, so a run's
``--metrics-json`` artifact reports exactly how much work the cache
saved.
"""

from __future__ import annotations

import json
import os
from typing import Any

from ..errors import CacheError
from ..obs.context import record_metric
from ..resilience.faults import fault_point
from .keys import CACHE_SCHEMA_VERSION

#: Environment override for the default cache location.
_ENV_DIR = "REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    """Where caches live when no explicit path is given."""
    return os.environ.get(_ENV_DIR) or os.path.join(".repro", "cache")


class ResultCache:
    """Content-addressed store of JSON-able cell payloads.

    ``salt`` is folded into every key computed *for* this cache by
    :meth:`repro.core.session.Session` — changing it orphans (but does
    not delete) every existing entry.
    """

    def __init__(self, root: str, salt: str = "") -> None:
        self.root = root
        self.salt = salt
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.writes = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    @staticmethod
    def _valid(entry: Any, key: str) -> bool:
        return (
            isinstance(entry, dict)
            and entry.get("schema_version") == CACHE_SCHEMA_VERSION
            and entry.get("key") == key
            and "payload" in entry
        )

    # -- lookup ------------------------------------------------------

    def get(self, key: str) -> Any | None:
        """The payload stored under ``key``, or ``None`` (a miss).

        Never raises: unreadable or corrupt entries are invalidated
        (deleted best-effort) and reported as misses.
        """
        path = self._path(key)
        try:
            # Injectable read-side disk fault (an ``enospc``/EIO-class
            # OSError lands in the invalidate branch below, preserving
            # the never-raise contract under injection too).
            fault_point(f"cache:get:{key[:12]}")
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self._miss()
            return None
        except (OSError, ValueError, UnicodeDecodeError):
            entry = None
        if not self._valid(entry, key):
            self._invalidate(path)
            self._miss()
            return None
        self.hits += 1
        record_metric("counter", "cache.hits")
        return entry["payload"]

    def _miss(self) -> None:
        self.misses += 1
        record_metric("counter", "cache.misses")

    def _invalidate(self, path: str) -> None:
        self.invalidations += 1
        record_metric("counter", "cache.invalidations")
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- publish -----------------------------------------------------

    def put(self, key: str, payload: Any) -> bool:
        """Atomically publish ``payload`` under ``key``.

        Returns False (and counts ``cache.errors``) when the filesystem
        refuses — a cache that cannot write must not fail the cell.
        """
        path = self._path(key)
        entry = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "key": key,
            "payload": payload,
        }
        try:
            # Injectable write-side disk fault (ENOSPC on publish must
            # not fail the cell — it is a counted non-write).
            fault_point(f"cache:put:{key[:12]}")
            written = self._write_entry(path, entry)
        except OSError:
            written = False
        if not written:
            record_metric("counter", "cache.errors")
            return False
        self.writes += 1
        record_metric("counter", "cache.writes")
        return True

    @staticmethod
    def _write_entry(path: str, entry: dict[str, Any]) -> bool:
        """Atomic serialize-then-rename publish of one entry."""
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)
                handle.write("\n")
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        return True

    # -- administration ----------------------------------------------

    def _entry_paths(self) -> list[str]:
        paths: list[str] = []
        try:
            shards = sorted(os.listdir(self.root))
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise CacheError(
                f"cannot read cache directory {self.root!r}: {exc}"
            ) from exc
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            try:
                names = sorted(os.listdir(shard_dir))
            except OSError as exc:
                raise CacheError(
                    f"cannot read cache shard {shard_dir!r}: {exc}"
                ) from exc
            paths.extend(
                os.path.join(shard_dir, name)
                for name in names
                if name.endswith(".json")
            )
        return paths

    def stats(self) -> dict[str, Any]:
        """On-disk entry count/bytes plus this instance's counters."""
        paths = self._entry_paths()
        total_bytes = 0
        for path in paths:
            try:
                total_bytes += os.path.getsize(path)
            except OSError:
                pass
        return {
            "root": self.root,
            "entries": len(paths),
            "bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "writes": self.writes,
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self._entry_paths():
            try:
                os.unlink(path)
                removed += 1
            except OSError as exc:
                raise CacheError(
                    f"cannot remove cache entry {path!r}: {exc}"
                ) from exc
        return removed

    def __len__(self) -> int:
        return len(self._entry_paths())
