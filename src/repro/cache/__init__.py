"""Persistent, content-addressed memoisation of sweep-cell results.

The paper's figures re-measure the same (codec, video, CRF, preset)
cells over and over — Figs. 3–7 all read the CRF sweep — and nothing
about a cell's result depends on *when* it runs.  This package stores
each cell's serialized :class:`~repro.uarch.perfcounters.PerfReport`
under a content address (:mod:`repro.cache.keys`) in a shared on-disk
store (:mod:`repro.cache.store`), so re-runs, resumed runs, parallel
pool workers and entirely separate experiment invocations all reuse
one another's work.
"""

from .keys import (
    CACHE_SCHEMA_VERSION,
    CODE_SALT,
    cell_cache_key,
    machine_fingerprint,
    video_content_key,
)
from .store import ResultCache, default_cache_dir

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CODE_SALT",
    "ResultCache",
    "cell_cache_key",
    "default_cache_dir",
    "machine_fingerprint",
    "video_content_key",
]
