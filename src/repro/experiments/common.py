"""Shared experiment configuration.

``REPRO_FAST=1`` in the environment shrinks every experiment (fewer
videos, frames and CRF points) for smoke-testing; the full
configuration regenerates the paper's artifacts over all fifteen
vbench clips.
"""

from __future__ import annotations

import os
from typing import Hashable, Mapping, TypeVar

from ..cache import ResultCache
from ..core.session import CellSpec, Session
from ..obs.span import trace_span
from ..parallel import pool
from ..parallel.pool import current_parallel, resolve_cache_dir
from ..resilience.executor import current_context
from ..uarch.perfcounters import PerfReport
from ..video import vbench

_P = TypeVar("_P", bound=Hashable)

#: The five encoders, in the paper's customary order.
ALL_CODECS: tuple[str, ...] = (
    "x264", "x265", "libvpx-vp9", "libaom", "svt-av1"
)

#: The four encoders of the thread-scalability study (§4.6).
THREAD_CODECS: tuple[str, ...] = ("x264", "x265", "libaom", "svt-av1")


def fast_mode() -> bool:
    """True when REPRO_FAST requests reduced experiment sizes."""
    return os.environ.get("REPRO_FAST", "") not in ("", "0")


def sweep_videos() -> tuple[str, ...]:
    """Videos the per-video sweeps cover."""
    if fast_mode():
        return ("desktop", "game1", "hall")
    return tuple(vbench.names())


def sweep_crfs() -> tuple[int, ...]:
    """CRF grid for the sweeps (AV1 0-63 scale)."""
    if fast_mode():
        return (10, 35, 60)
    return (10, 20, 30, 40, 50, 60)


def sweep_presets() -> tuple[int, ...]:
    """Preset grid for the preset sweep (AV1 0-8 scale)."""
    if fast_mode():
        return (0, 4, 8)
    return tuple(range(9))


def make_session() -> Session:
    """Session sized for the current mode.

    When :func:`repro.experiments.run_experiment` installed an
    execution context (``resume``/``max_retries``/``cell_timeout``),
    its resilience guard is attached so every sweep cell runs under
    the retry/timeout/checkpoint policies.  Likewise an ambient
    :class:`~repro.parallel.pool.ParallelConfig` (or the
    ``REPRO_CACHE_DIR`` environment variable) attaches the
    content-addressed result cache.
    """
    with trace_span("make_session", fast=fast_mode()):
        context = current_context()
        parallel = current_parallel()
        cache_dir = resolve_cache_dir(None)
        return Session(
            num_frames=3 if fast_mode() else None,
            guard=context.guard if context is not None else None,
            cache=(
                ResultCache(
                    cache_dir,
                    salt=parallel.cache_salt if parallel is not None else "",
                )
                if cache_dir
                else None
            ),
        )


def run_grid(
    session: Session, grid: Mapping[_P, CellSpec]
) -> dict[_P, PerfReport]:
    """Walk one experiment grid once; the reports of surviving points.

    ``grid`` maps each figure point to its cell, in walk order.  Every
    cell runs through :func:`repro.parallel.pool.execute_cells` (looked
    up on the module at call time; serial runs are its ``workers=1``
    case) unless the session already settled the whole grid for an
    earlier figure.  Quarantined cells are dropped: the result maps
    only the points that have a report, in grid order.
    """
    specs = list(grid.values())
    reports = session.memoised(specs)
    if reports is None:
        reports = pool.execute_cells(session, specs)
    return {
        point: report
        for point, report in zip(grid, reports)
        if report is not None
    }


def crf_curves(
    session: Session,
    videos: tuple[str, ...],
    crfs: tuple[int, ...],
    preset: int,
) -> dict[str, list[tuple[int, PerfReport]]]:
    """The SVT-AV1 CRF sweep that Figs. 3-7 view, as one grid walk.

    Maps each video to its surviving ``(crf, report)`` points in CRF
    order; a quarantined cell is simply absent from its video's curve.
    """
    reports = run_grid(session, {
        (video, crf): CellSpec("svt-av1", video, crf, preset)
        for video in videos
        for crf in crfs
    })
    return {
        video: [
            (crf, reports[video, crf])
            for crf in crfs
            if (video, crf) in reports
        ]
        for video in videos
    }
