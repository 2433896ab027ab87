"""Sweep grids: the paper's CRF, preset, codec and thread studies.

Experiments describe each grid as :class:`~repro.core.session.CellSpec`
points (:func:`sweep_specs` builds cross-products; :func:`scale_crf`
and :func:`comparable_preset` place every encoder at a comparable
operating point), execute it once through :func:`repro.parallel.pool.
execute_cells`, and reshape the returned reports into the exact rows
and series of each table and figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..codecs import SPECS
from ..errors import ExperimentError
from ..parallel.scaling import ScalingCurve, thread_scaling, topdown_with_threads
from ..uarch.perfcounters import PerfReport
from ..uarch.topdown import TopDown
from .session import CellSpec, Session


def sweep_specs(
    codecs: str | Iterable[str],
    videos: str | Iterable[str],
    crfs: float | Iterable[float],
    presets: int | Iterable[int],
) -> list[CellSpec]:
    """Cross-product grid of cell specs, in nested-loop order.

    Scalars are accepted for any axis, so the common one-codec
    one-preset sweeps read naturally::

        execute_cells(session, sweep_specs("svt-av1", videos, crfs, 4))

    The order (codec, then video, then CRF, then preset) is the order
    serial execution — and therefore the ledger — visits the cells.
    """

    def axis(value) -> tuple:
        if isinstance(value, (str, int, float)):
            return (value,)
        return tuple(value)

    return [
        CellSpec(codec, video, crf, preset)
        for codec in axis(codecs)
        for video in axis(videos)
        for crf in axis(crfs)
        for preset in axis(presets)
    ]


def scale_crf(codec: str, crf: float, reference_range: int = 63) -> float:
    """Translate a CRF on the AV1 0-63 scale to ``codec``'s scale.

    The paper sweeps "CRF" jointly across encoders whose CRF ranges
    differ (§3.3); equal *fractions* of the range are the comparable
    operating points.
    """
    spec = SPECS.get(codec)
    if spec is None:
        raise ExperimentError(f"unknown codec {codec!r}")
    return round(crf / reference_range * spec.crf_range)


def comparable_preset(codec: str, av1_preset: int) -> int:
    """Map an AV1-scale preset (0-8, higher=faster) onto ``codec``.

    x264/x265 number presets 0-9 with higher = *slower* (§3.3), so the
    scale is inverted and stretched.
    """
    spec = SPECS.get(codec)
    if spec is None:
        raise ExperimentError(f"unknown codec {codec!r}")
    if spec.preset_higher_is_faster:
        return av1_preset
    # Map speed level (0 slowest..8 fastest) into the reversed range.
    level = round(av1_preset / 8 * (spec.preset_count - 1))
    return spec.preset_count - 1 - level


@dataclass(frozen=True)
class ThreadStudy:
    """Scaling curve plus per-thread-count top-down profiles."""

    codec: str
    curve: ScalingCurve
    topdowns: dict[int, TopDown]


def thread_study(
    session: Session,
    spec: CellSpec,
    report: PerfReport,
    max_threads: int = 8,
    num_frames: int = 8,
) -> ThreadStudy:
    """The paper's §4.6 study for one encoder configuration.

    ``report`` is the characterization of grid cell ``spec`` (from the
    experiment's one walk of its grid); the scaling curve comes from a
    ``num_frames`` instrumented encode of the same configuration.
    """
    result = session.encode(
        spec.codec, spec.video, spec.crf, spec.preset, num_frames=num_frames
    )
    curve = thread_scaling(result, max_threads=max_threads)
    topdowns = {
        point.threads: topdown_with_threads(
            report.topdown, spec.codec, point.threads, point.utilisation
        )
        for point in curve.points
    }
    return ThreadStudy(codec=spec.codec, curve=curve, topdowns=topdowns)
