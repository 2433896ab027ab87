"""Motion estimation: full search, diamond search, sub-pel refinement.

Inter prediction dominates encoder runtime, and the *breadth* of the
motion search is one of the main levers the speed presets pull.  Two
integer-pel strategies are provided:

- :func:`full_search` — exhaustive SAD over a ±R window, evaluated as
  one vectorised sliding-window computation (as a production SIMD
  kernel would be), used by the slow presets;
- :func:`diamond_search` — the iterative large/small-diamond descent
  used by fast presets.

Sub-pel refinement interpolates half- and quarter-pel candidates
around the integer winner (bilinear taps; real codecs use 6–8-tap
filters, which only changes the constant in the interpolation cost).

Every function reports how many candidate positions it evaluated and
how many interpolated pixels it produced so the instrumentation layer
can charge the correct kernel work.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .. import kernels
from ..errors import CodecError


@dataclass(frozen=True)
class MotionVector:
    """A motion vector in eighth-pel units (AV1 precision)."""

    row: int
    col: int

    def __add__(self, other: "MotionVector") -> "MotionVector":
        return MotionVector(self.row + other.row, self.col + other.col)

    @property
    def magnitude(self) -> float:
        """Euclidean magnitude in eighth-pel units."""
        return float(np.hypot(self.row, self.col))


ZERO_MV = MotionVector(0, 0)


@dataclass
class SearchResult:
    """Outcome of a motion search.

    Parameters
    ----------
    mv:
        Best motion vector (eighth-pel units).
    sad:
        SAD of the best candidate.
    positions:
        Number of candidate positions whose SAD was evaluated.
    interp_pixels:
        Pixels produced by sub-pel interpolation during refinement.
    improvements:
        Per-evaluated-position "beat the running best" outcomes, in
        evaluation order — the data-dependent compare branches a real
        search kernel executes, replayed into the branch trace by the
        pipeline (capped for vectorised full search).
    """

    mv: MotionVector
    sad: float
    positions: int
    interp_pixels: int = 0
    improvements: list[bool] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.improvements is None:
            self.improvements = []


def _padded_window(
    ref: np.ndarray, row: int, col: int, height: int, width: int, margin: int
) -> np.ndarray:
    """Reference window around a block, edge-padded to full extent."""
    if height <= 0 or width <= 0:
        raise CodecError("window extent must be positive")
    top = row - margin
    left = col - margin
    out_h = height + 2 * margin
    out_w = width + 2 * margin
    # Fully-interior windows (the overwhelmingly common case) need no
    # padding: return a plain view.  Callers consume the window within
    # the same search call, before the reference plane can change.
    if top >= 0 and left >= 0 and top + out_h <= ref.shape[0] and (
        left + out_w <= ref.shape[1]
    ):
        return ref[top : top + out_h, left : left + out_w]
    # Clipped fancy indexing replicates the frame edge for any window
    # position, including windows pushed fully outside the frame (edge
    # blocks with outward MVs) — the behaviour of real encoders' padded
    # reference planes.
    rows = np.clip(np.arange(top, top + out_h), 0, ref.shape[0] - 1)
    cols = np.clip(np.arange(left, left + out_w), 0, ref.shape[1] - 1)
    return ref[np.ix_(rows, cols)]


@functools.lru_cache(maxsize=None)
def _block_offsets(height: int, width: int, pitch: int) -> np.ndarray:
    """Flat offsets of a ``height x width`` block in rows of ``pitch``."""
    offsets = np.arange(height)[:, None] * pitch + np.arange(width)
    offsets.setflags(write=False)
    return offsets


def _gather_blocks(
    plane: np.ndarray, starts: list[int], height: int, width: int
) -> np.ndarray:
    """``(k, h, w)`` copies of the blocks of a C-contiguous ``plane``
    (2-D, or a stack of equally-shaped planes) whose top-left samples
    sit at flat indices ``starts``."""
    offsets = _block_offsets(height, width, plane.shape[-1])
    return plane.reshape(-1)[np.add.outer(starts, offsets)]


def block_sad(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of absolute differences of two equally-shaped blocks."""
    if a.shape != b.shape:
        raise CodecError(f"SAD shape mismatch {a.shape} vs {b.shape}")
    return float(np.abs(a.astype(np.int32) - b.astype(np.int32)).sum())


def full_search(
    src: np.ndarray,
    ref: np.ndarray,
    row: int,
    col: int,
    search_range: int,
) -> SearchResult:
    """Exhaustive integer-pel search over ``±search_range`` pixels.

    The SADs of all ``(2R+1)^2`` candidates are computed in one
    vectorised pass, mirroring the SIMD full-search kernels in
    production encoders.
    """
    if search_range < 1:
        raise CodecError(f"search range must be >= 1, got {search_range}")
    height, width = src.shape
    window = _padded_window(ref, row, col, height, width, search_range)
    candidates = np.lib.stride_tricks.sliding_window_view(
        window, (height, width)
    )
    diffs = np.abs(
        candidates.astype(np.int32) - src.astype(np.int32)[None, None]
    )
    sads = diffs.sum(axis=(2, 3))
    best_flat = int(np.argmin(sads))
    best_r, best_c = divmod(best_flat, sads.shape[1])
    mv = MotionVector((best_r - search_range) * 8, (best_c - search_range) * 8)
    flat = sads.ravel()
    prefix = flat[: min(flat.size, 256)]
    running = np.minimum.accumulate(prefix)
    improvements = [True] + list(prefix[1:] < running[:-1])
    return SearchResult(
        mv=mv,
        sad=float(sads[best_r, best_c]),
        positions=sads.size,
        improvements=improvements,
    )


#: Large- and small-diamond offsets (integer pel).
_LARGE_DIAMOND = ((-2, 0), (-1, -1), (-1, 1), (0, -2), (0, 2), (1, -1), (1, 1), (2, 0))
_SMALL_DIAMOND = ((-1, 0), (0, -1), (0, 1), (1, 0))
#: The centre and every point either diamond evaluates around it.
_RING = ((0, 0),) + _LARGE_DIAMOND + _SMALL_DIAMOND


def diamond_search(
    src: np.ndarray,
    ref: np.ndarray,
    row: int,
    col: int,
    search_range: int,
    start: MotionVector = ZERO_MV,
    max_steps: int = 16,
) -> SearchResult:
    """Large/small diamond descent from ``start`` (integer-pel)."""
    if search_range < 1:
        raise CodecError(f"search range must be >= 1, got {search_range}")
    height, width = src.shape
    margin = search_range + 2
    window = _padded_window(ref, row, col, height, width, margin)
    src32 = src.astype(np.int32)

    def sad_at(dr: int, dc: int) -> float:
        block = window[margin + dr : margin + dr + height,
                       margin + dc : margin + dc + width]
        return float(np.abs(block.astype(np.int32) - src32).sum())

    def visit(cr: int, cc: int) -> None:
        """Hook run whenever the search centre moves (no-op here)."""

    if kernels.vectorized_enabled():
        # Each time the centre moves, the SADs of every diamond point
        # around it that the descent may evaluate next are computed in
        # one stacked pass over views of the pre-widened window; the
        # walk then reads them in its own order.  SADs are integer
        # sums, exact in any order, so each equals the per-candidate
        # value and every decision replays unchanged.
        win32 = window.astype(np.int32)
        pitch = win32.shape[1]
        known: dict[tuple[int, int], float] = {}

        def visit(cr: int, cc: int) -> None:  # noqa: F811
            todo = [
                (cr + dr, cc + dc) for dr, dc in _RING
                if abs(cr + dr) <= search_range
                and abs(cc + dc) <= search_range
                and (cr + dr, cc + dc) not in known
            ]
            if not todo:
                return
            starts = [(margin + r) * pitch + margin + c for r, c in todo]
            blocks = _gather_blocks(win32, starts, height, width)
            sads = np.abs(blocks - src32).reshape(len(todo), -1).sum(axis=1)
            known.update(zip(todo, sads.tolist()))

        def sad_at(dr: int, dc: int) -> float:  # noqa: F811
            return float(known[(dr, dc)])

    cur_r, cur_c = start.row // 8, start.col // 8
    cur_r = max(-search_range, min(search_range, cur_r))
    cur_c = max(-search_range, min(search_range, cur_c))
    visit(cur_r, cur_c)
    best = sad_at(cur_r, cur_c)
    positions = 1
    improvements: list[bool] = [True]

    for _ in range(max_steps):
        improved = False
        for dr, dc in _LARGE_DIAMOND:
            nr, nc = cur_r + dr, cur_c + dc
            if abs(nr) > search_range or abs(nc) > search_range:
                continue
            positions += 1
            cand = sad_at(nr, nc)
            better = cand < best
            improvements.append(better)
            if better:
                best, cur_r, cur_c, improved = cand, nr, nc, True
                visit(cur_r, cur_c)
        if not improved:
            break
    for dr, dc in _SMALL_DIAMOND:
        nr, nc = cur_r + dr, cur_c + dc
        if abs(nr) > search_range or abs(nc) > search_range:
            continue
        positions += 1
        cand = sad_at(nr, nc)
        better = cand < best
        improvements.append(better)
        if better:
            best, cur_r, cur_c = cand, nr, nc
            visit(cur_r, cur_c)
    return SearchResult(
        mv=MotionVector(cur_r * 8, cur_c * 8), sad=best, positions=positions,
        improvements=improvements,
    )


def interpolate(ref: np.ndarray, row: int, col: int, height: int, width: int,
                mv: MotionVector) -> np.ndarray:
    """Motion-compensated prediction at eighth-pel precision (bilinear)."""
    if kernels.vectorized_enabled() and mv.row % 8 == 0 and mv.col % 8 == 0:
        # Integer-pel vector: both fractional taps are exactly zero, so
        # the bilinear blend multiplies by 1.0/0.0 and rint/clip are
        # identities on the uint8 samples — the prediction IS the
        # (edge-padded) reference window.
        window = _padded_window(
            ref, row + mv.row // 8, col + mv.col // 8, height, width, 0
        )
        return np.array(window, dtype=np.uint8)  # owned copy, never a view
    fr = row + mv.row / 8.0
    fc = col + mv.col / 8.0
    r0 = int(np.floor(fr))
    c0 = int(np.floor(fc))
    ar = fr - r0
    ac = fc - c0
    window = _padded_window(ref, r0, c0, height + 1, width + 1, 0)
    top = window[:height, :width] * (1 - ac) + window[:height, 1 : width + 1] * ac
    bot = (
        window[1 : height + 1, :width] * (1 - ac)
        + window[1 : height + 1, 1 : width + 1] * ac
    )
    pred = top * (1 - ar) + bot * ar
    np.rint(pred, out=pred)
    np.maximum(pred, 0, out=pred)
    np.minimum(pred, 255, out=pred)
    return pred.astype(np.uint8)


def subpel_refine(
    src: np.ndarray,
    ref: np.ndarray,
    row: int,
    col: int,
    start: SearchResult,
    depth: int,
) -> SearchResult:
    """Refine an integer-pel result at half- (depth>=1) and quarter-pel
    (depth>=2) and eighth-pel (depth>=3) precision.

    Each refinement level evaluates the 8 surrounding candidates at the
    next finer precision, keeping the best.
    """
    if depth <= 0:
        return start
    height, width = src.shape
    best_mv = start.mv
    best_sad = start.sad
    positions = start.positions
    interp_pixels = start.interp_pixels
    improvements = list(start.improvements)
    src_f = src.astype(np.float64)

    # All refinement candidates stay within ±1 integer pel of the
    # integer-pel winner, so one padded window serves every level.
    margin = 2
    base_r = row + best_mv.row // 8
    base_c = col + best_mv.col // 8
    window = _padded_window(ref, base_r, base_c, height + 1, width + 1, margin)
    window_f = window.astype(np.float64)

    def sad_at(mv: MotionVector) -> float:
        fr = row + mv.row / 8.0 - (base_r - margin)
        fc = col + mv.col / 8.0 - (base_c - margin)
        r0 = int(np.floor(fr))
        c0 = int(np.floor(fc))
        ar = fr - r0
        ac = fc - c0
        top = (
            window_f[r0 : r0 + height, c0 : c0 + width] * (1 - ac)
            + window_f[r0 : r0 + height, c0 + 1 : c0 + width + 1] * ac
        )
        bot = (
            window_f[r0 + 1 : r0 + height + 1, c0 : c0 + width] * (1 - ac)
            + window_f[r0 + 1 : r0 + height + 1, c0 + 1 : c0 + width + 1] * ac
        )
        pred = top * (1 - ar) + bot * ar
        return float(np.abs(src_f - pred).sum())

    fast = kernels.vectorized_enabled()
    step = 4  # half-pel in eighth-pel units
    for _ in range(min(depth, 3)):
        # Candidates are taken around the level's starting centre, so
        # total drift from the integer-pel winner stays under one pel
        # (the pre-extracted window's margin).  The centre is fixed for
        # the whole level, so (unlike the diamond passes) all eight
        # candidates batch without replay: the bilinear taps stack into
        # one broadcast blend, and each SAD reduces over its own
        # contiguous slice with the scalar path's exact expression.
        centre = best_mv
        candidates = [
            MotionVector(centre.row + dr, centre.col + dc)
            for dr in (-step, 0, step)
            for dc in (-step, 0, step)
            if not (dr == 0 and dc == 0)
        ]
        if fast:
            # The level's eight candidates share at most three distinct
            # horizontal fractions, so the column blend is computed once
            # per fraction over the whole window; every candidate's
            # prediction is then a two-tap row blend of windows gathered
            # from it, all eight in one stacked pass, and each SAD
            # reduces over its own contiguous row.  Every element goes
            # through the exact tap expressions of ``sad_at`` and a row
            # reduction sums like the whole-block one, so the SADs are
            # bit-identical.
            taps = []
            for mv in candidates:
                fr = row + mv.row / 8.0 - (base_r - margin)
                fc = col + mv.col / 8.0 - (base_c - margin)
                r0 = math.floor(fr)
                c0 = math.floor(fc)
                taps.append((r0, c0, fr - r0, fc - c0))
            fractions = sorted({ac for _, _, _, ac in taps})
            ac = np.array(fractions)[:, None, None]
            hblend = window_f[None, :, :-1] * (1 - ac) + window_f[None, :, 1:] * ac
            plane_rows, pitch = hblend.shape[1:]
            starts = [
                (fractions.index(fc) * plane_rows + r0) * pitch + c0
                for r0, c0, _, fc in taps
            ]
            top = _gather_blocks(hblend, starts, height, width)
            bot = _gather_blocks(
                hblend, [start + pitch for start in starts], height, width
            )
            ar = np.array([tap[2] for tap in taps])[:, None, None]
            pred = top * (1 - ar) + bot * ar
            sads = np.abs(src_f - pred).reshape(len(taps), -1).sum(axis=1).tolist()
        else:
            sads = None
        for index, mv in enumerate(candidates):
            interp_pixels += height * width
            positions += 1
            sad = sads[index] if sads is not None else sad_at(mv)
            better = sad < best_sad
            improvements.append(better)
            if better:
                best_sad, best_mv = sad, mv
        step //= 2
        if step == 0:
            break
    return SearchResult(
        mv=best_mv, sad=best_sad, positions=positions,
        interp_pixels=interp_pixels, improvements=improvements,
    )


def mv_bits(mv: MotionVector, predictor: MotionVector) -> float:
    """Approximate bits to code ``mv`` against ``predictor``.

    Exp-Golomb-style cost: ~2*log2(|diff|+1) + 1 per component, the
    shape every codec's MV coder follows.
    """
    bits = 0.0
    for diff in (mv.row - predictor.row, mv.col - predictor.col):
        bits += 2.0 * np.log2(abs(diff) + 1.0) + 1.0
    return float(bits)
