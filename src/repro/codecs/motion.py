"""Motion estimation: full search, diamond search, sub-pel refinement.

Inter prediction dominates encoder runtime, and the *breadth* of the
motion search is one of the main levers the speed presets pull.  Two
integer-pel strategies are provided:

- :func:`full_search` — exhaustive SAD over a ±R window, evaluated as
  one vectorised sliding-window computation (as a production SIMD
  kernel would be), used by the slow presets;
- :func:`diamond_search` — the iterative large/small-diamond descent
  used by fast presets.

Both also run over a precomputed SAD map (:func:`full_search_sads`,
:func:`diamond_search_sads`); the encoder's vectorized path reads those
maps from one :class:`SadVolume` per superblock and reference.

Sub-pel refinement interpolates half- and quarter-pel candidates
around the integer winner (bilinear taps; real codecs use 6–8-tap
filters, which only changes the constant in the interpolation cost);
:func:`subpel_refine_stack` and :func:`interpolate_stack` are the
leaf-stack forms the vectorized path uses.

Every function reports how many candidate positions it evaluated and
how many interpolated pixels it produced so the instrumentation layer
can charge the correct kernel work.
"""

from __future__ import annotations

import functools
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


def block_sad(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of absolute differences of two equally-shaped blocks."""
    if a.shape != b.shape:
        raise CodecError(f"SAD shape mismatch {a.shape} vs {b.shape}")
    return float(np.abs(a.astype(np.int32) - b.astype(np.int32)).sum())


class SadVolume:
    """Integer SADs of every ``cell x cell`` cell of a square
    superblock against one reference at every integer offset in
    ``±search_range``.

    The reference samples come from the same edge-clipped window
    :func:`_padded_window` builds, so a block's SAD at any offset is the
    sum of the SADs of the cells it covers.  Those sums are of
    integers, exact in any order, so :meth:`leaf_sads` equals the SADs
    a per-block search computes; it reads them from a cell-grid
    integral image, one ``(2R+1, 2R+1)`` map per block.  ``cell`` must
    be a power of two: each cell's sum comes from pairwise halvings of
    the absolute-difference stack.
    """

    def __init__(
        self,
        src: np.ndarray,
        ref: np.ndarray,
        row: int,
        col: int,
        size: int,
        search_range: int,
        cell: int,
    ) -> None:
        if cell < 1 or cell & (cell - 1) or size % cell:
            raise CodecError(f"cannot tile a {size} superblock by {cell} cells")
        self.row, self.col, self.cell = row, col, cell
        # Cell sums fit int16 up to 8x8 cells of 8-bit samples.
        dtype = np.int16 if cell * cell * 255 <= np.iinfo(np.int16).max else np.int32
        window = _padded_window(
            ref, row, col, size, size, search_range
        ).astype(dtype)
        block = src[row : row + size, col : col + size].astype(dtype)
        diffs = np.lib.stride_tricks.sliding_window_view(
            window, (size, size)
        ) - block
        np.abs(diffs, out=diffs)
        cells = size // cell
        while diffs.shape[-1] > cells:
            diffs = diffs[..., 0::2] + diffs[..., 1::2]
        while diffs.shape[-2] > cells:
            diffs = diffs[..., 0::2, :] + diffs[..., 1::2, :]
        # (cells + 1, cells + 1, 2R + 1, 2R + 1) integral over the grid.
        span = 2 * search_range + 1
        integral = np.zeros((cells + 1, cells + 1, span, span), dtype=np.int64)
        integral[1:, 1:] = diffs.transpose(2, 3, 0, 1)
        np.cumsum(integral, axis=0, out=integral)
        np.cumsum(integral, axis=1, out=integral)
        self._integral = integral

    def leaf_sads(self, row: int, col: int, height: int, width: int) -> np.ndarray:
        """``(2R+1, 2R+1)`` SADs of the block at frame position
        ``(row, col)``; entry ``[dr + R, dc + R]`` is offset ``(dr, dc)``."""
        cell = self.cell
        r0, c0 = (row - self.row) // cell, (col - self.col) // cell
        r1, c1 = r0 + height // cell, c0 + width // cell
        table = self._integral
        return table[r1, c1] - table[r0, c1] - table[r1, c0] + table[r0, c0]


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
    return full_search_sads(diffs.sum(axis=(2, 3)), search_range)


def full_search_sads(sads: np.ndarray, search_range: int) -> SearchResult:
    """:func:`full_search` over a precomputed ``(2R+1, 2R+1)`` SAD map
    (e.g. :meth:`SadVolume.leaf_sads`): the first minimum in raster
    order wins, and the first 256 positions report their improvements."""
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

    return _diamond_walk(sad_at, search_range, start, max_steps)


def diamond_search_sads(
    sads: np.ndarray,
    search_range: int,
    start: MotionVector = ZERO_MV,
    max_steps: int = 16,
) -> SearchResult:
    """:func:`diamond_search` over a precomputed ``(2R+1, 2R+1)`` SAD
    map (e.g. :meth:`SadVolume.leaf_sads`)."""
    read = sads.item
    return _diamond_walk(
        lambda dr, dc: float(read(dr + search_range, dc + search_range)),
        search_range, start, max_steps,
    )


def _diamond_walk(
    sad_at, search_range: int, start: MotionVector, max_steps: int
) -> SearchResult:
    """The diamond descent itself, reading SADs through ``sad_at(dr, dc)``."""
    cur_r, cur_c = start.row // 8, start.col // 8
    cur_r = max(-search_range, min(search_range, cur_r))
    cur_c = max(-search_range, min(search_range, cur_c))
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


def interpolate_stack(
    ref: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    height: int,
    width: int,
    mv_rows: np.ndarray,
    mv_cols: np.ndarray,
) -> np.ndarray:
    """:func:`interpolate` of every block of a leaf stack: block ``i``
    sits at ``(rows[i], cols[i])`` and moves by ``(mv_rows[i],
    mv_cols[i])`` eighth-pels.  Returns ``(L, h, w)`` uint8.

    Each leaf's edge-clipped window is gathered and blended with its own
    bilinear taps through :func:`interpolate`'s expressions, elementwise,
    so every block is bit-identical to the per-block call.  An
    integer-pel vector has taps of exactly 1.0 and 0.0, for which the
    blend and rounding return the window samples unchanged.
    """
    frac_r = rows + mv_rows / 8.0
    frac_c = cols + mv_cols / 8.0
    r0 = np.floor(frac_r)
    c0 = np.floor(frac_c)
    ar = (frac_r - r0)[:, None, None]
    ac = (frac_c - c0)[:, None, None]
    window = ref[
        np.clip(r0.astype(np.intp)[:, None, None] + np.arange(height + 1)[:, None],
                0, ref.shape[0] - 1),
        np.clip(c0.astype(np.intp)[:, None, None] + np.arange(width + 1),
                0, ref.shape[1] - 1),
    ]
    top = window[:, :height, :width] * (1 - ac) + window[:, :height, 1:] * ac
    bot = window[:, 1:, :width] * (1 - ac) + window[:, 1:, 1:] * ac
    pred = top * (1 - ar) + bot * ar
    np.rint(pred, out=pred)
    np.maximum(pred, 0, out=pred)
    np.minimum(pred, 255, out=pred)
    return pred.astype(np.uint8)


def _subpel_ring(centre: MotionVector, step: int) -> list[MotionVector]:
    """The eight candidates one refinement level evaluates, in order."""
    return [
        MotionVector(centre.row + dr, centre.col + dc)
        for dr in (-step, 0, step)
        for dc in (-step, 0, step)
        if not (dr == 0 and dc == 0)
    ]


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

    step = 4  # half-pel in eighth-pel units
    for _ in range(min(depth, 3)):
        # Candidates are taken around the level's starting centre, so
        # total drift from the integer-pel winner stays under one pel
        # (the pre-extracted window's margin).
        for mv in _subpel_ring(best_mv, step):
            interp_pixels += height * width
            positions += 1
            sad = sad_at(mv)
            better = sad < best_sad
            improvements.append(better)
            if better:
                best_sad, best_mv = sad, mv
        step //= 2
    return SearchResult(
        mv=best_mv, sad=best_sad, positions=positions,
        interp_pixels=interp_pixels, improvements=improvements,
    )


def subpel_refine_stack(
    src: np.ndarray,
    ref: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    starts: list[SearchResult],
    depth: int,
) -> list[SearchResult]:
    """:func:`subpel_refine` of every block of an ``(L, h, w)`` source
    stack, the leaves in lockstep level by level.

    Each level blends every leaf's eight candidates in one stacked pass:
    the four bilinear neighbours of each candidate are gathered from its
    leaf's window and combined through ``sad_at``'s exact tap
    expressions, elementwise, and each SAD reduces over its own
    contiguous row as the whole-block sum does, so every SAD — and so
    every decision — is bit-identical to the per-leaf call.
    """
    if depth <= 0:
        return list(starts)
    count, height, width = src.shape
    best_mv = [start.mv for start in starts]
    best_sad = [start.sad for start in starts]
    positions = [start.positions for start in starts]
    interp_pixels = [start.interp_pixels for start in starts]
    improvements = [list(start.improvements) for start in starts]

    margin = 2
    top_r = rows + np.array([mv.row // 8 for mv in best_mv]) - margin
    top_c = cols + np.array([mv.col // 8 for mv in best_mv]) - margin
    win_h, win_w = height + 1 + 2 * margin, width + 1 + 2 * margin
    window = ref[
        np.clip(top_r[:, None, None] + np.arange(win_h)[:, None],
                0, ref.shape[0] - 1),
        np.clip(top_c[:, None, None] + np.arange(win_w), 0, ref.shape[1] - 1),
    ].astype(np.float64).reshape(-1)
    leaf = np.repeat(np.arange(count), 8)
    src_f = src.astype(np.float64)[leaf]
    offsets = _block_offsets(height, width, win_w)
    rows, cols, top_r, top_c = rows[leaf], cols[leaf], top_r[leaf], top_c[leaf]

    step = 4
    for _ in range(min(depth, 3)):
        candidates = [
            mv for centre in best_mv for mv in _subpel_ring(centre, step)
        ]
        fr = rows + np.array([mv.row for mv in candidates]) / 8.0 - top_r
        fc = cols + np.array([mv.col for mv in candidates]) / 8.0 - top_c
        r0 = np.floor(fr)
        c0 = np.floor(fc)
        ar = (fr - r0)[:, None, None]
        ac = (fc - c0)[:, None, None]
        corner = (
            leaf * (win_h * win_w) + r0.astype(np.intp) * win_w
            + c0.astype(np.intp)
        )[:, None, None] + offsets
        top = window[corner] * (1 - ac) + window[corner + 1] * ac
        bot = window[corner + win_w] * (1 - ac) + window[corner + win_w + 1] * ac
        pred = top * (1 - ar) + bot * ar
        sads = np.abs(src_f - pred).reshape(len(candidates), -1).sum(axis=1)
        sads = sads.tolist()
        for index, mv in enumerate(candidates):
            owner = index // 8
            interp_pixels[owner] += height * width
            positions[owner] += 1
            sad = sads[index]
            better = sad < best_sad[owner]
            improvements[owner].append(better)
            if better:
                best_sad[owner], best_mv[owner] = sad, mv
        step //= 2
    return [
        SearchResult(
            mv=best_mv[index], sad=best_sad[index], positions=positions[index],
            interp_pixels=interp_pixels[index],
            improvements=improvements[index],
        )
        for index in range(count)
    ]


def mv_bits(mv: MotionVector, predictor: MotionVector) -> float:
    """Approximate bits to code ``mv`` against ``predictor``.

    Exp-Golomb-style cost: ~2*log2(|diff|+1) + 1 per component, the
    shape every codec's MV coder follows.
    """
    bits = 0.0
    for diff in (mv.row - predictor.row, mv.col - predictor.col):
        bits += 2.0 * np.log2(abs(diff) + 1.0) + 1.0
    return float(bits)
