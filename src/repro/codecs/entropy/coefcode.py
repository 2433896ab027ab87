"""Transform-coefficient coding and rate estimation.

Two paths, matching real encoder structure:

- :func:`fast_rate_estimate` — the vectorised table-style rate model
  used inside the RD search loop, where candidates are far too numerous
  to arithmetic-code;
- :class:`CoefficientCoder` — the real adaptive-context bool-coded
  path, run once per *chosen* block to emit actual bitstream bytes.

Coefficients are scanned in zigzag order; syntax per coefficient is a
significance flag, an escalating magnitude code (unary-then-literal,
an exp-Golomb shape) and a sign bit — the common skeleton of the
H.264 CAVLC/CABAC, VP9 and AV1 coefficient coders.
"""

from __future__ import annotations

import functools

import numpy as np

from ... import kernels
from ...errors import CodecError
from .arithmetic import BoolEncoder
from .cdf import COST_ONE_BITS, COST_ZERO_BITS, AdaptiveBit, ContextSet


@functools.lru_cache(maxsize=None)
def zigzag_order(size: int) -> np.ndarray:
    """Flat indices of the zigzag scan of a ``size x size`` block."""
    if size < 1:
        raise CodecError(f"invalid scan size {size}")
    order = sorted(
        ((r, c) for r in range(size) for c in range(size)),
        key=lambda rc: (rc[0] + rc[1], rc[1] if (rc[0] + rc[1]) % 2 else rc[0]),
    )
    return np.array([r * size + c for r, c in order], dtype=np.int64)


def scan_levels(levels: np.ndarray) -> np.ndarray:
    """Zigzag-scan a square level block into a 1-D array."""
    size = levels.shape[0]
    if levels.shape != (size, size):
        raise CodecError(f"level blocks must be square, got {levels.shape}")
    return levels.reshape(-1)[zigzag_order(size)]


def fast_rate_estimate(levels: np.ndarray) -> float:
    """Estimated bits to code a level block (vectorised, context-free).

    Model: one bit per coefficient position up to the last nonzero
    (significance), plus a signed-exp-Golomb magnitude cost and a sign
    bit for each nonzero.  This is the estimate RD search uses; the
    adaptive coder usually does a little better, which only shifts the
    RD constant.
    """
    scanned = scan_levels(levels)
    nonzero = np.nonzero(scanned)[0]
    if nonzero.size == 0:
        return 1.0  # coded-block flag
    eob = int(nonzero[-1]) + 1
    mags = np.abs(scanned[:eob][scanned[:eob] != 0]).astype(np.float64)
    magnitude_bits = (2.0 * np.ceil(np.log2(mags + 1.0)) + 1.0).sum()
    sign_bits = float(mags.size)
    significance_bits = float(eob)
    return 1.0 + significance_bits + magnitude_bits + sign_bits


def fast_rate_estimate_batch(levels: np.ndarray) -> float:
    """Vectorised :func:`fast_rate_estimate` over an ``(n, s, s)`` stack.

    Returns the summed estimate for all tiles; per-tile semantics match
    :func:`fast_rate_estimate` exactly (a regression test pins this).
    """
    if levels.ndim != 3 or levels.shape[1] != levels.shape[2]:
        raise CodecError(f"expected (n, s, s) level stack, got {levels.shape}")
    n, size, _ = levels.shape
    if n == 0:
        return 0.0
    order = zigzag_order(size)
    scanned = levels.reshape(n, -1)[:, order]
    nonzero = scanned != 0
    any_nz = nonzero.any(axis=1)
    # Last-nonzero position + 1 per tile (0 where empty).
    eob = np.where(
        any_nz, size * size - nonzero[:, ::-1].argmax(axis=1), 0
    ).astype(np.float64)
    mags = np.abs(scanned).astype(np.float64)
    mag_bits = np.where(
        nonzero, 2.0 * np.ceil(np.log2(mags + 1.0)) + 1.0, 0.0
    ).sum(axis=1)
    sign_bits = nonzero.sum(axis=1).astype(np.float64)
    per_tile = np.where(any_nz, 1.0 + eob + mag_bits + sign_bits, 1.0)
    return float(per_tile.sum())


@functools.lru_cache(maxsize=None)
def _scan_rank(size: int) -> np.ndarray:
    """1-based zigzag scan position of each raster-order coefficient."""
    rank = np.empty(size * size, dtype=np.int32)
    rank[zigzag_order(size)] = np.arange(1, size * size + 1, dtype=np.int32)
    rank.setflags(write=False)
    return rank


@functools.lru_cache(maxsize=None)
def _group_layout(
    sizes: tuple[int, ...], groups: int, pixels: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index tables of a ``(len(sizes), groups, pixels)`` level stack
    whose row ``k`` holds ``groups`` raster-ordered tilings by
    ``sizes[k]``-square tiles.

    Returns the per-row scan rank of every coefficient (``(S, 1, P)``),
    the flat offset of every tile, the tile index where each group
    starts, and the tile count of each group.
    """
    ranks, tile_starts, group_starts, tiles = [], [], [], []
    for row, size in enumerate(sizes):
        area = size * size
        if pixels % area:
            raise CodecError(f"{pixels} coefficients do not tile by {size}")
        ranks.append(np.tile(_scan_rank(size), pixels // area))
        for group in range(groups):
            base = (row * groups + group) * pixels
            group_starts.append(len(tile_starts))
            tile_starts.extend(range(base, base + pixels, area))
            tiles.append(pixels // area)
    tables = (
        np.stack(ranks)[:, None, :],
        np.array(tile_starts, dtype=np.intp),
        np.array(group_starts, dtype=np.intp),
        np.array(tiles, dtype=np.int64),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def rate_estimate_groups(
    levels: np.ndarray, sizes: tuple[int, ...]
) -> list[float]:
    """:func:`fast_rate_estimate_batch` of every group of a level stack,
    in integer arithmetic.

    ``levels`` is ``(S, G, P)``: row ``k`` holds ``G`` groups, each a
    flattened ``(P / s**2, s, s)`` tile stack with ``s = sizes[k]``.
    Estimates come back group by group in row-major order.

    Every term of the per-tile model is an integer, and it folds into
    ``1 + eob + 2 * sum(bit_length(|level|) + (level != 0))``: a
    magnitude ``m >= 1`` costs ``2 * ceil(log2(m + 1)) + 1`` bits plus
    a sign bit, and ``ceil(log2(m + 1))`` is ``m``'s bit length, which
    is the binary exponent :func:`numpy.frexp` returns (0 for a zero
    level, so an empty tile costs its 1-bit coded-block flag).  The
    end of block is the largest 1-based scan position holding a
    nonzero level, so no scan gather is needed; tiles and groups are
    contiguous segments, reduced with ``reduceat``.  Integer sums are
    exact in any order, and every group total is far below 2**53, so
    each value equals the float model's sum of per-tile estimates.
    """
    if levels.ndim != 3 or levels.shape[0] != len(sizes):
        raise CodecError(
            f"expected an ({len(sizes)}, G, P) level stack, got {levels.shape}"
        )
    rows, groups, pixels = levels.shape
    if groups == 0:
        return []
    rank, tile_starts, group_starts, tiles = _group_layout(
        tuple(sizes), groups, pixels
    )
    nonzero = levels != 0
    tile_eob = np.maximum.reduceat((nonzero * rank).reshape(-1), tile_starts)
    eob = np.add.reduceat(tile_eob, group_starts)
    _, bit_length = np.frexp(levels)
    coded = (bit_length + nonzero).reshape(rows * groups, pixels).sum(axis=1)
    return (tiles + eob + 2 * coded).astype(np.float64).tolist()


@functools.lru_cache(maxsize=None)
def _context_names(ctx_prefix: str) -> tuple:
    """Precomputed context-name tables for one block class.

    The adaptive coder names contexts with per-bit f-strings; building
    those strings dominates the coding loop, so the fast path interns
    them once per (prefix, band, level).
    """
    cbf = f"{ctx_prefix}.cbf"
    sig = tuple(f"{ctx_prefix}.sig{band}" for band in range(6))
    last = tuple(f"{ctx_prefix}.last{band}" for band in range(6))
    mag = tuple(
        tuple(f"{ctx_prefix}.mag{band}.gt{level}" for level in range(1, 4))
        for band in range(6)
    )
    return cbf, sig, last, mag


class CoefficientCoder:
    """Adaptive-context coefficient coder over a shared bool encoder.

    Parameters
    ----------
    contexts:
        Adaptive context set (shared across blocks for adaptation).
    encoder:
        Destination bool encoder; when ``None`` the coder only
        accumulates exact model costs (used by tests and by bit
        accounting without materialising a stream).
    """

    def __init__(self, contexts: ContextSet, encoder: BoolEncoder | None) -> None:
        self._contexts = contexts
        self._encoder = encoder

    def _code_bit(self, name: str, bit: int, initial: int = 128) -> float:
        ctx = self._contexts.get(name, initial)
        bits = ctx.cost(bit)
        if self._encoder is not None:
            self._encoder.encode(bit, ctx.prob)
        ctx.update(bit)
        return bits

    def _code_magnitude(self, prefix: str, magnitude: int) -> tuple[float, int]:
        """Unary-then-literal magnitude code; returns (bits, symbols)."""
        bits = 0.0
        symbols = 0
        # Unary prefix over the first 3 magnitude classes.
        for level in range(1, 4):
            more = 1 if magnitude > level else 0
            bits += self._code_bit(f"{prefix}.gt{level}", more, initial=96)
            symbols += 1
            if not more:
                return bits, symbols
        # Escape: literal remainder, 8-bit cap per literal chunk.
        remainder = magnitude - 4
        nbits = max(1, remainder.bit_length())
        if self._encoder is not None:
            self._encoder.encode_literal(nbits - 1, 4)
            self._encoder.encode_literal(remainder, nbits)
        bits += 4 + nbits
        symbols += 4 + nbits
        return bits, symbols

    def code_block(self, levels: np.ndarray, ctx_prefix: str) -> tuple[float, int]:
        """Code one quantised block; returns ``(bits, symbols)``.

        ``ctx_prefix`` namespaces the contexts (e.g. ``"y.inter.tx8"``)
        so differently-behaved block classes adapt independently, as in
        real codecs.
        """
        if kernels.vectorized_enabled():
            return self._code_block_fast(levels, ctx_prefix)
        return self._code_block_scalar(levels, ctx_prefix)

    def _code_block_scalar(
        self, levels: np.ndarray, ctx_prefix: str
    ) -> tuple[float, int]:
        scanned = scan_levels(levels)
        nonzero = np.nonzero(scanned)[0]
        coded = 1 if nonzero.size else 0
        bits = self._code_bit(f"{ctx_prefix}.cbf", coded, initial=140)
        symbols = 1
        if not coded:
            return bits, symbols
        eob = int(nonzero[-1]) + 1
        for pos in range(eob):
            level = int(scanned[pos])
            band = min(pos // 4, 5)
            sig = 1 if level else 0
            bits += self._code_bit(f"{ctx_prefix}.sig{band}", sig, initial=110)
            symbols += 1
            if not sig:
                continue
            mag_bits, mag_syms = self._code_magnitude(
                f"{ctx_prefix}.mag{band}", abs(level)
            )
            bits += mag_bits
            symbols += mag_syms
            sign = 1 if level < 0 else 0
            if self._encoder is not None:
                self._encoder.encode(sign, 128)
            bits += 1.0
            symbols += 1
            # Code whether this was the last significant coefficient.
            last = 1 if pos == eob - 1 else 0
            bits += self._code_bit(f"{ctx_prefix}.last{band}", last, initial=128)
            symbols += 1
        return bits, symbols

    def _code_block_fast(
        self, levels: np.ndarray, ctx_prefix: str
    ) -> tuple[float, int]:
        """Scalar-identical ``code_block`` with the per-bit overhead hoisted.

        Context names are interned per block class, the cost tables are
        indexed as plain lists, the :class:`AdaptiveBit` update is
        inlined and the coded bits go to the range coder in one
        :meth:`~repro.codecs.entropy.arithmetic.BoolEncoder.encode_many`
        run per block (flushed ahead of each literal escape); the coded
        bit sequence, accumulated ``bits`` float and adapted context
        state are bit-identical to the scalar path.
        """
        scanned = scan_levels(levels)
        nonzero = np.nonzero(scanned)[0]
        coded = 1 if nonzero.size else 0

        cbf_name, sig_names, last_names, mag_names = _context_names(ctx_prefix)
        contexts = self._contexts
        ctxmap = contexts._contexts
        rate = contexts._rate
        encoder = self._encoder
        cost_zero = COST_ZERO_BITS
        cost_one = COST_ONE_BITS

        bits = 0.0
        symbols = 1
        ctx = ctxmap.get(cbf_name)
        if ctx is None:
            ctx = AdaptiveBit(initial=140, rate=rate)
            ctxmap[cbf_name] = ctx
        prob = ctx.prob
        bits += cost_one[prob] if coded else cost_zero[prob]
        if encoder is not None:
            encoder.encode(coded, prob)
        if coded:
            prob -= prob >> rate
        else:
            prob += (256 - prob) >> rate
        ctx.prob = min(255, max(1, prob))
        if not coded:
            return bits, symbols

        scanned_list = scanned.tolist()
        coded_bits: list[int] = []
        coded_probs: list[int] = []
        put_bit, put_prob = coded_bits.append, coded_probs.append
        eob = int(nonzero[-1]) + 1
        last_pos = eob - 1
        for pos in range(eob):
            level = scanned_list[pos]
            band = pos >> 2
            if band > 5:
                band = 5
            sig = 1 if level else 0
            ctx = ctxmap.get(sig_names[band])
            if ctx is None:
                ctx = AdaptiveBit(initial=110, rate=rate)
                ctxmap[sig_names[band]] = ctx
            prob = ctx.prob
            bits += cost_one[prob] if sig else cost_zero[prob]
            put_bit(sig)
            put_prob(prob)
            if sig:
                prob -= prob >> rate
            else:
                prob += (256 - prob) >> rate
            ctx.prob = min(255, max(1, prob))
            symbols += 1
            if not sig:
                continue

            # Magnitude: unary prefix over gt1..gt3, then literal escape.
            # Costs fold into a local sum first, matching the scalar
            # path's float accumulation order bit-for-bit.
            magnitude = -level if level < 0 else level
            gt_names = mag_names[band]
            mag_bits = 0.0
            escaped = True
            for index in range(3):
                more = 1 if magnitude > index + 1 else 0
                name = gt_names[index]
                ctx = ctxmap.get(name)
                if ctx is None:
                    ctx = AdaptiveBit(initial=96, rate=rate)
                    ctxmap[name] = ctx
                prob = ctx.prob
                mag_bits += cost_one[prob] if more else cost_zero[prob]
                put_bit(more)
                put_prob(prob)
                if more:
                    prob -= prob >> rate
                else:
                    prob += (256 - prob) >> rate
                ctx.prob = min(255, max(1, prob))
                symbols += 1
                if not more:
                    escaped = False
                    break
            if escaped:
                remainder = magnitude - 4
                nbits = max(1, remainder.bit_length())
                if encoder is not None:
                    encoder.encode_many(coded_bits, coded_probs)
                    coded_bits.clear()
                    coded_probs.clear()
                    encoder.encode_literal(nbits - 1, 4)
                    encoder.encode_literal(remainder, nbits)
                mag_bits += 4 + nbits
                symbols += 4 + nbits
            bits += mag_bits

            put_bit(1 if level < 0 else 0)
            put_prob(128)
            bits += 1.0
            symbols += 1

            last = 1 if pos == last_pos else 0
            ctx = ctxmap.get(last_names[band])
            if ctx is None:
                ctx = AdaptiveBit(initial=128, rate=rate)
                ctxmap[last_names[band]] = ctx
            prob = ctx.prob
            bits += cost_one[prob] if last else cost_zero[prob]
            put_bit(last)
            put_prob(prob)
            if last:
                prob -= prob >> rate
            else:
                prob += (256 - prob) >> rate
            ctx.prob = min(255, max(1, prob))
            symbols += 1
        if encoder is not None:
            encoder.encode_many(coded_bits, coded_probs)
        return bits, symbols
