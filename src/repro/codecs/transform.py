"""Block transforms: orthonormal DCT-II and Hadamard (SATD).

Every codec in the study codes prediction residuals with a separable
block transform.  We use the orthonormal floating-point DCT-II rounded
to integers at the quantiser, which is numerically equivalent (for
characterization purposes) to the integer approximations in the real
codecs while keeping the forward/inverse pair exactly invertible up to
quantisation.

The Hadamard transform provides SATD (sum of absolute transformed
differences), the cheap frequency-domain distortion estimate encoders
use during mode decision before committing to a full transform-quantise
round trip.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..errors import CodecError

#: Transform sizes supported by the framework.
TRANSFORM_SIZES = (4, 8, 16, 32)


@functools.lru_cache(maxsize=None)
def dct_matrix(size: int) -> np.ndarray:
    """Orthonormal DCT-II basis matrix of the given size."""
    if size not in TRANSFORM_SIZES:
        raise CodecError(f"unsupported transform size {size}")
    k = np.arange(size)[:, None]
    n = np.arange(size)[None, :]
    mat = np.cos(math.pi * (2 * n + 1) * k / (2 * size))
    mat *= math.sqrt(2.0 / size)
    mat[0, :] *= math.sqrt(0.5)
    return mat.astype(np.float64)


@functools.lru_cache(maxsize=None)
def adst_matrix(size: int) -> np.ndarray:
    """Orthonormal DST (ADST) basis matrix.

    AV1 pairs the DCT with asymmetric discrete sine transforms chosen
    per block ("TX type" search); the DST-II basis here captures the
    alternative-basis cost/benefit structure of that search.
    """
    if size not in TRANSFORM_SIZES:
        raise CodecError(f"unsupported transform size {size}")
    k = np.arange(size)[:, None]
    n = np.arange(size)[None, :]
    mat = np.sin(math.pi * (2 * n + 1) * (k + 1) / (2 * size))
    mat *= math.sqrt(2.0 / size)
    mat[-1, :] *= math.sqrt(0.5)
    return mat.astype(np.float64)


#: Transform-type identifiers (a subset of AV1's 16; the row/column
#: basis combinations below span the behaviourally distinct cases).
TX_TYPES = ("dct_dct", "adst_dct", "dct_adst", "adst_adst")


@functools.lru_cache(maxsize=None)
def _tx_bases(tx_type: str, size: int) -> tuple[np.ndarray, np.ndarray]:
    try:
        row_kind, col_kind = tx_type.split("_")
    except ValueError:
        raise CodecError(f"unknown transform type {tx_type!r}") from None
    pick = {"dct": dct_matrix, "adst": adst_matrix}
    if row_kind not in pick or col_kind not in pick:
        raise CodecError(f"unknown transform type {tx_type!r}")
    return pick[row_kind](size), pick[col_kind](size)


def forward_tx_batch(tiles: np.ndarray, tx_type: str = "dct_dct") -> np.ndarray:
    """Typed 2-D transform of a stack of square tiles."""
    size = tiles.shape[-1]
    row_basis, col_basis = _tx_bases(tx_type, size)
    return row_basis @ tiles.astype(np.float64) @ col_basis.T


@functools.lru_cache(maxsize=None)
def _tx_bases_stack(
    tx_types: tuple[str, ...], size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-type basis matrices stacked for broadcast matmuls.

    Returns ``(row, col_t, row_t, col)`` each shaped ``(T, 1, s, s)``
    so that ``row @ tiles[None] @ col_t`` evaluates every transform
    type's forward pass (and ``row_t @ coeffs @ col`` the inverse) in
    one matmul pair.  Broadcast matmul runs the identical 2-D product
    per slice, so each type's plane is bit-identical to the unstacked
    :func:`forward_tx_batch` / :func:`inverse_tx_batch` result.
    """
    rows = np.stack([_tx_bases(t, size)[0] for t in tx_types])[:, None]
    cols = np.stack([_tx_bases(t, size)[1] for t in tx_types])[:, None]
    return rows, cols.swapaxes(-1, -2), rows.swapaxes(-1, -2), cols


def forward_tx_stack(tiles: np.ndarray, tx_types: tuple[str, ...]) -> np.ndarray:
    """All-types forward transform of a leaf stack of tilings:
    ``(L, n, s, s)`` -> ``(L, T, n, s, s)``."""
    row, col_t, _, _ = _tx_bases_stack(tx_types, tiles.shape[-1])
    return row @ np.asarray(tiles, dtype=np.float64)[:, None] @ col_t


def inverse_tx_stack(coeffs: np.ndarray, tx_types: tuple[str, ...]) -> np.ndarray:
    """All-types inverse transform of an ``(L, T, n, s, s)`` stack."""
    _, _, row_t, col = _tx_bases_stack(tx_types, coeffs.shape[-1])
    return row_t @ np.asarray(coeffs, dtype=np.float64) @ col


def inverse_tx_batch(coeffs: np.ndarray, tx_type: str = "dct_dct") -> np.ndarray:
    """Inverse of :func:`forward_tx_batch`."""
    size = coeffs.shape[-1]
    row_basis, col_basis = _tx_bases(tx_type, size)
    return row_basis.T @ coeffs.astype(np.float64) @ col_basis


@functools.lru_cache(maxsize=None)
def hadamard_matrix(size: int) -> np.ndarray:
    """Sylvester-construction Hadamard matrix (size must be 2^k)."""
    if size < 1 or size & (size - 1):
        raise CodecError(f"Hadamard size must be a power of two, got {size}")
    mat = np.array([[1.0]])
    while mat.shape[0] < size:
        mat = np.block([[mat, mat], [mat, -mat]])
    return mat


def forward_dct(residual: np.ndarray) -> np.ndarray:
    """2-D separable DCT of a square residual block (float64 out)."""
    size = residual.shape[0]
    if residual.shape != (size, size):
        raise CodecError(f"transform blocks must be square, got {residual.shape}")
    basis = dct_matrix(size)
    return basis @ residual.astype(np.float64) @ basis.T


def inverse_dct(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_dct` (float64 out)."""
    size = coeffs.shape[0]
    if coeffs.shape != (size, size):
        raise CodecError(f"transform blocks must be square, got {coeffs.shape}")
    basis = dct_matrix(size)
    return basis.T @ coeffs.astype(np.float64) @ basis


def tile_block(block: np.ndarray, size: int) -> np.ndarray:
    """Split a block into an ``(n, size, size)`` stack of square tiles.

    Tiles are ordered raster-wise.  The block must tile exactly.
    """
    h, w = block.shape
    if h % size or w % size:
        raise CodecError(f"block {w}x{h} not tileable by {size}x{size}")
    return (
        block.reshape(h // size, size, w // size, size)
        .transpose(0, 2, 1, 3)
        .reshape(-1, size, size)
    )


def tile_stack(blocks: np.ndarray, size: int) -> np.ndarray:
    """:func:`tile_block` of every block of an ``(L, h, w)`` stack, as
    an ``(L, n, size, size)`` stack (a pure reshuffle)."""
    count, h, w = blocks.shape
    if h % size or w % size:
        raise CodecError(f"block {w}x{h} not tileable by {size}x{size}")
    return (
        blocks.reshape(count, h // size, size, w // size, size)
        .transpose(0, 1, 3, 2, 4)
        .reshape(count, -1, size, size)
    )


def untile_block(tiles: np.ndarray, height: int, width: int) -> np.ndarray:
    """Inverse of :func:`tile_block`."""
    if tiles.ndim != 3 or tiles.shape[1] != tiles.shape[2]:
        raise CodecError(f"cannot untile {tiles.shape} into {width}x{height}")
    return untile_stack(tiles[None], height, width)[0]


def untile_stack(tiles: np.ndarray, height: int, width: int) -> np.ndarray:
    """:func:`untile_block` of every group of a ``(g, n, s, s)`` stack.

    Returns ``(g, height, width)``; a pure reshuffle, so each plane
    holds exactly the samples the per-group call returns.
    """
    g, n, size, _ = tiles.shape
    if (height // size) * (width // size) != n:
        raise CodecError(f"cannot untile {tiles.shape} into {width}x{height}")
    return (
        tiles.reshape(g, height // size, width // size, size, size)
        .transpose(0, 1, 3, 2, 4)
        .reshape(g, height, width)
    )


def forward_dct_batch(tiles: np.ndarray) -> np.ndarray:
    """2-D DCT of a stack of square tiles in one broadcast matmul pair."""
    size = tiles.shape[-1]
    basis = dct_matrix(size)
    return basis @ tiles.astype(np.float64) @ basis.T


def inverse_dct_batch(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_dct_batch`."""
    size = coeffs.shape[-1]
    basis = dct_matrix(size)
    return basis.T @ coeffs.astype(np.float64) @ basis


def transform_split(height: int, width: int) -> tuple[int, int, int]:
    """Choose the transform tiling for a (possibly rectangular) block.

    Returns ``(tx_size, rows, cols)``: the square transform size and how
    many transform blocks tile the coding block.  The largest legal
    square transform is used, as encoders do at their default transform
    depth.
    """
    tx = min(height, width, 32)
    if tx not in TRANSFORM_SIZES:
        # Round down to the nearest supported size.
        tx = max(s for s in TRANSFORM_SIZES if s <= tx)
    if height % tx or width % tx:
        raise CodecError(
            f"block {width}x{height} not tileable by {tx}x{tx} transforms"
        )
    return tx, height // tx, width // tx


def satd(residual: np.ndarray) -> float:
    """Sum of absolute Hadamard-transformed differences.

    Rectangular blocks are tiled with the largest square Hadamard that
    fits (8x8 capped, as in real encoders' SATD kernels).
    """
    h, w = residual.shape
    size = min(8, h, w)
    if size & (size - 1):
        size = 4
    mat = hadamard_matrix(size)
    rows = h - h % size
    cols = w - w % size
    res = residual[:rows, :cols].astype(np.float64)
    # Tile into (n_tiles_r, n_tiles_c, size, size) and transform all
    # tiles in one broadcast matmul pair.
    tiles = res.reshape(rows // size, size, cols // size, size).transpose(
        0, 2, 1, 3
    )
    transformed = mat @ tiles @ mat.T
    return float(np.abs(transformed).sum() / size)


def satd_batch(residuals: np.ndarray) -> np.ndarray:
    """:func:`satd` of every block of an ``(..., h, w)`` stack, shaped
    like the leading axes.

    One broadcast Hadamard matmul pair covers all blocks; each block's
    absolute sum then reduces over its own contiguous row of the
    result.  A row reduction runs the same pairwise summation as the
    whole-array sum of that block in :func:`satd`, so every value is
    bit-identical to the scalar call.
    """
    *lead, h, w = residuals.shape
    size = min(8, h, w)
    if size & (size - 1):
        size = 4
    mat = hadamard_matrix(size)
    rows = h - h % size
    cols = w - w % size
    res = residuals.reshape(-1, h, w)[:, :rows, :cols].astype(np.float64)
    tiles = res.reshape(-1, rows // size, size, cols // size, size).transpose(
        0, 1, 3, 2, 4
    )
    transformed = mat @ tiles @ mat.T
    sums = np.abs(transformed).reshape(len(res), -1).sum(axis=1) / size
    return sums.reshape(lead)
