"""Vectorized building blocks for columnar trace replay.

The scalar predictor loop touches one table entry per event; replayed
columnar, the same computation decomposes into classic data-parallel
primitives:

- **Saturating-counter scan** — a 2-bit saturating counter update is a
  map ``{0..3} -> {0..3}``, packed into one uint8 (two bits per input
  value).  Composing two maps is one lookup in a 256x256 table built at
  import, so a segmented Hillis–Steele scan over the events of each
  table index yields every pre-update counter value (and thus every
  prediction) in uint8 passes — no per-event Python at all.  The scan
  stops once its shift reaches the longest chain, and the grouping
  sort runs as 16-bit radix passes (:func:`stable_order`).
- **History streams** — gshare's global-history register before event
  ``i`` is a function of the previous ``h`` outcomes only, so the full
  index stream is ``h`` shifted adds.
- **Folded-history streams** — TAGE's circular-shift-register fold is
  multiplication by ``x`` in ``GF(2)[x]/(x^w + 1)``: after pushing the
  last ``L`` outcomes, fold bit ``p`` is the XOR of the outcomes whose
  age ``a`` (newest = 0) satisfies ``a ≡ p (mod w)``, ``a < L``.  Each
  such strided-window XOR collapses to two gathers into a stride-``w``
  prefix-XOR table, so whole fold/index/tag streams are precomputed in
  a handful of vector passes per table (validated against the
  from-scratch ``reference_fold`` used by ``repro validate``).

The perceptron's lockstep kernel lives with the predictor
(:mod:`.perceptron`).  Everything here is exact integer math — the
bit-parity contract with the scalar predictors is asserted by tests
and invariants.
"""

from __future__ import annotations

import numpy as np


def _map_code(values: tuple[int, int, int, int]) -> int:
    """Pack a map ``{0..3} -> {0..3}`` into one byte (2 bits per input)."""
    return sum(value << (2 * x) for x, value in enumerate(values))


#: The three per-event counter updates as packed maps, indexed by
#: ``delta + 1``: decrement, no-op and increment, each saturating at
#: 0 and 3.
_DELTA_MAPS = np.array(
    [_map_code((0, 0, 1, 2)), _map_code((0, 1, 2, 3)), _map_code((1, 2, 3, 3))],
    dtype=np.uint8,
)


def _compose_table() -> np.ndarray:
    """``table[(a << 8) | b]`` is the packed map "apply ``a``, then ``b``"."""
    codes = np.arange(256, dtype=np.int64)
    table = np.zeros((256, 256), dtype=np.int64)
    for x in range(4):
        after_a = (codes >> (2 * x)) & 3
        after_b = (codes[None, :] >> (2 * after_a[:, None])) & 3
        table |= after_b << (2 * x)
    flat = table.astype(np.uint8).ravel()
    flat.setflags(write=False)
    return flat


_COMPOSE = _compose_table()


def stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative integer keys.

    Keys below 2**32 sort as one or two 16-bit passes (LSD), which
    numpy's stable argsort runs as a radix sort; that is ~2.5x faster
    than the merge sort it uses for wider integer dtypes.
    """
    top = int(keys.max()) if keys.size else 0
    if top < 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    if top >= 1 << 32:
        return np.argsort(keys, kind="stable")
    order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    high = (keys[order] >> 16).astype(np.uint16)
    return order[np.argsort(high, kind="stable")]


def saturating_counter_scan(
    indices: np.ndarray,
    deltas: np.ndarray,
    init: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replay 2-bit saturating counter chains grouped by table index.

    Parameters
    ----------
    indices:
        Per-event non-negative table index (program order).
    deltas:
        Per-event update in {-1, 0, +1}; the counter saturates at 0
        and 3, and 0 leaves it unchanged.
    init:
        Per-event counter value (0..3) of that event's index before the
        replay (a gather of the table).

    Returns ``(before, final_indices, final_values)``: the counter
    value (uint8) seen by each event *before* its own update, in
    program order, plus the post-stream value per distinct index for
    writing the table back.
    """
    n = int(indices.size)
    if n == 0:
        return (
            np.empty(0, dtype=np.uint8),
            np.empty(0, dtype=indices.dtype),
            np.empty(0, dtype=np.uint8),
        )
    order = stable_order(indices)
    group = indices[order]
    maps = _DELTA_MAPS[deltas[order] + 1]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(group[1:], group[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    lengths = np.diff(starts, append=n)
    # Rank of each event within its index's chain.
    rank = np.arange(n, dtype=np.int32) - np.repeat(
        starts.astype(np.int32), lengths
    )
    # Segmented inclusive scan (Hillis–Steele) on packed maps: compose
    # each map with the one ``shift`` places earlier while both belong
    # to the same chain.  Once ``shift`` reaches the longest chain
    # every prefix is complete.
    longest = int(lengths.max())
    pairs = np.empty(n, dtype=np.uint16)
    composed = np.empty(n, dtype=np.uint8)
    shift = 1
    while shift < longest:
        m = n - shift
        np.left_shift(maps[:-shift], 8, out=pairs[:m], dtype=np.uint16)
        pairs[:m] |= maps[shift:]
        np.take(_COMPOSE, pairs[:m], out=composed[:m])
        np.copyto(maps[shift:], composed[:m], where=rank[shift:] >= shift)
        shift <<= 1
    init_sorted = init[order].astype(np.uint8)
    inclusive = (maps >> (init_sorted << 1)) & 3
    before_sorted = np.empty(n, dtype=np.uint8)
    before_sorted[0] = init_sorted[0]
    before_sorted[1:] = np.where(first[1:], init_sorted[1:], inclusive[:-1])
    before = np.empty(n, dtype=np.uint8)
    before[order] = before_sorted
    last = np.empty(n, dtype=bool)
    last[-1] = True
    last[:-1] = first[1:]
    return before, group[last], inclusive[last]


def two_bit_counter_replay(
    table: np.ndarray, indices: np.ndarray, taken: np.ndarray
) -> np.ndarray:
    """Replay a 2-bit saturating counter table in place.

    Returns the per-event predicted directions (bool, program order)
    and scatters the post-stream counters back into ``table``.
    """
    before, final_idx, final_val = saturating_counter_scan(
        indices, _taken_deltas(taken), table[indices]
    )
    table[final_idx] = final_val
    return before >= 2


def _taken_deltas(taken: np.ndarray) -> np.ndarray:
    """+1 per taken event, -1 per not-taken one (int8)."""
    deltas = (taken != 0).astype(np.int8)
    deltas <<= 1
    deltas -= 1
    return deltas


def stream_bounds(counts: np.ndarray) -> np.ndarray:
    """Concatenation boundaries ``[0, c0, c0+c1, ...]`` of stream sizes."""
    bounds = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return bounds


def segment_counts(flags: np.ndarray, bounds: np.ndarray) -> list[int]:
    """Per-segment popcounts of a concatenated boolean column.

    Boundary-aligned cumsum differences — robust to empty segments,
    unlike ``reduceat``.
    """
    prefix = np.zeros(flags.size + 1, dtype=np.int64)
    np.cumsum(flags, out=prefix[1:])
    return (prefix[bounds[1:]] - prefix[bounds[:-1]]).tolist()


def batched_counter_scan(
    table: np.ndarray,
    entries: int,
    indices: list[np.ndarray],
    taken: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One saturating-counter scan over many independent streams.

    Stream ``b``'s indices are offset by ``b * entries``, making the
    index spaces disjoint, and the stable sort inside
    :func:`saturating_counter_scan` preserves each stream's program
    order — so one concatenated scan is exactly equivalent to one scan
    per stream.  Every stream's chains start from a gather of the
    *current* ``table`` (which is not written back: the streams are
    independent cells, each training its own virtual copy).

    Returns ``(before, cat_taken, bounds)``: the concatenated pre-update
    counter column (program order within each stream), the concatenated
    outcome column, and the stream boundaries for per-segment reduction.
    """
    counts = np.array([idx.size for idx in indices], dtype=np.int64)
    offsets = np.repeat(
        np.arange(len(indices), dtype=np.int64) * entries, counts
    )
    raw = np.concatenate(indices) if len(indices) > 1 else indices[0]
    cat_taken = np.concatenate(taken) if len(taken) > 1 else taken[0]
    before, _, _ = saturating_counter_scan(
        raw + offsets, _taken_deltas(cat_taken), table[raw]
    )
    return before, cat_taken, stream_bounds(counts)


def batched_counter_mispredicts(
    table: np.ndarray,
    entries: int,
    indices: list[np.ndarray],
    taken: list[np.ndarray],
) -> list[int]:
    """Replay many independent streams' 2-bit chains in one scan.

    Thin reduction over :func:`batched_counter_scan`: the per-stream
    mispredict counts of the disjoint-index-space concatenated scan.
    """
    if not indices:
        return []
    before, cat_taken, bounds = batched_counter_scan(
        table, entries, indices, taken
    )
    wrong = (before >= 2) != (cat_taken != 0)
    return segment_counts(wrong, bounds)


def batched_counter_predictions(
    table: np.ndarray,
    entries: int,
    indices: list[np.ndarray],
    taken: list[np.ndarray],
) -> list[np.ndarray]:
    """Per-event predicted directions for many independent streams.

    Same disjoint-index-space construction as
    :func:`batched_counter_mispredicts`, but returning each stream's
    full prediction column (bool, program order) instead of the count —
    the building block composite predictors (tournament) need to feed
    their chooser.  ``table`` is left untouched.
    """
    if not indices:
        return []
    before, _, bounds = batched_counter_scan(table, entries, indices, taken)
    predictions = before >= 2
    return [
        predictions[bounds[b] : bounds[b + 1]] for b in range(len(indices))
    ]


def history_stream(
    taken: np.ndarray, history_bits: int, initial_history: int
) -> np.ndarray:
    """Global-history register value *before* each event.

    The register shifts in one outcome per event (newest at bit 0), so
    the stream is ``history_bits`` shifted adds of the outcome column
    plus the initial register draining out of the window.
    """
    n = int(taken.size)
    bits = taken.astype(np.int64)
    history = np.zeros(n, dtype=np.int64)
    # ``age`` capped at the stream length: a short stream (e.g. the
    # tail chunk of a streamed replay) contributes fewer shifted adds,
    # and a negative slice stop would wrap around.
    for age in range(1, min(history_bits, n) + 1):
        history[age:] += bits[: n - age] << (age - 1)
    mask = (1 << history_bits) - 1
    if initial_history:
        drain = min(history_bits, n)
        shifts = np.arange(drain, dtype=np.int64)
        history[:drain] |= (initial_history << shifts) & mask
    return history & mask


def final_history(
    taken: np.ndarray, history_bits: int, initial_history: int
) -> int:
    """Register value after the whole stream (for state write-back)."""
    n = int(taken.size)
    value = initial_history
    tail = taken[max(0, n - history_bits):].tolist()
    for bit in tail:
        value = (value << 1) | (1 if bit else 0)
    return value & ((1 << history_bits) - 1)


def strided_prefix_xor(bits: np.ndarray, stride: int) -> np.ndarray:
    """``out[j] = bits[j] ^ bits[j-stride] ^ bits[j-2*stride] ^ ...``"""
    out = bits.copy()
    shift = stride
    n = int(out.size)
    while shift < n:
        out[shift:] ^= out[:-shift]
        shift <<= 1
    return out


def fold_stream(taken: np.ndarray, length: int, width: int) -> np.ndarray:
    """Folded-history register value before events ``0..n`` inclusive.

    Element ``i`` is the fold of the (zero-padded) window of the last
    ``length`` outcomes preceding event ``i``; element ``n`` is the
    fold after the whole stream.  Matches ``reference_fold`` exactly.

    Closed form: let ``X(i)`` be the fold of *all* outcomes before
    event ``i`` (infinite window).  Bit ``p`` of ``X(i)`` XORs the
    outcomes whose age ``≡ p (mod width)``, i.e. the stride-``width``
    prefix-XOR evaluated at position ``i - 1 - p`` — so the whole
    ``X`` stream is ``width`` shifted slices of one prefix table.
    Dropping the outcomes older than ``length`` then rotates their
    contribution by ``length mod width`` (ages shift uniformly):
    ``fold(i) = X(i) ^ rotl(X(i - length), length mod width)`` —
    a single whole-stream rotate instead of per-residue gathers.
    """
    n = int(taken.size)
    if width <= 0 or length <= 0 or n == 0:
        return np.zeros(n + 1, dtype=np.int64)
    # Folds narrower than 16 bits run in uint16: a quarter of the
    # memory traffic of int64, and shifts past bit 15 only drop bits
    # the width mask would clear anyway.
    dtype = np.uint16 if width <= 16 else np.int64
    prefix = strided_prefix_xor((taken != 0).astype(dtype), width)
    infinite = np.zeros(n + 1, dtype=dtype)
    shifted = np.empty(n, dtype=dtype)
    for p in range(min(width, n)):
        np.left_shift(prefix[: n - p], p, out=shifted[: n - p])
        infinite[p + 1 :] |= shifted[: n - p]
    out = infinite.astype(np.int64)
    if n > length:
        tail = infinite[: n + 1 - length]
        shift = length % width
        if shift:
            mask = (1 << width) - 1
            tail = ((tail << shift) | (tail >> (width - shift))) & mask
        out[length:] ^= tail
    return out
