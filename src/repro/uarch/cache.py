"""Set-associative cache hierarchy simulator.

Models the Xeon E5-2650 v4 data-side hierarchy the paper profiles:
32 KB 8-way L1D, 256 KB 8-way L2, and a 30 MB 20-way shared LLC
(§3.1), with true LRU replacement and 64-byte lines.

The simulator is trace-driven from the instrumentation layer's memory
touches.  Two standard techniques keep simulation tractable at the
traffic volumes an encode generates:

- **Touches, not loads**: kernels declare the rectangular plane regions
  they stream over; the driver expands these to cache-line addresses
  (one access per line per touch), which is exactly the line-granular
  traffic an LRU cache observes from a streaming kernel.
- **Set sampling**: only lines mapping to a deterministic 1-in-N subset
  of sets are simulated, and miss counts are scaled by N.  Set sampling
  is the classic approach for long traces (used by e.g. Intel's CMPSim
  and many papers); sampled sets behave statistically like the whole
  cache.  ``sample_period=1`` disables it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .. import kernels
from ..errors import SimulationError
from ..trace.instrument import LINE_BYTES, Instrumenter


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = LINE_BYTES

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0:
            raise SimulationError(f"{self.name}: invalid cache geometry")
        if self.size_bytes % (self.ways * self.line_bytes):
            raise SimulationError(
                f"{self.name}: size must be a multiple of ways*line"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.ways * self.line_bytes)


def _radix_keys(values: np.ndarray, low: int, high: int) -> np.ndarray:
    """``values - low`` as a 16-bit sort key when ``high - low`` fits:
    numpy's stable argsort is then a two-pass radix sort instead of a
    merge sort (8-bit keys measured no faster).  Wider spans keep
    ``values`` as is."""
    if high - low < 2**16:
        return (values - low if low else values).astype(np.uint16)
    return values


@functools.lru_cache(maxsize=None)
def _gap_thresholds(window: int) -> np.ndarray:
    """Per-``m`` thresholds for the classifier's exact window count.

    Row ``m``, column ``c`` covers the access ``o = window - c`` places
    back: it counts when its clipped gap exceeds ``m - o`` if ``o <=
    m``, and never otherwise (the dtype's maximum, which no clipped
    gap exceeds).
    """
    dtype = np.uint8 if window < 255 else np.uint16
    m = np.arange(window + 1)[:, None]
    o = window - np.arange(window)[None, :]
    table = np.where(o <= m, m - o, np.iinfo(dtype).max).astype(dtype)
    table.setflags(write=False)
    return table


class Cache:
    """One set-associative LRU cache level.

    Accesses take *line indices* (byte address / line size).  Returns
    hit/miss; the hierarchy wires levels together.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        if config.num_sets & (config.num_sets - 1):
            raise SimulationError(
                f"{config.name}: set count must be a power of two"
            )
        self._set_mask = config.num_sets - 1
        # Set contents in one of two forms, whichever path wrote last:
        # per-set MRU-first tag lists (the scalar walk), or a
        # (sets, ways) MRU-first tag array padded with -1 plus per-set
        # fill counts (the batch classifier).  ``_sets`` converts.
        self._lists: list[list[int]] | None = None
        self._tags = np.full((config.num_sets, config.ways), -1, dtype=np.int64)
        self._fill = np.zeros(config.num_sets, dtype=np.int64)
        self.accesses = 0
        self.misses = 0

    @property
    def _sets(self) -> list[list[int]]:
        """Per-set MRU-first tag lists (the scalar walk's state)."""
        if self._lists is None:
            self._lists = [
                row[:fill]
                for row, fill in zip(self._tags.tolist(), self._fill.tolist())
            ]
            self._tags = self._fill = None
        return self._lists

    def _state_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The batch classifier's (tags, fill) state arrays."""
        if self._tags is None:
            tags = np.full(
                (self.config.num_sets, self.config.ways), -1, dtype=np.int64
            )
            fill = np.zeros(self.config.num_sets, dtype=np.int64)
            for index, ways in enumerate(self._lists):
                if ways:
                    tags[index, : len(ways)] = ways
                    fill[index] = len(ways)
            self._tags, self._fill = tags, fill
            self._lists = None
        return self._tags, self._fill

    def access(self, line: int) -> bool:
        """Access one line; returns True on hit.  Allocates on miss."""
        self.accesses += 1
        index = line & self._set_mask
        tag = line  # the full line index uniquely identifies the block
        ways = self._sets[index]
        try:
            pos = ways.index(tag)
        except ValueError:
            self.misses += 1
            ways.insert(0, tag)
            if len(ways) > self.config.ways:
                ways.pop()
            return False
        if pos:
            ways.pop(pos)
            ways.insert(0, tag)
        return True

    def access_batch(self, lines: np.ndarray) -> np.ndarray:
        """Access ``lines`` in stream order; returns the miss subset.

        Equivalent to calling :meth:`access` per element (LRU state
        updates are order-dependent, so the walk stays scalar), but the
        set indices are precomputed in one vector op and the whole
        batch is converted to native ints up front — an order of
        magnitude cheaper than per-element numpy scalar handling.  The
        returned misses preserve stream order, which is what lets the
        hierarchy cascade a batch level-by-level with identical stats.

        On the vectorized-kernels path the per-set recency state is
        walked as insertion-ordered dicts (O(1) lookup/move-to-front)
        instead of MRU-first lists (O(ways) ``list.index``); both walks
        implement true LRU, so hits, misses and final contents are
        identical (DESIGN.md "Kernel architecture").
        """
        if kernels.vectorized_enabled():
            return self._access_batch_fast(lines)
        count = int(lines.size)
        self.accesses += count
        if not count:
            return lines
        indices = (lines & self._set_mask).tolist()
        tags = lines.tolist()
        sets = self._sets
        capacity = self.config.ways
        miss_positions: list[int] = []
        record_miss = miss_positions.append
        for position in range(count):
            ways = sets[indices[position]]
            tag = tags[position]
            try:
                pos = ways.index(tag)
            except ValueError:
                record_miss(position)
                ways.insert(0, tag)
                if len(ways) > capacity:
                    ways.pop()
                continue
            if pos:
                ways.pop(pos)
                ways.insert(0, tag)
        self.misses += len(miss_positions)
        return lines[miss_positions]

    def _access_batch_fast(self, lines: np.ndarray) -> np.ndarray:
        """Stack-distance LRU classification: no sequential walk at all.

        Under true LRU an access hits iff fewer than ``ways`` distinct
        tags touched its set since the tag's previous access (its stack
        distance), and the final contents of a set are exactly the
        ``ways`` most recently used distinct tags — so both outcomes
        and state are pure functions of the access history and every
        access can be classified independently, in vector form:

        1. partition the stream by set (one stable radix argsort on
           16-bit set keys), with every nonempty set's current contents
           ahead of the stream as a virtual prefix so warm state
           participates in distances;
        2. link each access to its previous same-tag occurrence: a tag
           determines its set, so one stable radix argsort of the
           set-ordered stream by the tag bits above the set index
           yields every per-(set, tag) chain in order;
        3. classify: gap ``<= ways`` is a guaranteed hit; a running
           maximum of the links gives the longest run of pairwise
           distinct accesses ending before each access, which decides
           every reuse window that lies inside its run and proves a
           miss for every one that contains a run of ``>= ways``, and
           (by binary search) the run starting right after the previous
           same-tag access, a second miss proof; the rest are counted
           exactly over their nearest ``window`` accesses, one
           contiguous row of clipped gaps each, and the rare leftovers
           one by one.

        So each window is sorted twice per level, by set and by tag,
        both radix sorts.

        Hits, misses, stream-ordered miss traffic and final contents
        are bit-identical to the scalar walk (DESIGN.md "Kernel
        architecture"); a randomized invariant pins this.
        """
        count = int(lines.size)
        self.accesses += count
        if not count:
            return lines
        capacity = self.config.ways
        tags, fill = self._state_arrays()
        mask = self._set_mask
        # 32-bit tags when they and the carried contents fit
        # (expand_touch_columns already emits them): half the memory
        # per elementwise pass.
        narrow = int(tags.max()) < 2**31 and (
            lines.dtype == np.int32
            or (0 <= int(lines.min()) and int(lines.max()) < 2**31)
        )
        work = lines.astype(np.int32 if narrow else np.int64, copy=False)
        # Virtual warm-state prefix: the contents of every nonempty set,
        # LRU-first, placed ahead of the batch so that the stable sort
        # by set puts each set's contents right before its accesses —
        # recency and reuse distances then continue across batches (a
        # set the batch does not touch keeps exactly its contents).
        # Reversed MRU-first rows are LRU-first once their padding is
        # skipped, and the row-major selection keeps set order.
        set_ids = work & mask
        present = np.flatnonzero(fill)
        state_lens = fill[present]
        total_virtual = int(state_lens.sum())
        if total_virtual:
            lru_first = tags[present, ::-1][
                np.arange(capacity) >= (capacity - state_lens)[:, None]
            ]
            work = np.concatenate((lru_first.astype(work.dtype), work))
            set_ids = np.concatenate(
                (np.repeat(present, state_lens).astype(set_ids.dtype), set_ids)
            )
        orig = np.argsort(_radix_keys(set_ids, 0, mask), kind="stable")
        st2 = work[orig]
        # Run collapse: an access repeating the immediately preceding
        # element of its set is a guaranteed MRU hit with no state
        # effect and no downstream traffic — droppable exactly (a tag
        # determines its set, so equal adjacent tags are the same set;
        # a set's contents are distinct, so only accesses drop).
        keep = np.empty(st2.size, dtype=bool)
        keep[0] = True
        np.not_equal(st2[1:], st2[:-1], out=keep[1:])
        if not keep.all():
            st2 = st2[keep]
            orig = orig[keep]
        n2 = int(st2.size)
        posdtype = np.int32 if n2 < 2**31 else np.int64
        pos = np.arange(n2, dtype=posdtype)
        # Previous same-tag occurrence.  Sorting the set-ordered stream
        # by the tag bits above the set index groups equal tags (equal
        # high bits within one set) in stream order.
        high = st2 >> mask.bit_length()
        to = np.argsort(
            _radix_keys(high, int(high.min()), int(high.max())), kind="stable"
        )
        to = to.astype(posdtype)
        t_sorted = st2[to]
        same = t_sorted[1:] == t_sorted[:-1]
        q = np.empty(n2, dtype=posdtype)
        q[to[0]] = -1
        q[to[1:]] = np.where(same, to[:-1], -1)
        gap = pos - q
        seen = q >= 0
        hit = seen & (gap <= capacity)
        # Longest distinct run: no access in [run_start_i, i) repeats a
        # tag inside that range iff every q_j there precedes its start,
        # so run_start_i = 1 + max(q_j : j < i) — one running maximum.
        # A reuse window (q_i, i) inside the run holds gap - 1 distinct
        # tags, which the gap test above already decides; a reuse
        # window containing a run of >= ways accesses is a miss.
        run_start = np.empty(n2, dtype=posdtype)
        run_start[0] = 0
        np.maximum.accumulate(q[:-1], out=run_start[1:])
        run_start += 1
        inside = q >= run_start
        proved_miss = ~inside & (pos - run_start >= capacity)
        u = np.flatnonzero(seen & ~hit & ~inside & ~proved_miss)
        if u.size:
            # The run that starts right after q_i: while run_start_p <=
            # q_i + 1 every q_j with j < p precedes q_i + 1, so the
            # accesses in (q_i, p) are pairwise distinct and none is i's
            # tag.  run_start is nondecreasing, so the last such p is a
            # binary search; a run of >= ways of them is a miss.
            after = q[u] + 1
            forward = np.searchsorted(run_start, after, side="right") - 1 - after
            u = u[forward < capacity]
        if u.size:
            # Exact distinct counts over the nearest `window` accesses:
            # j = i - o counts iff q_j precedes the counted range's start
            # i - m, i.e. iff gap_j > m - o.  Gaps clipped to the dtype's
            # maximum decide that the same way (m - o < window), so each
            # access reads one contiguous row of the clipped gaps and
            # compares it with a precomputed threshold row for its m.
            window = 1 << max(5, (2 * capacity - 1).bit_length() + 1)
            table = _gap_thresholds(window)
            clip = np.iinfo(table.dtype).max
            clipped = np.empty(n2 + window, dtype=table.dtype)
            clipped[:window] = clip
            np.minimum(gap, clip, out=clipped[window:], casting="unsafe")
            rows = np.lib.stride_tricks.sliding_window_view(clipped, window)[u]
            max_exact = gap[u] - 1
            m = np.minimum(max_exact, window)
            distinct = (rows > table[m]).sum(axis=1)
            newly_hit = (m == max_exact) & (distinct < capacity)
            hit[u[newly_hit]] = True
            u = u[~(newly_hit | (distinct >= capacity))]
        for i in u.tolist():
            qi = q[i]
            if int(np.count_nonzero(q[qi + 1 : i] <= qi)) < capacity:
                hit[i] = True
        # Misses of real accesses, restored to stream order by scatter.
        miss_mask = ~hit
        if total_virtual:
            miss_mask &= orig >= total_virtual
        miss_scatter = np.zeros(count, dtype=bool)
        miss_scatter[orig[miss_mask] - total_virtual] = True
        miss_positions = np.flatnonzero(miss_scatter)
        self.misses += int(miss_positions.size)
        # Final contents: per set, the `capacity` most recently used
        # distinct tags, MRU-first — the last occurrences of each set's
        # group, counted back from its most recent.
        last_occurrence = np.empty(n2, dtype=bool)
        last_occurrence[to[-1]] = True
        last_occurrence[to[:-1]] = ~same
        lp = np.flatnonzero(last_occurrence)
        last_tags = st2[lp]
        lsets = last_tags & mask
        group_change = np.empty(lp.size, dtype=bool)
        group_change[0] = True
        np.not_equal(lsets[1:], lsets[:-1], out=group_change[1:])
        group_starts = np.flatnonzero(group_change)
        group_ends = np.append(group_starts[1:], lp.size)
        recency = (
            group_ends[np.cumsum(group_change) - 1] - 1 - np.arange(lp.size)
        )
        kept = recency < capacity
        touched = lsets[group_starts]
        tags[touched] = -1
        fill[touched] = np.minimum(group_ends - group_starts, capacity)
        tags[lsets[kept], recency[kept]] = last_tags[kept]
        if not miss_positions.size:
            return lines[:0]
        return lines[miss_positions]

    @property
    def miss_rate(self) -> float:
        """Misses per access (0 when idle)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_stats(self) -> None:
        """Zero the counters without flushing contents."""
        self.accesses = 0
        self.misses = 0


#: The paper's Xeon E5-2650 v4 data-side hierarchy (§3.1).
XEON_L1D = CacheConfig("L1D", 32 * 1024, 8)
XEON_L2 = CacheConfig("L2", 256 * 1024, 8)
XEON_LLC = CacheConfig("LLC", 30 * 1024 * 1024, 20)


def _round_llc(config: CacheConfig) -> CacheConfig:
    """LLC set counts aren't powers of two on real parts; round ours."""
    sets = config.size_bytes // (config.ways * config.line_bytes)
    rounded = 1 << (sets - 1).bit_length() >> 1 or 1
    return CacheConfig(
        config.name,
        rounded * config.ways * config.line_bytes,
        config.ways,
        config.line_bytes,
    )


@dataclass
class HierarchyStats:
    """Per-level access/miss counts (scaled back up when sampling)."""

    l1d_accesses: float = 0.0
    l1d_misses: float = 0.0
    l2_accesses: float = 0.0
    l2_misses: float = 0.0
    llc_accesses: float = 0.0
    llc_misses: float = 0.0

    def mpki(self, kilo_instructions: float) -> dict[str, float]:
        """Misses per kilo-instruction for each level."""
        if kilo_instructions <= 0:
            raise SimulationError("kilo_instructions must be positive")
        return {
            "l1d": self.l1d_misses / kilo_instructions,
            "l2": self.l2_misses / kilo_instructions,
            "llc": self.llc_misses / kilo_instructions,
        }


class CacheHierarchy:
    """Three-level data hierarchy with miss cascading.

    Parameters
    ----------
    l1d, l2, llc:
        Level geometries; defaults are the paper's Xeon.
    sample_period:
        Simulate only sets whose low index bits are zero modulo this
        power of two, scaling counts back up.
    """

    def __init__(
        self,
        l1d: CacheConfig = XEON_L1D,
        l2: CacheConfig = XEON_L2,
        llc: CacheConfig = XEON_LLC,
        sample_period: int = 8,
    ) -> None:
        if sample_period < 1 or sample_period & (sample_period - 1):
            raise SimulationError("sample_period must be a power of two")
        self.sample_period = sample_period
        self.l1d = Cache(l1d)
        self.l2 = Cache(l2)
        self.llc = Cache(_round_llc(llc))

    def access_line(self, line: int) -> None:
        """Send one line access down the hierarchy."""
        if not self.l1d.access(line):
            if not self.l2.access(line):
                self.llc.access(line)

    def access_lines(self, lines: np.ndarray) -> None:
        """Send a batch of sampled line addresses down the hierarchy.

        Cascades whole levels instead of whole lines: L1D filters the
        stream, only its (order-preserved) misses reach L2, and only
        L2's misses reach the LLC.  Each level therefore observes
        exactly the access subsequence it would have seen under the
        per-line cascade of :meth:`access_line`, so every hit/miss
        decision — and thus :meth:`stats` — is identical.

        Long streams cascade in bounded windows
        (:func:`repro.kernels.stream_chunk_events` lines each) so the
        classifier's temporaries stay O(window) at production frame
        counts.  Exact by construction: :meth:`Cache.access_batch`
        carries the warm per-set state between successive batches, so
        N windows are the same computation as one.
        """
        stream = np.ascontiguousarray(lines)
        if stream.dtype != np.int32:
            stream = stream.astype(np.int64, copy=False)
        window = kernels.stream_chunk_events()
        if window and stream.size > window:
            for start in range(0, int(stream.size), window):
                chunk = stream[start : start + window]
                chunk = self.l1d.access_batch(chunk)
                chunk = self.l2.access_batch(chunk)
                self.llc.access_batch(chunk)
            return
        stream = self.l1d.access_batch(stream)
        stream = self.l2.access_batch(stream)
        self.llc.access_batch(stream)

    def stats(self) -> HierarchyStats:
        """Sampled-and-rescaled access/miss counts."""
        scale = float(self.sample_period)
        return HierarchyStats(
            l1d_accesses=self.l1d.accesses * scale,
            l1d_misses=self.l1d.misses * scale,
            l2_accesses=self.l2.accesses * scale,
            l2_misses=self.l2.misses * scale,
            llc_accesses=self.llc.accesses * scale,
            llc_misses=self.llc.misses * scale,
        )


def expand_touch_columns(
    bases: np.ndarray,
    rows: np.ndarray,
    row_bytes: np.ndarray,
    pitches: np.ndarray,
    repeats: np.ndarray,
    sample_period: int = 8,
    line_bytes: int = LINE_BYTES,
) -> np.ndarray:
    """Expand columnar touches into a sampled line-address stream.

    For each rectangular touch, every cache line it covers is accessed
    once (streaming kernels touch each line once per pass; ``repeats``
    re-appends the region's lines).  Only lines whose index is 0 modulo
    ``sample_period`` are kept, matching
    :class:`CacheHierarchy`'s set sampling.

    Every stage is per-touch independent and order-preserving, so the
    expansion is **concatenation-safe**: expanding a touch stream chunk
    by chunk yields exactly the concatenation of the chunks' line
    streams.  That property is what lets a streaming capture feed the
    hierarchy while the encode runs (see :class:`TouchStreamSink`).

    The stream is ``int32`` whenever every line index fits (the
    classifier's native width), else ``int64``.  Touches expand in
    windows of about :data:`_EXPAND_ROWS` native rows, so every
    per-row temporary stays cache-sized; by concatenation safety the
    windows join into exactly the whole-stream result.
    """
    if len(bases) == 0:
        return np.empty(0, dtype=np.int32)
    bases = np.asarray(bases, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    row_bytes = np.asarray(row_bytes, dtype=np.int64)
    pitches = np.asarray(pitches, dtype=np.int64)
    repeats = np.asarray(repeats, dtype=np.int64)
    row_ends = np.cumsum(rows)
    cuts = np.searchsorted(
        row_ends, np.arange(_EXPAND_ROWS, int(row_ends[-1]), _EXPAND_ROWS),
        side="right",
    )
    bounds = [0, *np.unique(cuts).tolist(), len(bases)]
    parts = [
        _expand_window(
            bases[lo:hi], rows[lo:hi], row_bytes[lo:hi], pitches[lo:hi],
            repeats[lo:hi], sample_period, line_bytes,
        )
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


#: Native rows per :func:`expand_touch_columns` window.
_EXPAND_ROWS = 1 << 15


def _expand_window(
    bases: np.ndarray,
    rows: np.ndarray,
    row_bytes: np.ndarray,
    pitches: np.ndarray,
    repeats: np.ndarray,
    sample_period: int,
    line_bytes: int,
) -> np.ndarray:
    """:func:`expand_touch_columns` of one window of whole touches."""
    touches = len(bases)
    # Stage 1 — expand touches to rows.  Row ``r`` of a touch starts
    # at ``base + pitch * r``; with ``first`` the touch's first global
    # row index that is ``(base - pitch * first) + pitch * g`` for the
    # global row index ``g``, so two per-touch repeats and one arange
    # give every row start.
    total_rows = int(rows.sum())
    if total_rows == 0:
        return np.empty(0, dtype=np.int32)
    first_row = np.cumsum(rows) - rows
    row_starts = np.repeat(bases - pitches * first_row, rows) + np.repeat(
        pitches, rows
    ) * np.arange(total_rows, dtype=np.int64)

    # Stage 2 — emit each row's *sampled* lines directly.  A row
    # covers lines ``[first_line, last_line]``; the survivors of
    # 1-in-``sample_period`` sampling are the multiples of the period
    # inside that range, an arithmetic sequence whose start and count
    # close-form from the endpoints, counted here in sampling units of
    # ``sample_period`` lines (``ceil(floor(x / L) / P)`` is
    # ``floor((x + (P - 1) * L) / (P * L))``).  Materializing only
    # those (rather than all lines followed by a mask) keeps every
    # temporary at the sampled size.  The stream itself comes from one
    # cumulative sum over per-element steps: ``sample_period`` inside a
    # row, and a rebased jump at each row boundary — identical ordering
    # to the scalar walk (rows in touch order, lines ascending within a
    # row).
    unit = sample_period * line_bytes
    first_unit = (row_starts + (sample_period - 1) * line_bytes) // unit
    last_unit = (
        row_starts + np.repeat(np.maximum(row_bytes - 1, 0), rows)
    ) // unit
    sampled_in_row = np.maximum(last_unit - first_unit + 1, 0)
    first_sampled = first_unit * sample_period
    total_sampled = int(sampled_in_row.sum())
    line_dtype = (
        np.int32 if int(last_unit.max()) * sample_period < 2**31 else np.int64
    )
    if total_sampled == 0:
        return np.empty(0, dtype=line_dtype)
    keep = sampled_in_row > 0
    kept_first = first_sampled[keep]
    kept_count = sampled_in_row[keep]
    kept_starts = np.concatenate(([0], np.cumsum(kept_count)[:-1]))
    steps = np.full(total_sampled, sample_period, dtype=line_dtype)
    kept_last = kept_first + sample_period * (kept_count - 1)
    steps[0] = kept_first[0]
    steps[kept_starts[1:]] = kept_first[1:] - kept_last[:-1]
    # Every partial sum is a line index of the stream, so the narrow
    # accumulator cannot overflow.
    blocks = np.cumsum(steps, dtype=line_dtype)

    # Stage 3 — apply ``repeats`` as whole-block tiling: each touch's
    # sampled block appears ``repeats`` times *consecutively* (the
    # stream order of the original per-touch append loop), which plain
    # ``np.repeat`` on elements would not preserve.  Streaming kernels
    # overwhelmingly record single-pass touches, so the no-op tiling
    # case returns the stream as built.
    if np.all(repeats == 1):
        return blocks
    sampled_before = np.concatenate(([0], np.cumsum(sampled_in_row)))
    block_len = sampled_before[first_row + rows] - sampled_before[first_row]
    out_len = block_len * repeats
    total_out = int(out_len.sum())
    if total_out == 0:
        return np.empty(0, dtype=line_dtype)
    out_touch = np.repeat(np.arange(touches, dtype=np.int64), out_len)
    out_offsets = np.concatenate(([0], np.cumsum(out_len)[:-1]))
    out_local = (
        np.arange(total_out, dtype=np.int64) - out_offsets[out_touch]
    )
    block_starts = np.concatenate(([0], np.cumsum(block_len)[:-1]))
    source = (
        block_starts[out_touch]
        + out_local % np.maximum(block_len[out_touch], 1)
    )
    return blocks[source]


def expand_touches(
    instrumenter: Instrumenter,
    sample_period: int = 8,
    line_bytes: int = LINE_BYTES,
) -> np.ndarray:
    """Expand an instrumenter's buffered touches into sampled lines.

    Whole-stream wrapper over :func:`expand_touch_columns`; raises if
    the instrumenter streamed its touches to sinks (the whole stream is
    no longer held).
    """
    bases, rows, row_bytes, pitches, _writes, repeats = (
        instrumenter.touch_arrays()
    )
    return expand_touch_columns(
        bases, rows, row_bytes, pitches, repeats,
        sample_period=sample_period, line_bytes=line_bytes,
    )


class TouchStreamSink:
    """Touch sink cascading each flushed chunk through a hierarchy.

    Register on an :class:`~repro.trace.instrument.Instrumenter` to
    simulate cache traffic *while the encode runs*: each chunk expands
    to its sampled line stream (concatenation-safe, see
    :func:`expand_touch_columns`) and cascades through the hierarchy,
    whose per-set warm state carries across chunks — so final counters
    and contents are bit-identical to a whole-stream replay, with peak
    memory O(chunk) instead of O(touches).
    """

    def __init__(self, hierarchy: CacheHierarchy) -> None:
        self.hierarchy = hierarchy
        self.chunks = 0
        self.lines = 0

    def __call__(
        self,
        base: np.ndarray,
        rows: np.ndarray,
        row_bytes: np.ndarray,
        pitch: np.ndarray,
        write: np.ndarray,
        repeats: np.ndarray,
    ) -> None:
        lines = expand_touch_columns(
            base, rows, row_bytes, pitch, repeats,
            sample_period=self.hierarchy.sample_period,
        )
        self.chunks += 1
        self.lines += int(lines.size)
        self.hierarchy.access_lines(lines)


def simulate_encode_traffic(
    instrumenter: Instrumenter,
    hierarchy: CacheHierarchy | None = None,
) -> tuple[CacheHierarchy, HierarchyStats]:
    """Drive an encode's memory touches through a hierarchy.

    Returns the (possibly freshly created) hierarchy and its scaled
    statistics.
    """
    if hierarchy is None:
        hierarchy = CacheHierarchy()
    lines = expand_touches(instrumenter, hierarchy.sample_period)
    hierarchy.access_lines(lines)
    return hierarchy, hierarchy.stats()
