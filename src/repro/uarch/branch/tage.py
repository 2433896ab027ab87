"""TAGE predictor (Seznec) — the paper's "more complicated scheme".

A base bimodal table plus several partially-tagged tables indexed with
geometrically increasing global-history lengths.  Prediction comes
from the longest-history table that tags a hit; allocation on a
mispredict claims an entry in a longer table.  This is the core TAGE
mechanism of the TAGE-SC-L family the paper cites [33]; the SC/L
correctors contribute a further few percent and are omitted.

The paper evaluates 8 KB and 64 KB configurations
(:func:`tage_8kb`, :func:`tage_64kb`).

Folded-history registers are maintained incrementally (the standard
implementation trick), so per-branch work is constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ...errors import SimulationError
from .base import BranchPredictor
from .replay import fold_stream, stable_order


class _FoldedHistory:
    """Circular-shift-register fold of the last ``length`` outcomes."""

    __slots__ = ("length", "width", "value", "_out_shift")

    def __init__(self, length: int, width: int) -> None:
        self.length = length
        self.width = width
        self.value = 0
        self._out_shift = length % width

    def push(self, new_bit: int, outgoing_bit: int) -> None:
        value = (self.value << 1) | new_bit
        value ^= outgoing_bit << self._out_shift
        value ^= value >> self.width
        self.value = value & ((1 << self.width) - 1)


@dataclass(frozen=True)
class TageTableConfig:
    """Geometry of one tagged component."""

    entries: int
    tag_bits: int
    history_length: int

    def __post_init__(self) -> None:
        if self.entries & (self.entries - 1):
            raise SimulationError("TAGE table entries must be a power of two")


class TagePredictor(BranchPredictor):
    """TAGE with a bimodal base and N tagged components."""

    def __init__(
        self,
        base_entries: int,
        tables: list[TageTableConfig],
        name: str = "tage",
        use_alt_threshold: int = 8,
    ) -> None:
        if base_entries & (base_entries - 1):
            raise SimulationError("base entries must be a power of two")
        if not tables:
            raise SimulationError("TAGE needs at least one tagged table")
        self.name = name
        self._base = np.full(base_entries, 2, dtype=np.int8)  # 2-bit
        self._base_mask = base_entries - 1
        self._tables = tables
        self._ctr = [np.zeros(t.entries, dtype=np.int8) for t in tables]  # 3-bit signed
        self._tag = [np.zeros(t.entries, dtype=np.int32) for t in tables]
        self._useful = [np.zeros(t.entries, dtype=np.int8) for t in tables]  # 2-bit
        self._index_bits = [t.entries.bit_length() - 1 for t in tables]
        self._fold_index = [
            _FoldedHistory(t.history_length, bits)
            for t, bits in zip(tables, self._index_bits)
        ]
        self._fold_tag0 = [
            _FoldedHistory(t.history_length, t.tag_bits) for t in tables
        ]
        self._fold_tag1 = [
            _FoldedHistory(t.history_length, t.tag_bits - 1) for t in tables
        ]
        self._history: list[int] = []
        self._max_history = max(t.history_length for t in tables)
        self._use_alt = use_alt_threshold  # 4-bit counter, >=8 favours alt
        # Allocation is deliberately deterministic (first useful==0
        # entry wins; no randomized victim), so replaying a trace on a
        # fresh instance reproduces every prediction bit-for-bit — the
        # property the validation invariant harness asserts.
        # Per-prediction scratch, filled by predict() and consumed by
        # update(); ``_predicted_pc`` is the pc it was filled for (None
        # once consumed), so an unpaired update() recomputes it.
        self._predicted_pc: int | None = None
        self._hit = -1
        self._alt = -1
        self._pred = False
        self._alt_pred = False
        self._indices: list[int] = [0] * len(tables)
        self._tags: list[int] = [0] * len(tables)

    # ------------------------------------------------------------------
    def _compute_indices(self, pc: int) -> None:
        pc >>= 2
        for i, bits in enumerate(self._index_bits):
            mask = (1 << bits) - 1
            self._indices[i] = (
                pc ^ (pc >> bits) ^ self._fold_index[i].value
            ) & mask
            tag_bits = self._tables[i].tag_bits
            self._tags[i] = (
                pc ^ self._fold_tag0[i].value ^ (self._fold_tag1[i].value << 1)
            ) & ((1 << tag_bits) - 1)

    def _base_predict(self, pc: int) -> bool:
        return bool(self._base[(pc >> 2) & self._base_mask] >= 2)

    def predict(self, pc: int) -> bool:
        self._predicted_pc = pc
        self._compute_indices(pc)
        self._hit = -1
        self._alt = -1
        for i in range(len(self._tables) - 1, -1, -1):
            if self._tag[i][self._indices[i]] == self._tags[i]:
                if self._hit < 0:
                    self._hit = i
                else:
                    self._alt = i
                    break
        if self._hit < 0:
            self._pred = self._base_predict(pc)
            self._alt_pred = self._pred
            return self._pred
        ctr = int(self._ctr[self._hit][self._indices[self._hit]])
        if self._alt >= 0:
            alt_pred = bool(
                self._ctr[self._alt][self._indices[self._alt]] >= 0
            )
        else:
            alt_pred = self._base_predict(pc)
        self._alt_pred = alt_pred
        # Newly allocated (weak) entries may defer to the alternate.
        if ctr in (-1, 0) and self._use_alt >= 8:
            self._pred = alt_pred
        else:
            self._pred = ctr >= 0
        return self._pred

    def update(self, pc: int, taken: bool) -> None:
        if self._predicted_pc != pc:
            self.predict(pc)
        self._predicted_pc = None
        hit = self._hit
        if hit >= 0:
            index = self._indices[hit]
            ctr = int(self._ctr[hit][index])
            weak = ctr in (-1, 0)
            # use-alt-on-new-alloc bookkeeping.
            if weak and self._pred != self._alt_pred:
                correct_main = (ctr >= 0) == taken
                if correct_main and self._use_alt > 0:
                    self._use_alt -= 1
                elif not correct_main and self._use_alt < 15:
                    self._use_alt += 1
            # Counter update.
            if taken and ctr < 3:
                self._ctr[hit][index] = ctr + 1
            elif not taken and ctr > -4:
                self._ctr[hit][index] = ctr - 1
            # Usefulness.
            if self._pred != self._alt_pred:
                useful = int(self._useful[hit][index])
                if self._pred == taken and useful < 3:
                    self._useful[hit][index] = useful + 1
                elif self._pred != taken and useful > 0:
                    self._useful[hit][index] = useful - 1
        else:
            base_index = (pc >> 2) & self._base_mask
            counter = int(self._base[base_index])
            if taken and counter < 3:
                self._base[base_index] = counter + 1
            elif not taken and counter > 0:
                self._base[base_index] = counter - 1

        # Allocation on mispredict in a longer-history table.
        if self._pred != taken and hit < len(self._tables) - 1:
            start = hit + 1
            allocated = False
            for i in range(start, len(self._tables)):
                index = self._indices[i]
                if self._useful[i][index] == 0:
                    self._tag[i][index] = self._tags[i]
                    self._ctr[i][index] = 0 if taken else -1
                    allocated = True
                    break
            if not allocated:
                # Decay usefulness along the allocation path.
                for i in range(start, len(self._tables)):
                    index = self._indices[i]
                    if self._useful[i][index] > 0:
                        self._useful[i][index] -= 1

        # Advance global history and folded registers.
        bit = int(taken)
        self._history.append(bit)
        if len(self._history) > self._max_history + 1:
            self._history.pop(0)
        for i, table in enumerate(self._tables):
            outgoing = self._outgoing_bit(table.history_length)
            self._fold_index[i].push(bit, outgoing)
            self._fold_tag0[i].push(bit, outgoing)
            self._fold_tag1[i].push(bit, outgoing)

    def _stream_columns(
        self, pcs: np.ndarray, taken: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int, int]], np.ndarray]:
        """Precompute one stream's index/tag columns from current state.

        The folded-history registers (and hence every table index and
        tag) depend only on the outcome stream, never on table state,
        so whole columns are computed up front with the closed-form
        :func:`fold_stream`.  Returns ``(indices, tags, final_folds,
        full)``: ``(tables, n)`` index and tag matrices, the folds after
        the stream, and the retained-history-plus-stream outcome column
        the history window write-back slices from.
        """
        n = int(pcs.size)
        m = len(self._history)
        full = np.concatenate(
            [
                np.array(self._history, dtype=np.uint8),
                (taken != 0).astype(np.uint8),
            ]
        )
        pcw = (pcs >> 2).astype(np.int64)
        indices = np.empty((len(self._tables), n), dtype=np.int64)
        tags = np.empty((len(self._tables), n), dtype=np.int64)
        final_folds: list[tuple[int, int, int]] = []
        for i, table in enumerate(self._tables):
            length = table.history_length
            bits = self._index_bits[i]
            fold_idx = fold_stream(full, length, bits)
            fold_t0 = fold_stream(full, length, table.tag_bits)
            fold_t1 = fold_stream(full, length, table.tag_bits - 1)
            mask = (1 << bits) - 1
            tag_mask = (1 << table.tag_bits) - 1
            np.bitwise_and(
                pcw ^ (pcw >> bits) ^ fold_idx[m : m + n], mask,
                out=indices[i],
            )
            np.bitwise_and(
                pcw ^ fold_t0[m : m + n] ^ (fold_t1[m : m + n] << 1),
                tag_mask,
                out=tags[i],
            )
            final_folds.append(
                (int(fold_idx[m + n]), int(fold_t0[m + n]), int(fold_t1[m + n]))
            )
        return indices, tags, final_folds, full

    def _scan_tops(self, indices: np.ndarray, tags: np.ndarray) -> np.ndarray:
        """Per event, the highest table whose tag could match.

        Table ``i`` can match at event ``k`` only if its entry already
        holds ``tags[i, k]`` when the stream starts, or an earlier event
        of the stream had the same (index, tag) pair: only an allocation
        writes a tag, and it writes its own event's pair.  The walk's
        tag scan starts here instead of at the last table; every table
        it skips is a certain miss.  Only the upper half of the tables
        is checked: the short-history lower half repeats its pairs on
        most events, so a sort there would prove few misses.
        """
        n = indices.shape[1]
        lower = len(self._tables) // 2
        tops = np.full(n, lower - 1, dtype=np.int64)
        for i in range(lower, len(self._tables)):
            table = self._tables[i]
            keys = (indices[i] << table.tag_bits) | tags[i]
            order = stable_order(keys)
            repeat = np.empty(n, dtype=bool)
            repeat[0] = False
            np.equal(keys[order[1:]], keys[order[:-1]], out=repeat[1:])
            could = np.empty(n, dtype=bool)
            could[order] = repeat
            could |= self._tag[i][indices[i]] == tags[i]
            tops[could] = i
        return tops

    def _replay_loop(
        self,
        indices: np.ndarray,
        tags: np.ndarray,
        pcs: np.ndarray,
        taken: np.ndarray,
        base: list[int],
        ctr: list[list[int]],
        tag_tables: list[list[int]],
        useful: list[list[int]],
        use_alt: int,
    ) -> tuple[int, int, int, int, bool, bool]:
        """The sequential per-event core of columnar replay.

        Tag-match scan, counter updates, allocation — inherently
        sequential through the tables, so it runs as a tight loop over
        per-event rows zipped from the precomputed columns and over
        plain Python lists (no per-event NumPy indexing, fold pushing,
        or attribute chasing).  Mutates the supplied list-form tables
        in place; the caller decides whether they are the real tables
        (:meth:`replay` writes them back) or per-stream virtual copies
        (:meth:`replay_batch` discards them).  Returns ``(mispredicts,
        use_alt, hit, alt, pred, alt_pred)`` after the last event.
        """
        num_tables = len(self._tables)
        last_table = num_tables - 1
        mispredicts = 0
        hit = alt = -1
        pred = alt_pred = False
        rows = zip(
            (taken != 0).tolist(),
            ((pcs >> 2) & self._base_mask).tolist(),
            self._scan_tops(indices, tags).tolist(),
            zip(*indices.tolist()),
            zip(*tags.tolist()),
        )
        for taken_k, b_index, top, idx, tag in rows:
            hit = alt = -1
            i = top
            while i >= 0:
                if tag_tables[i][idx[i]] == tag[i]:
                    if hit < 0:
                        hit = i
                    else:
                        alt = i
                        break
                i -= 1
            if hit < 0:
                counter = base[b_index]
                pred = alt_pred = counter >= 2
                if taken_k:
                    if counter < 3:
                        base[b_index] = counter + 1
                elif counter > 0:
                    base[b_index] = counter - 1
            else:
                hit_ctr = ctr[hit]
                hit_index = idx[hit]
                counter = hit_ctr[hit_index]
                if alt >= 0:
                    alt_pred = ctr[alt][idx[alt]] >= 0
                else:
                    alt_pred = base[b_index] >= 2
                # Newly allocated (weak) entries may defer to the alternate.
                weak = counter == -1 or counter == 0
                if weak and use_alt >= 8:
                    pred = alt_pred
                else:
                    pred = counter >= 0
                if pred != alt_pred:
                    if weak:
                        if (counter >= 0) == taken_k:
                            if use_alt > 0:
                                use_alt -= 1
                        elif use_alt < 15:
                            use_alt += 1
                    hit_useful = useful[hit]
                    u = hit_useful[hit_index]
                    if pred == taken_k:
                        if u < 3:
                            hit_useful[hit_index] = u + 1
                    elif u > 0:
                        hit_useful[hit_index] = u - 1
                if taken_k:
                    if counter < 3:
                        hit_ctr[hit_index] = counter + 1
                elif counter > -4:
                    hit_ctr[hit_index] = counter - 1
            if pred != taken_k:
                mispredicts += 1
                # Allocate in a longer-history table, else decay
                # usefulness along the allocation path.
                if hit < last_table:
                    for i in range(hit + 1, num_tables):
                        a_index = idx[i]
                        if useful[i][a_index] == 0:
                            tag_tables[i][a_index] = tag[i]
                            ctr[i][a_index] = 0 if taken_k else -1
                            break
                    else:
                        for i in range(hit + 1, num_tables):
                            a_index = idx[i]
                            u = useful[i][a_index]
                            if u > 0:
                                useful[i][a_index] = u - 1
        return mispredicts, use_alt, hit, alt, pred, alt_pred

    def replay(self, pcs: np.ndarray, taken: np.ndarray) -> int:
        """Columnar replay: precomputed fold/index/tag streams.

        :meth:`_stream_columns` precomputes every table index and tag
        from the outcome column alone; :meth:`_replay_loop` then walks
        the events over list-form tables.  Bit-parity with
        predict()/update() covers both the mispredict count and all
        post-replay state.
        """
        n = int(pcs.size)
        if n == 0:
            return 0
        indices, tags, final_folds, full = self._stream_columns(pcs, taken)
        base = self._base.tolist()
        ctr = [t.tolist() for t in self._ctr]
        tag_tables = [t.tolist() for t in self._tag]
        useful = [t.tolist() for t in self._useful]
        mispredicts, use_alt, hit, alt, pred, alt_pred = self._replay_loop(
            indices, tags, pcs, taken,
            base, ctr, tag_tables, useful, self._use_alt,
        )
        # State write-back: tables, folds, history window and the
        # per-prediction scratch the scalar pair would have left behind.
        self._use_alt = use_alt
        self._base[:] = base
        for i in range(len(self._tables)):
            self._ctr[i][:] = ctr[i]
            self._tag[i][:] = tag_tables[i]
            self._useful[i][:] = useful[i]
            fi_v, f0_v, f1_v = final_folds[i]
            self._fold_index[i].value = fi_v
            self._fold_tag0[i].value = f0_v
            self._fold_tag1[i].value = f1_v
        self._indices = indices[:, n - 1].tolist()
        self._tags = tags[:, n - 1].tolist()
        keep = self._max_history + 1
        self._history = full[max(0, int(full.size) - keep) :].tolist()
        self._hit = hit
        self._alt = alt
        self._pred = pred
        self._alt_pred = alt_pred
        self._predicted_pc = None
        return mispredicts

    def replay_batch(
        self, streams: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> list[int]:
        """Per-stream columnar replay without the deep copy.

        Every stream's fold/index/tag columns are precomputed from this
        predictor's *current* history (all streams start from the same
        state — they are independent sweep cells), and the sequential
        loop then runs over fresh list-form copies of the current
        tables, which are simply discarded afterwards.  Compared to the
        base-class deep-copy fallback this skips cloning the predictor
        object graph per stream and shares the column machinery; the
        inherently sequential tag-match walk is unchanged.  ``self`` is
        left untouched.
        """
        counts: list[int] = []
        for pcs, taken in streams:
            if pcs.size == 0:
                counts.append(0)
                continue
            indices, tags, _, _ = self._stream_columns(pcs, taken)
            mispredicts, _, _, _, _, _ = self._replay_loop(
                indices, tags, pcs, taken,
                self._base.tolist(),
                [t.tolist() for t in self._ctr],
                [t.tolist() for t in self._tag],
                [t.tolist() for t in self._useful],
                self._use_alt,
            )
            counts.append(mispredicts)
        return counts

    def _outgoing_bit(self, length: int) -> int:
        """Outcome leaving a ``length``-bit history window, zero-filled.

        Called *after* the new outcome is appended, so the bit sliding
        out of the window sits ``length + 1`` positions from the end.
        During warm-up — fewer than ``length + 1`` recorded outcomes —
        the conceptual window is padded with zeros, so the outgoing bit
        is 0; indexing ``self._history[-(length + 1)]`` unguarded would
        wrap around to recent outcomes and corrupt every fold.
        """
        if len(self._history) <= length:
            return 0
        return self._history[-(length + 1)]

    # -- validation hooks ----------------------------------------------

    def history_snapshot(self) -> tuple[int, ...]:
        """Retained global-history bits, oldest first (testing hook)."""
        return tuple(self._history)

    def fold_snapshot(self) -> list[dict[str, int]]:
        """Per-table folded-history register state (testing hook).

        The invariant harness recomputes each fold from the raw
        outcome stream via a straightforward reference implementation
        and asserts it matches these incrementally maintained values —
        including during warm-up, where the zero-fill of
        :meth:`_outgoing_bit` is what keeps them consistent.
        """
        return [
            {
                "history_length": table.history_length,
                "index_fold": self._fold_index[i].value,
                "index_width": self._fold_index[i].width,
                "tag0_fold": self._fold_tag0[i].value,
                "tag0_width": self._fold_tag0[i].width,
                "tag1_fold": self._fold_tag1[i].value,
                "tag1_width": self._fold_tag1[i].width,
            }
            for i, table in enumerate(self._tables)
        ]

    @property
    def storage_bits(self) -> int:
        bits = len(self._base) * 2
        for table in self._tables:
            bits += table.entries * (3 + 2 + table.tag_bits)
        return bits + self._max_history + 4


def tage_8kb() -> TagePredictor:
    """The paper's small TAGE configuration (~8 KB)."""
    tables = [
        TageTableConfig(entries=1024, tag_bits=8, history_length=5),
        TageTableConfig(entries=1024, tag_bits=8, history_length=15),
        TageTableConfig(entries=1024, tag_bits=9, history_length=44),
        TageTableConfig(entries=1024, tag_bits=9, history_length=130),
    ]
    return TagePredictor(base_entries=4096, tables=tables, name="tage-8KB")


def tage_64kb() -> TagePredictor:
    """The paper's large TAGE configuration (~64 KB)."""
    tables = [
        TageTableConfig(entries=4096, tag_bits=9, history_length=4),
        TageTableConfig(entries=4096, tag_bits=10, history_length=9),
        TageTableConfig(entries=4096, tag_bits=11, history_length=21),
        TageTableConfig(entries=4096, tag_bits=11, history_length=48),
        TageTableConfig(entries=4096, tag_bits=12, history_length=111),
        TageTableConfig(entries=4096, tag_bits=12, history_length=256),
    ]
    return TagePredictor(base_entries=16384, tables=tables, name="tage-64KB")
