"""Perceptron predictor (Jiménez & Lin) — extension beyond the paper.

Included as the "other complicated scheme" ablation: a table of signed
weight vectors dotted with global history.  Useful for showing that
TAGE's advantage on encoder traces is not unique to tagged geometric
histories.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ...errors import SimulationError
from .base import BranchPredictor
from .replay import stable_order

#: Below this many still-active weight rows a lockstep step costs more
#: than finishing each remaining row with :func:`_walk_row`.  On the
#: cbp-replay traces (293 groups over nine streams) 4 and 8 measured
#: alike and best of 2-16; 32 and 64 were 1.5x and 3x slower.
LOCKSTEP_MIN_ROWS = 4

#: Events :func:`_walk_row` scores per round with a fixed weight row
#: (128 and 256 measured alike; 32 and 64 were slower).
WALK_BLOCK = 128


class PerceptronPredictor(BranchPredictor):
    """Global-history perceptron with saturating 8-bit weights.

    Parameters
    ----------
    num_perceptrons:
        Weight-vector table size (power of two).
    history_bits:
        History length = weights per vector (plus bias).
    """

    def __init__(self, num_perceptrons: int = 512, history_bits: int = 24) -> None:
        if num_perceptrons & (num_perceptrons - 1):
            raise SimulationError("perceptron count must be a power of two")
        if not 1 <= history_bits <= 64:
            raise SimulationError("history_bits must be in [1, 64]")
        self._mask = num_perceptrons - 1
        self._weights = np.zeros(
            (num_perceptrons, history_bits + 1), dtype=np.int16
        )
        self._history = np.ones(history_bits, dtype=np.int16)  # +-1 encoding
        self._threshold = int(1.93 * history_bits + 14)  # Jimenez's theta
        # Output of the last predict() and the pc it was for (None once
        # update() consumed it).
        self._last_output = 0
        self._predicted_pc: int | None = None
        self.name = f"perceptron-{num_perceptrons}x{history_bits}"

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self._mask

    def predict(self, pc: int) -> bool:
        weights = self._weights[self._index(pc)]
        self._last_output = int(weights[0]) + int(weights[1:] @ self._history)
        self._predicted_pc = pc
        return self._last_output >= 0

    def update(self, pc: int, taken: bool) -> None:
        if self._predicted_pc != pc:
            self.predict(pc)
        self._predicted_pc = None
        target = 1 if taken else -1
        predicted_taken = self._last_output >= 0
        if predicted_taken != taken or abs(self._last_output) <= self._threshold:
            weights = self._weights[self._index(pc)]
            weights[0] = np.clip(weights[0] + target, -128, 127)
            updated = weights[1:] + target * self._history
            weights[1:] = np.clip(updated, -128, 127)
        self._history[1:] = self._history[:-1]
        self._history[0] = target

    def replay(self, pcs: np.ndarray, taken: np.ndarray) -> int:
        """Lockstep replay of one stream, with full state write-back.

        The kernel of :meth:`replay_batch` run on one stream; the
        trained weight rows, the history register and the last output
        are then written back, so a later scalar stream behaves exactly
        as after the predict/update loop.
        """
        n = int(pcs.size)
        if n == 0:
            return 0
        run = self._lockstep([(pcs, taken)])
        self._weights[run.rows] = run.weights
        h = len(self._history)
        recent = np.where(taken[max(0, n - h) :] != 0, 1, -1).astype(np.int16)
        self._history = np.concatenate([recent[::-1], self._history])[:h]
        self._last_output = run.last_outputs[0]
        self._predicted_pc = None
        return run.mispredicts[0]

    def replay_batch(
        self, streams: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> list[int]:
        """All streams in one lockstep walk; ``self`` is untouched.

        Every stream starts from the current weights and history
        register and trains its own virtual copy of the table.
        """
        if not streams:
            return []
        return self._lockstep(streams).mispredicts

    def _lockstep(
        self, streams: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> "_LockstepRun":
        """Replay independent (stream, weight-row) groups side by side.

        Events of different groups never share state: each group trains
        one weight row, and the history an event sees depends only on
        its stream's earlier outcomes, so it is known up front.  Each
        event becomes one signed row ``x = t * [1, h_1 .. h_H]`` (``t``
        the ±1 outcome, ``h`` the ±1 history, newest first): then
        ``score = w . x`` is the output times ``t``, the event is a
        mispredict exactly when ``score < [t < 0]``, it trains exactly
        when ``score <= theta``, and training is ``w += x`` clamped to
        int8 range.  ``|score| <= 128 * (H + 1) <= 8320``, so int16 is
        exact.

        Groups are ranked longest first and their events laid out
        step-major: step ``k`` holds the ``k``-th event of every group
        longer than ``k``, one contiguous slice whose weight rows are
        the first ``active[k]`` rows.  A step is one masked dot, update
        and clamp over those rows.  Once fewer than
        :data:`LOCKSTEP_MIN_ROWS` groups remain, each remaining group
        finishes alone (:func:`_walk_row`).
        """
        num = self._mask + 1
        h = len(self._history)
        register = (self._history[::-1] > 0).astype(np.int8)
        extended_parts: list[np.ndarray] = []
        key_parts: list[np.ndarray] = []
        window_parts: list[np.ndarray] = []
        base = 0
        for b, (pcs, taken) in enumerate(streams):
            n = int(pcs.size)
            extended_parts.extend([register, (taken != 0).astype(np.int8)])
            key_parts.append(((pcs >> 2) & self._mask) + b * num)
            # Start of each event's history window inside the
            # concatenated (register, outcomes) column.
            window_parts.append(np.arange(base, base + n, dtype=np.int64))
            base += h + n
        counts = [part.size for part in key_parts]
        total = sum(counts)
        if total == 0:
            return _LockstepRun([0] * len(streams), None, None,
                                [0] * len(streams))
        bits = np.concatenate(extended_parts)
        bits <<= 1
        bits -= 1
        keys = np.concatenate(key_parts)
        window = np.concatenate(window_parts)

        # Group the events (stable: program order inside a group) and
        # rank the groups longest first.
        order = stable_order(keys)
        group_keys = keys[order]
        first = np.empty(total, dtype=bool)
        first[0] = True
        np.not_equal(group_keys[1:], group_keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        lengths = np.diff(starts, append=total)
        by_length = np.argsort(-lengths, kind="stable")
        rank = np.empty(lengths.size, dtype=np.int64)
        rank[by_length] = np.arange(lengths.size)
        sorted_lengths = lengths[by_length]
        # active[k]: groups with more than k events; offset[k]: where
        # step k starts in the step-major layout.
        longest = int(sorted_lengths[0])
        active = lengths.size - np.searchsorted(
            sorted_lengths[::-1], np.arange(longest), side="right"
        )
        offset = np.zeros(longest + 1, dtype=np.int64)
        np.cumsum(active, out=offset[1:])
        group_of = np.repeat(np.arange(lengths.size), lengths)
        step = np.arange(total) - starts[group_of]
        event = np.empty(total, dtype=np.int64)
        event[offset[step] + rank[group_of]] = order

        at = window[event]
        outcome = bits[at + h]
        signed = np.empty((total, h + 1), dtype=np.int8)
        signed[:, 0] = outcome
        np.multiply(
            np.flip(
                np.lib.stride_tricks.sliding_window_view(bits, h), axis=1
            )[at],
            outcome[:, None],
            out=signed[:, 1:],
        )
        rows = group_keys[starts[by_length]] & self._mask
        weights = self._weights[rows]
        scores = np.empty(total, dtype=np.int16)
        theta = self._threshold

        steps = int(np.count_nonzero(active >= LOCKSTEP_MIN_ROWS))
        bounds = offset[: steps + 1].tolist()
        for k in range(steps):
            lo, hi = bounds[k], bounds[k + 1]
            w = weights[: hi - lo]
            x = signed[lo:hi]
            score = scores[lo:hi]
            np.vecdot(w, x, out=score)
            train = score <= theta
            np.add(w, x, out=w, where=train[:, None])
            np.minimum(w, 127, out=w)
            np.maximum(w, -128, out=w)
        for r in range(int(active[steps]) if steps < longest else 0):
            slots = offset[steps : sorted_lengths[r]] + r
            scores[slots] = _walk_row(weights[r], signed[slots], theta)

        wrong = scores < (outcome < 0)
        ends = np.cumsum(counts)
        stream_of = np.searchsorted(ends, event[wrong], side="right")
        mispredicts = np.bincount(stream_of, minlength=len(streams))
        slot = np.empty(total, dtype=np.int64)
        slot[event] = np.arange(total)
        last_outputs = [
            int(scores[slot[end - 1]]) * int(outcome[slot[end - 1]])
            if count else 0
            for end, count in zip(ends.tolist(), counts)
        ]
        return _LockstepRun(
            mispredicts.tolist(), rows, weights, last_outputs
        )

    @property
    def storage_bits(self) -> int:
        return self._weights.size * 8 + len(self._history)


class _LockstepRun(NamedTuple):
    """Result of :meth:`PerceptronPredictor._lockstep`.

    ``rows``/``weights``: the table row and trained weights of each
    (stream, row) group; ``last_outputs``: the output of each stream's
    final event (0 for an empty stream).
    """

    mispredicts: list[int]
    rows: np.ndarray | None
    weights: np.ndarray | None
    last_outputs: list[int]


def _walk_row(row: np.ndarray, signed: np.ndarray, theta: int) -> np.ndarray:
    """One weight row through its remaining events, in order; trains
    ``row`` in place and returns every event's score.

    Between two training events the row is constant, so each round
    scores a block of upcoming events at once and stops at the first
    one that trains.  The groups that outlast the lockstep are the hot
    ones, which rarely train, so most rounds cover a whole block.
    """
    scores = np.empty(signed.shape[0], dtype=np.int16)
    pos = 0
    while pos < scores.size:
        block = signed[pos : pos + WALK_BLOCK]
        block_scores = block @ row
        train = np.flatnonzero(block_scores <= theta)
        if train.size:
            trained = int(train[0])
            scores[pos : pos + trained + 1] = block_scores[: trained + 1]
            row += block[trained]
            np.minimum(row, 127, out=row)
            np.maximum(row, -128, out=row)
            pos += trained + 1
        else:
            scores[pos : pos + block.shape[0]] = block_scores
            pos += block.shape[0]
    return scores
