"""Tournament (McFarling combining) predictor — extension ablation.

Chooses per-branch between a bimodal and a Gshare component with a
2-bit chooser table, the second half of McFarling's combining-
predictors proposal the paper's Gshare baseline comes from.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...errors import SimulationError
from .base import BranchPredictor
from .bimodal import BimodalPredictor
from .gshare import GsharePredictor
from .replay import (
    saturating_counter_scan,
    segment_counts,
    stream_bounds,
)


def _chooser_deltas(
    bimodal: np.ndarray, gshare: np.ndarray, outcomes: np.ndarray
) -> np.ndarray:
    """Chooser update per event: +1 when gshare alone is right, -1 when
    bimodal alone is, 0 when the components agree."""
    return np.where(
        bimodal == gshare, 0, np.where(gshare == outcomes, 1, -1)
    ).astype(np.int8)


class TournamentPredictor(BranchPredictor):
    """Bimodal + Gshare with a chooser."""

    def __init__(self, size_bytes: int = 8192) -> None:
        if size_bytes < 1024 or size_bytes & (size_bytes - 1):
            raise SimulationError(
                "tournament size must be a power of two >= 1024"
            )
        component = size_bytes // 4
        self._bimodal = BimodalPredictor(component)
        self._gshare = GsharePredictor(component * 2)
        chooser_entries = component * 4
        self._chooser = np.full(chooser_entries, 2, dtype=np.int8)
        self._chooser_mask = chooser_entries - 1
        self.name = f"tournament-{size_bytes // 1024}KB"
        # (pc, bimodal, gshare) of the last predict(), None once
        # update() consumed it.
        self._last: tuple[int, bool, bool] | None = None

    def predict(self, pc: int) -> bool:
        bimodal = self._bimodal.predict(pc)
        gshare = self._gshare.predict(pc)
        self._last = (pc, bimodal, gshare)
        use_gshare = self._chooser[(pc >> 2) & self._chooser_mask] >= 2
        return gshare if use_gshare else bimodal

    def update(self, pc: int, taken: bool) -> None:
        if self._last is None or self._last[0] != pc:
            # No predict() for this pc: train from its own components.
            self._last = (pc, self._bimodal.predict(pc), self._gshare.predict(pc))
        _, bimodal, gshare = self._last
        index = (pc >> 2) & self._chooser_mask
        if bimodal != gshare:
            counter = self._chooser[index]
            if gshare == taken and counter < 3:
                self._chooser[index] = counter + 1
            elif bimodal == taken and counter > 0:
                self._chooser[index] = counter - 1
        self._bimodal.update(pc, taken)
        self._gshare.update(pc, taken)
        self._last = None

    def replay(self, pcs: np.ndarray, taken: np.ndarray) -> int:
        """Vectorized replay: component prediction streams + chooser scan.

        Both components replay their own counter chains; the chooser is
        another saturating-counter scan whose per-event delta is fully
        determined by the (precomputed) component predictions — +1 when
        gshare alone is right, -1 when bimodal alone is, 0 on agreement.
        """
        outcomes = taken != 0
        bimodal = self._bimodal.replay_predictions(pcs, taken)
        gshare = self._gshare.replay_predictions(pcs, taken)
        indices = (pcs >> 2) & self._chooser_mask
        before, final_idx, final_val = saturating_counter_scan(
            indices,
            _chooser_deltas(bimodal, gshare, outcomes),
            self._chooser[indices],
        )
        self._chooser[final_idx] = final_val
        predictions = np.where(before >= 2, gshare, bimodal)
        self._last = None
        return int(np.count_nonzero(predictions != outcomes))

    def replay_batch(
        self, streams: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> list[int]:
        """All streams through one chooser scan over disjoint index spaces.

        Both components produce their per-stream prediction columns via
        their own batched scans (each stream seeded from the current
        tables, nothing written back); the chooser — whose delta per
        event is fully determined by those predictions — then replays
        as one more concatenated scan with stream ``b``'s chooser
        indices offset by ``b × entries``.  Exactly equivalent to a
        deep-copied replay per stream; ``self`` is left untouched.
        """
        if not streams:
            return []
        bimodal_cols = self._bimodal.replay_batch_predictions(streams)
        gshare_cols = self._gshare.replay_batch_predictions(streams)
        chooser_entries = self._chooser_mask + 1
        counts = np.array([pcs.size for pcs, _ in streams], dtype=np.int64)
        raw = np.concatenate(
            [((pcs >> 2) & self._chooser_mask) for pcs, _ in streams]
        )
        offsets = np.repeat(
            np.arange(len(streams), dtype=np.int64) * chooser_entries, counts
        )
        bimodal = np.concatenate(bimodal_cols)
        gshare = np.concatenate(gshare_cols)
        outcomes = np.concatenate([taken for _, taken in streams]) != 0
        before, _, _ = saturating_counter_scan(
            raw + offsets,
            _chooser_deltas(bimodal, gshare, outcomes),
            self._chooser[raw],
        )
        predictions = np.where(before >= 2, gshare, bimodal)
        return segment_counts(predictions != outcomes, stream_bounds(counts))

    @property
    def storage_bits(self) -> int:
        return (
            self._bimodal.storage_bits
            + self._gshare.storage_bits
            + len(self._chooser) * 2
        )
