"""End-to-end validation over real (fast-mode) experiment grids.

Exercises the whole stack: run fig04/fig05 through the engine with a
result cache attached, check every registered claim holds on the
synthetic workload model, then validate again warm and require both
cache hits and identical verdicts.  A stubbed pooled validation checks
that the figures sharing a grid compute each cell once.
"""

import json
import os

os.environ.setdefault("REPRO_FAST", "1")

import pytest

import repro.core.session as session_mod
from repro.obs import ObsContext
from repro.parallel import pool
from repro.validate import claims_for, validate
from tests.test_resilience_integration import synthetic_report

pytestmark = pytest.mark.slow


class TestValidateEndToEnd:
    def test_fig04_fig05_cached_validation(self, tmp_path):
        cache_dir = str(tmp_path / "cache")

        cold_obs = ObsContext()
        cold = validate(
            ["fig04", "fig05"],
            cache_dir=cache_dir,
            invariant_cases=2,
            obs=cold_obs,
        )
        assert cold.passed(strict=True), cold.format_text()
        expected_ids = [
            c.claim_id for c in claims_for("fig04") + claims_for("fig05")
        ]
        assert [v.claim_id for v in cold.claims] == expected_ids
        assert all(o.passed for o in cold.invariants)

        warm_obs = ObsContext()
        warm = validate(
            ["fig04", "fig05"],
            cache_dir=cache_dir,
            with_invariants=False,
            obs=warm_obs,
        )
        assert warm.passed(strict=True), warm.format_text()
        counters = warm_obs.metrics.snapshot()["counters"]
        assert counters.get("cache.hits", 0) > 0

        cold_statuses = {v.claim_id: v.status for v in cold.claims}
        warm_statuses = {v.claim_id: v.status for v in warm.claims}
        assert warm_statuses == cold_statuses

        payload = json.loads(warm.to_json())
        assert payload["summary"]["failed"] == 0
        assert payload["summary"]["skipped"] == 0
        assert set(payload["experiments"]) == {"fig04", "fig05"}


class TestSharedSession:
    def test_pooled_validate_computes_each_cell_once(
        self, monkeypatch, tmp_path
    ):
        # Pool workers are forked, so the stub logs to a file they
        # inherit: one appended line per characterized cell.
        log = tmp_path / "cells.log"

        def fake(codec, video, machine=None, crf=None, preset=None,
                 num_frames=None):
            video = getattr(video, "name", video)
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{codec}:{video}:{crf:g}:{preset}\n")
            return synthetic_report(codec, video, crf=crf, preset=preset)

        entries = []
        engine = pool.execute_cells

        def counting(session, specs, workers=None):
            specs = list(specs)
            entries.append(len(specs))
            return engine(session, specs, workers)

        monkeypatch.setattr(session_mod, "characterize", fake)
        monkeypatch.setattr(pool, "execute_cells", counting)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        validate(
            ["fig04", "fig05", "fig06", "fig07", "fig11"],
            workers=2,
            with_invariants=False,
        )
        cells = log.read_text(encoding="utf-8").splitlines()
        # fig04-07 share one 3-video x 3-CRF grid; fig11 adds 3 presets.
        assert sorted(cells) == sorted(set(cells))
        assert len(cells) == 12
        assert entries == [9, 3]
