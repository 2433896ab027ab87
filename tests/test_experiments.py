"""Integration tests: every paper artifact regenerates with the right
shape.

These run the experiment modules on reduced grids (2 videos, 2-4 CRF
points, short clips) and assert the *trends* the paper reports —
who wins, what rises, what falls — not absolute values.
"""

import os

import pytest

os.environ.setdefault("REPRO_FAST", "1")

# Full-grid artifact regeneration takes tens of minutes even in fast
# mode; CI's fast path deselects it with ``-m "not slow"``.
pytestmark = pytest.mark.slow

from repro.core.session import Session  # noqa: E402
from repro.experiments import common, experiment_ids, run_experiment  # noqa: E402
from repro.experiments import (  # noqa: E402
    fig01_runtime,
    fig02_quality,
    fig04_crf_sweep,
    fig05_topdown,
    fig06_uarch,
    fig07_missrate,
    fig08_10_cbp,
    fig11_preset,
    fig12_15_threads,
    fig16_threads_topdown,
    table1,
    table2,
)


#: The reduced grids, by the helper name each figure module binds.
TINY_GRIDS = {
    "sweep_videos": lambda: ("desktop", "game1"),
    "sweep_crfs": lambda: (10, 60),
    "sweep_presets": lambda: (4, 8),
}


@pytest.fixture(scope="module", autouse=True)
def tiny_grids():
    """Shrink the experiment grids for test speed.

    Each figure module binds the grid helpers by name at import, so
    every binding is patched where it is looked up (patching
    ``common`` alone would not reach them).
    """
    modules = (
        common, fig01_runtime, fig02_quality, fig04_crf_sweep,
        fig05_topdown, fig06_uarch, fig07_missrate, fig08_10_cbp,
        fig11_preset, table2,
    )
    with pytest.MonkeyPatch.context() as patch:
        for module in modules:
            for name, grid in TINY_GRIDS.items():
                if hasattr(module, name):
                    patch.setattr(module, name, grid)
        yield


@pytest.fixture(scope="module")
def session():
    return Session(num_frames=3)


class TestRegistry:
    def test_all_artifacts_registered(self):
        ids = experiment_ids()
        assert "table1" in ids and "table2" in ids
        for fig in range(1, 17):
            assert f"fig{fig:02d}" in ids
        assert len(ids) == 18

    def test_unknown_id(self):
        from repro.errors import ExperimentError
        with pytest.raises(ExperimentError):
            run_experiment("fig99")


class TestTables:
    def test_table1_matches_catalog(self):
        result = table1.run(num_frames=2)
        table = result.tables[0]
        assert len(table.rows) == 15
        entropies = table.column("entropy")
        assert min(entropies) == 0.2 and max(entropies) == 7.7

    def test_table2_mix_envelope(self, session):
        """Table 2's mix must land in the paper's ranges (loosened)."""
        result = table2.run(session=session)
        table = result.tables[0]
        for row in table.rows:
            _video, insts, branch, load, store, avx, sse, other = row
            assert insts > 1e9  # native-equivalent magnitude
            assert 2.0 <= branch <= 9.0
            assert 20.0 <= load <= 33.0
            assert 9.0 <= store <= 18.0
            assert 24.0 <= avx <= 42.0
            assert 12.0 <= other <= 28.0


class TestFig01:
    def test_ordering_and_trend(self, session):
        result = fig01_runtime.run(session=session)
        svt = result.get_series("svt-av1")
        x264 = result.get_series("x264")
        # SVT-AV1 far above x264 at every CRF.
        for s, x in zip(svt.y, x264.y):
            assert s > 2.5 * x
        # Runtime falls with CRF.
        assert svt.y[-1] < svt.y[0]
        assert x264.y[-1] < x264.y[0]


class TestFig02:
    def test_svt_best_bdrate(self, session):
        result = fig02_quality.run(session=session)
        table = result.table(
            "Fig 2a: PSNR BD-rate (% vs x264) and mean runtime"
        )
        bd = dict(zip(table.column("codec"), table.column("bd_rate_pct")))
        assert bd["svt-av1"] < 0  # better than x264
        assert bd["svt-av1"] == min(bd.values())
        # Fig 2b: PSNR rises with runtime.
        curve = result.get_series("psnr_vs_time")
        assert max(curve.y) > min(curve.y)


class TestCrfSweepFigures:
    def test_fig04_instructions_fall_ipc_flat(self, session):
        result = fig04_crf_sweep.run(session=session)
        for video in ("desktop", "game1"):
            insts = result.get_series(f"insts:{video}")
            assert insts.y[-1] < insts.y[0]
            ipc = result.get_series(f"ipc:{video}")
            spread = max(ipc.y) / min(ipc.y)
            assert spread < 1.25  # "IPC moves by at most ~10%" (loose)
            assert 1.5 < ipc.y[0] < 2.6

    def test_fig05_topdown_shapes(self, session):
        result = fig05_topdown.run(session=session)
        table = result.tables[0]
        for row in table.rows:
            _v, _crf, retiring, bad_spec, frontend, backend = row
            assert 0.35 <= retiring <= 0.75
            assert backend > bad_spec
        # frontend+backend roughly constant across CRF per video.
        for video in ("desktop", "game1"):
            be = result.get_series(f"backend:{video}").y
            fe = result.get_series(f"frontend:{video}").y
            sums = [b + f for b, f in zip(be, fe)]
            assert max(sums) - min(sums) < 0.1

    def test_fig06_trends(self, session):
        result = fig06_uarch.run(session=session)
        for video in ("game1",):
            branch = result.get_series(f"branch_mpki:{video}").y
            # §4.4: branch MPKI is *low and flat* across CRF — the
            # paper's claim is magnitude, not monotonicity (per-CRF
            # noise moves it either way).
            assert all(value < 3.0 for value in branch)
            assert max(branch) - min(branch) < 0.25
            llc = result.get_series(f"llc_mpki:{video}").y
            l1d = result.get_series(f"l1d_mpki:{video}").y
            assert all(small < big for small, big in zip(llc, l1d))
            rob = result.get_series(f"rob_stalls:{video}").y
            rs = result.get_series(f"rs_stalls:{video}").y
            assert all(r < s for r, s in zip(rob, rs))

    def test_fig07_miss_rate_falls(self, session):
        result = fig07_missrate.run(session=session)
        rates = result.get_series("game1").y
        # Like branch MPKI, the miss *rate* stays low and roughly flat
        # across CRF; the paper reads it as insensitive to bitrate.
        assert all(0.3 < rate < 10.0 for rate in rates)  # percent
        assert max(rates) - min(rates) < 0.3


class TestCbpFigures:
    @pytest.mark.parametrize("figure", ["fig08", "fig10"])
    def test_predictor_ordering(self, figure):
        result = fig08_10_cbp.run(figure=figure, max_events=12_000)
        means = {
            series.name: sum(series.y) / len(series.y)
            for series in result.series
        }
        assert means["tage-8KB"] < means["gshare-2KB"]
        assert means["tage-64KB"] <= means["tage-8KB"] * 1.1
        assert means["gshare-32KB"] <= means["gshare-2KB"] * 1.05


class TestFig11:
    def test_preset_sweep_shapes(self, session):
        result = fig11_preset.run(session=session)
        time = result.get_series("time").y
        psnr = result.get_series("psnr").y
        assert time[-1] < time[0] / 3  # much faster at preset 8
        assert abs(psnr[0] - psnr[-1]) < 4.0  # modest quality change


class TestThreadFigures:
    def test_fig14_shapes(self, session):
        result = fig12_15_threads.run(
            figure="fig14", session=session, max_threads=8
        )
        svt = result.get_series("svt-av1").y
        x265 = result.get_series("x265").y
        assert svt[-1] > 4.0
        assert x265[-1] < 1.7
        assert svt[-1] == max(
            result.get_series(c).y[-1]
            for c in ("x264", "x265", "libaom", "svt-av1")
        )

    def test_fig16_x265_backend_grows(self, session):
        result = fig16_threads_topdown.run(session=session, max_threads=8)
        x265 = result.get_series("backend:x265").y
        assert x265[-1] > x265[0] + 0.05
        svt = result.get_series("backend:svt-av1").y
        assert abs(svt[-1] - svt[0]) < 0.1
