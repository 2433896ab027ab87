"""Tests for the branch predictor simulators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.trace.branchtrace import BranchTrace
from repro.trace.instruction import BranchEvent, LoopSummary
from repro.uarch.branch import (
    PAPER_PREDICTORS,
    BimodalPredictor,
    GsharePredictor,
    PerceptronPredictor,
    TagePredictor,
    TournamentPredictor,
    gshare_2kb,
    gshare_32kb,
    model_loops,
    run_trace,
    tage_64kb,
    tage_8kb,
)


def make_trace(events, instructions=None):
    if instructions is None:
        instructions = len(events) * 20
    return BranchTrace(events, window_instructions=instructions, name="t")


def biased_trace(n=2000, pc=0x400, taken=True):
    return make_trace([BranchEvent(pc=pc, taken=taken) for _ in range(n)])


def alternating_trace(n=2000, pc=0x400):
    return make_trace(
        [BranchEvent(pc=pc, taken=bool(i % 2)) for i in range(n)]
    )


def rng_pattern_trace(n=6000, sites=64, period=7, seed=3):
    """Deterministic periodic pattern across many sites — history-
    predictable, bias-unpredictable."""
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, sites, n) * 4 + 0x1000
    events = [
        BranchEvent(pc=int(pc), taken=bool((i // period + i) % 3 == 0))
        for i, pc in enumerate(pcs)
    ]
    return make_trace(events)


ALL_PREDICTORS = {
    "bimodal": lambda: BimodalPredictor(2048),
    "gshare-2KB": gshare_2kb,
    "gshare-32KB": gshare_32kb,
    "tage-8KB": tage_8kb,
    "tage-64KB": tage_64kb,
    "perceptron": lambda: PerceptronPredictor(),
    "tournament": lambda: TournamentPredictor(),
}


class TestAllPredictors:
    @pytest.mark.parametrize("name", list(ALL_PREDICTORS))
    def test_learns_bias(self, name):
        """Every predictor must nail a fully-biased branch."""
        result = run_trace(ALL_PREDICTORS[name](), biased_trace())
        assert result.miss_rate < 0.02, name

    @pytest.mark.parametrize("name", list(ALL_PREDICTORS))
    def test_learns_not_taken_bias(self, name):
        result = run_trace(ALL_PREDICTORS[name](), biased_trace(taken=False))
        assert result.miss_rate < 0.02, name

    @pytest.mark.parametrize(
        "name", ["gshare-2KB", "gshare-32KB", "tage-8KB", "tage-64KB",
                 "perceptron"]
    )
    def test_history_predictors_learn_alternation(self, name):
        """History-based predictors capture a strict alternation that a
        bimodal cannot."""
        result = run_trace(ALL_PREDICTORS[name](), alternating_trace())
        assert result.miss_rate < 0.05, name

    def test_bimodal_fails_alternation(self):
        result = run_trace(BimodalPredictor(2048), alternating_trace())
        assert result.miss_rate > 0.4

    @pytest.mark.parametrize("name", list(ALL_PREDICTORS))
    def test_storage_budget_positive(self, name):
        assert ALL_PREDICTORS[name]().storage_bits > 0

    @pytest.mark.parametrize("name", list(ALL_PREDICTORS))
    def test_update_before_predict(self, name):
        """Training a fresh predictor before any prediction is legal;
        TAGE used to raise AttributeError on its missing scratch."""
        predictor = ALL_PREDICTORS[name]()
        predictor.update(0x400, True)
        predictor.update(0x404, False)
        assert isinstance(predictor.predict(0x400), bool)


    @pytest.mark.parametrize("name", list(ALL_PREDICTORS))
    @pytest.mark.parametrize("other", [0x2000, 0x2004], ids=["0x2000", "0x2004"])
    def test_update_trains_the_pc_it_is_given(self, name, other):
        """update(pc) after a predict() of another pc trains exactly as
        the matched predict(pc)/update(pc) pair does.  (0x1000 and
        0x2000 share a perceptron row; 0x2004 does not.)"""
        rng = np.random.default_rng(7)
        warm = list(zip(
            (0x1000 + 4 * rng.integers(0, 6, size=400)).tolist(),
            (rng.uniform(size=400) < 0.6).tolist(),
        )) + [(0x1000, True), (other, False)] * 20
        mismatched, matched = ALL_PREDICTORS[name](), ALL_PREDICTORS[name]()
        for predictor in (mismatched, matched):
            for pc, taken in warm:
                predictor.predict(pc)
                predictor.update(pc, taken)
        for taken in (True, False, True):
            mismatched.predict(0x1000)
            mismatched.update(other, taken)
            matched.predict(other)
            matched.update(other, taken)
            assert predictor_state(mismatched) == predictor_state(matched)


def predictor_state(obj):
    """Every attribute of a predictor, recursively, in comparable form."""
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (list, tuple)):
        return [predictor_state(value) for value in obj]
    if isinstance(obj, dict):
        return {key: predictor_state(value) for key, value in obj.items()}
    if hasattr(obj, "__dict__"):
        return (type(obj).__name__, predictor_state(vars(obj)))
    if hasattr(obj, "__slots__"):
        return (type(obj).__name__, {
            slot: predictor_state(getattr(obj, slot)) for slot in obj.__slots__
        })
    return obj


class TestStorageBudgets:
    def test_paper_sizes(self):
        """The four CBP configurations must honour their budgets."""
        assert gshare_2kb().storage_kib == pytest.approx(2.0, rel=0.02)
        assert gshare_32kb().storage_kib == pytest.approx(32.0, rel=0.02)
        assert 6.0 < tage_8kb().storage_kib < 9.0
        assert 48.0 < tage_64kb().storage_kib < 68.0


class TestTageWarmupFolds:
    """TAGE's incremental folds vs a from-scratch reference fold.

    The folded-history registers are only correct during warm-up if
    the bit leaving each history window is taken as 0 while fewer
    than ``length`` outcomes exist (zero-fill); indexing the raw
    history deque unguarded would wrap to recent outcomes instead.
    """

    def _assert_folds_match(self, predictor, outcomes):
        from repro.validate import reference_fold

        for table in predictor.fold_snapshot():
            length = table["history_length"]
            for kind in ("index", "tag0", "tag1"):
                expect = reference_fold(
                    outcomes, length, table[f"{kind}_width"]
                )
                assert table[f"{kind}_fold"] == expect, (
                    f"{kind} fold for length {length} diverged after "
                    f"{len(outcomes)} branches"
                )

    def test_folds_match_reference_through_warmup(self):
        # 600 branches exceed the longest tage_8kb history window, so
        # this covers warm-up, the wrap boundary and steady state.
        rng = np.random.default_rng(20230911)
        predictor = tage_8kb()
        outcomes = []
        for pc, taken in zip(
            (rng.integers(0, 1 << 16, size=600) << 2).tolist(),
            (rng.uniform(size=600) < 0.7).tolist(),
        ):
            predictor.predict(int(pc))
            predictor.update(int(pc), bool(taken))
            outcomes.append(int(taken))
            self._assert_folds_match(predictor, outcomes)

    def test_history_snapshot_tracks_outcomes(self):
        predictor = tage_8kb()
        fed = [1, 0, 1, 1, 0]
        for at, taken in enumerate(fed):
            predictor.predict(0x4000 + 4 * at)
            predictor.update(0x4000 + 4 * at, bool(taken))
        history = predictor.history_snapshot()
        assert list(history[-len(fed):]) == fed

    def test_replay_is_deterministic(self):
        rng = np.random.default_rng(7)
        stream = [
            (int(pc) << 2, bool(t))
            for pc, t in zip(
                rng.integers(0, 1 << 14, size=300).tolist(),
                (rng.uniform(size=300) < 0.6).tolist(),
            )
        ]
        first, second = tage_8kb(), tage_8kb()
        for pc, taken in stream:
            assert first.predict(pc) == second.predict(pc)
            first.update(pc, taken)
            second.update(pc, taken)
        assert first.fold_snapshot() == second.fold_snapshot()


class TestPaperOrdering:
    """§4.4: TAGE beats Gshare; bigger beats smaller — evaluated on a
    real branch trace captured from an SVT-AV1 encode, exactly as the
    paper's Figs. 8-10 do."""

    @pytest.fixture(scope="class")
    def results(self):
        from repro.cbp import capture_trace
        from repro.video.synthetic import ContentSpec, generate

        video = generate(
            ContentSpec(name="cbp-test", width=96, height=64, fps=30,
                        num_frames=4, entropy=4.6, style="game")
        )
        trace = capture_trace(video, crf=60, preset=4, fraction=1.0,
                              max_events=30_000)
        assert len(trace) > 2000, "trace too small to rank predictors"
        return {
            name: run_trace(factory(), trace)
            for name, factory in PAPER_PREDICTORS.items()
        }

    def test_tage_beats_gshare(self, results):
        assert results["tage-8KB"].miss_rate < results["gshare-2KB"].miss_rate
        assert results["tage-64KB"].miss_rate < results["gshare-32KB"].miss_rate

    def test_bigger_not_worse(self, results):
        assert (
            results["gshare-32KB"].miss_rate
            <= results["gshare-2KB"].miss_rate * 1.02
        )
        assert (
            results["tage-64KB"].miss_rate
            <= results["tage-8KB"].miss_rate * 1.02
        )


class TestValidation:
    def test_gshare_rejects_bad_size(self):
        with pytest.raises(SimulationError):
            GsharePredictor(size_bytes=1000)

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            run_trace(gshare_2kb(), BranchTrace([], window_instructions=1))

    def test_tage_needs_tables(self):
        with pytest.raises(SimulationError):
            TagePredictor(base_entries=1024, tables=[])

    def test_result_metrics(self):
        result = run_trace(gshare_2kb(), biased_trace(n=100,))
        assert result.branches == 100
        assert 0 <= result.miss_rate <= 1
        assert result.mpki == pytest.approx(
            result.mispredicts / (100 * 20 / 1000)
        )


class TestLoopModel:
    def test_short_loops_nearly_free(self):
        summary = LoopSummary(pc=1, trip_count=8, invocations=1000)
        result = model_loops([summary], usable_history=12)
        assert result.miss_rate < 0.001

    def test_long_loops_miss_per_invocation(self):
        summary = LoopSummary(pc=1, trip_count=100, invocations=1000)
        result = model_loops([summary], usable_history=12)
        assert result.mispredicts == 1000
        assert result.miss_rate == pytest.approx(0.01)

    def test_empty(self):
        result = model_loops([], usable_history=12)
        assert result.branches == 0
        assert result.miss_rate == 0.0

    @given(st.integers(1, 300), st.integers(1, 100))
    @settings(max_examples=30)
    def test_miss_rate_bounded(self, trip, invocations):
        summary = LoopSummary(pc=1, trip_count=trip, invocations=invocations)
        result = model_loops([summary], usable_history=16)
        assert 0.0 <= result.miss_rate <= 1.0
