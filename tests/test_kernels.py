"""Bit-parity tests for the vectorized kernel layer.

Every vectorized fast path must be bit-equal to the scalar reference
it replaces (DESIGN.md "Kernel architecture"): predictor replay
kernels reproduce the scalar predict/update loop's mispredict counts
*and* post-replay state; the batched encoder produces the same coded
bits, PSNR, and instruction mix; the kernel switch in
:mod:`repro.kernels` selects between the two paths.
"""

import numpy as np
import pytest

from repro import kernels
from repro.cbp.harness import run_championship
from repro.cbp.traces import capture_trace
from repro.codecs import create_encoder
from repro.codecs.entropy.arithmetic import BoolEncoder
from repro.codecs.entropy.cdf import ContextSet
from repro.codecs.entropy.coefcode import (
    CoefficientCoder,
    fast_rate_estimate_batch,
    rate_estimate_groups,
)
from repro.codecs.motion import (
    ZERO_MV,
    MotionVector,
    SadVolume,
    diamond_search,
    diamond_search_sads,
    full_search,
    full_search_sads,
)
from repro.codecs.predict import (
    IntraMode,
    extend_neighbours,
    neighbours_stack,
    predict,
    predict_stack,
)
from repro.codecs.transform import (
    TX_TYPES,
    forward_tx_batch,
    forward_tx_stack,
    inverse_tx_batch,
    inverse_tx_stack,
    satd,
    satd_batch,
    tile_block,
    tile_stack,
)
from repro.errors import CodecError
from repro.uarch.branch import (
    PAPER_PREDICTORS,
    BimodalPredictor,
    PerceptronPredictor,
    TournamentPredictor,
    gshare_2kb,
    gshare_32kb,
    run_trace,
    tage_8kb,
    tage_64kb,
)
from repro.uarch.branch.replay import saturating_counter_scan, stable_order
from repro.video.synthetic import ContentSpec, generate

#: Every predictor with a vectorized replay kernel, including both
#: storage budgets of the paper's gshare and TAGE configurations.
ALL_PREDICTORS = {
    "bimodal": BimodalPredictor,
    "gshare-2KB": gshare_2kb,
    "gshare-32KB": gshare_32kb,
    "tournament": TournamentPredictor,
    "perceptron": PerceptronPredictor,
    "tage-8KB": tage_8kb,
    "tage-64KB": tage_64kb,
}


def branch_columns(seed: int, count: int = 3000):
    """A seeded columnar branch stream with biased, clustered PCs."""
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, 1 << 16, size=24) << 2
    which = rng.integers(0, pcs.size, size=count)
    bias = rng.uniform(0.05, 0.95, size=pcs.size)
    taken = (rng.uniform(size=count) < bias[which]).astype(np.uint8)
    return pcs[which].astype(np.int64), taken


def scalar_mispredicts(predictor, pcs, taken) -> int:
    """The scalar reference loop the replay kernels must match."""
    mispredicts = 0
    for pc, t in zip(pcs.tolist(), taken.tolist()):
        outcome = t != 0
        if predictor.predict_update(pc, outcome) != outcome:
            mispredicts += 1
    return mispredicts


@pytest.fixture(scope="module")
def small_video():
    return generate(
        ContentSpec(name="kernel-test", width=64, height=48, fps=30,
                    num_frames=3, entropy=4.0, style="game")
    )


@pytest.fixture(scope="module")
def captured_trace(small_video):
    return capture_trace(small_video, crf=40, preset=8, max_events=8000)


class TestReplayParity:
    @pytest.mark.parametrize("name", list(ALL_PREDICTORS))
    def test_replay_matches_scalar_on_random_streams(self, name):
        factory = ALL_PREDICTORS[name]
        for seed in (11, 12, 13):
            pcs, taken = branch_columns(seed)
            fast, ref = factory(), factory()
            assert int(fast.replay(pcs, taken)) == scalar_mispredicts(
                ref, pcs, taken
            ), f"{name}: mispredict count diverged (seed {seed})"
            # Post-replay state: both instances must behave identically
            # on a fresh probe stream fed through the scalar loop.
            probe_pcs, probe_taken = branch_columns(seed + 1000, count=500)
            for pc, t in zip(probe_pcs.tolist(), probe_taken.tolist()):
                outcome = t != 0
                assert fast.predict_update(pc, outcome) == ref.predict_update(
                    pc, outcome
                ), f"{name}: post-replay state diverged (seed {seed})"

    @pytest.mark.parametrize("name", list(ALL_PREDICTORS))
    def test_replay_matches_scalar_on_captured_trace(
        self, captured_trace, name
    ):
        factory = ALL_PREDICTORS[name]
        pcs, taken = captured_trace.columns()
        fast, ref = factory(), factory()
        assert int(fast.replay(pcs, taken)) == scalar_mispredicts(
            ref, pcs, taken
        )

    def test_empty_stream(self):
        pcs = np.empty(0, dtype=np.int64)
        taken = np.empty(0, dtype=np.uint8)
        for factory in ALL_PREDICTORS.values():
            assert int(factory().replay(pcs, taken)) == 0


def fixed_direction_stream(seed: int, sites: int, count: int):
    """``sites`` PCs in distinct perceptron rows, each always taken or
    always not taken (alternating by site), randomly interleaved.

    With a 64-bit history (theta 137) a fixed-direction row keeps
    training after its bias reaches the int8 bound, so weights pin at
    +127 and -128 and the clamp decides the replay.
    """
    rng = np.random.default_rng(seed)
    which = rng.integers(0, sites, size=count)
    pcs = (0x4000 + 4 * which).astype(np.int64)
    return pcs, (which % 2 == 0).astype(np.uint8)


def saturating_perceptron():
    return PerceptronPredictor(history_bits=64)


class TestPerceptronSaturation:
    @pytest.mark.parametrize("sites", [2, 8])
    def test_clamped_weights_match_scalar(self, sites):
        # 2 sites finish in the per-row walk; 8 keep the lockstep
        # steps running through the saturation.
        pcs, taken = fixed_direction_stream(5, sites, 650 * sites)
        ref = saturating_perceptron()
        expected = scalar_mispredicts(ref, pcs, taken)
        weights = ref._weights
        assert weights.max() == 127 and weights.min() == -128
        fast = saturating_perceptron()
        assert int(fast.replay(pcs, taken)) == expected
        assert np.array_equal(fast._weights, weights)
        batched = saturating_perceptron()
        assert batched.replay_batch([(pcs, taken), (pcs, taken)]) == [
            expected, expected,
        ]
        assert not batched._weights.any()
        probe_pcs, probe_taken = fixed_direction_stream(6, sites, 400)
        for pc, t in zip(probe_pcs.tolist(), probe_taken.tolist()):
            outcome = t != 0
            assert fast.predict_update(pc, outcome) == ref.predict_update(
                pc, outcome
            )

    @pytest.mark.parametrize(
        "factory", [PerceptronPredictor, saturating_perceptron]
    )
    def test_mixed_length_batch(self, factory):
        """Empty, 1-event, shorter-than-history and long streams in one
        batch, from a warmed predictor."""
        long_pcs, long_taken = branch_columns(21, count=2500)
        short_pcs, short_taken = branch_columns(22, count=17)
        streams = [
            (long_pcs[:0], long_taken[:0]),
            (short_pcs[:1], short_taken[:1]),
            (short_pcs, short_taken),
            (long_pcs, long_taken),
        ]
        warm_pcs, warm_taken = fixed_direction_stream(23, 8, 600)
        batched = factory()
        scalar_mispredicts(batched, warm_pcs, warm_taken)
        expected = []
        for pcs, taken in streams:
            ref = factory()
            scalar_mispredicts(ref, warm_pcs, warm_taken)
            expected.append(scalar_mispredicts(ref, pcs, taken))
            fast = factory()
            scalar_mispredicts(fast, warm_pcs, warm_taken)
            assert int(fast.replay(pcs, taken)) == expected[-1]
            for pc, t in zip(long_pcs[:300].tolist(), long_taken[:300].tolist()):
                assert fast.predict_update(pc, t != 0) == ref.predict_update(
                    pc, t != 0
                )
        assert batched.replay_batch(streams) == expected


def clamp_walk(indices, deltas, init):
    """Per-index 2-bit counter walk: the oracle for the counter scan."""
    table: dict[int, int] = {}
    before = []
    for index, delta, start in zip(
        indices.tolist(), deltas.tolist(), init.tolist()
    ):
        value = table.get(index, start)
        before.append(value)
        table[index] = min(3, max(0, value + delta))
    return before, table


class TestCounterScan:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_clamp_walk(self, seed):
        rng = np.random.default_rng(seed)
        # One index with 5000 events (chains cross every power-of-two
        # shift up to 4096), a few busy indices, and 300 indices that
        # occur once each (single-event chains).
        indices = np.concatenate([
            np.full(5000, 7),
            rng.integers(100, 110, size=2000),
            np.arange(1000, 1300),
        ]).astype(np.int64)
        rng.shuffle(indices)
        deltas = rng.integers(-1, 2, size=indices.size).astype(np.int8)
        # The long chain moves only on its first events: a scan that
        # stopped short would lose them for every later event (random
        # deltas would saturate and hide that).
        chain = np.flatnonzero(indices == 7)
        deltas[chain[:3]] = 1
        deltas[chain[3:]] = 0
        table = rng.integers(0, 4, size=1300).astype(np.int8)
        init = table[indices]
        before, final_idx, final_val = saturating_counter_scan(
            indices, deltas, init
        )
        want_before, want_final = clamp_walk(indices, deltas, init)
        assert before.tolist() == want_before
        assert dict(zip(final_idx.tolist(), final_val.tolist())) == want_final

    def test_empty_and_single_event(self):
        empty = np.empty(0, dtype=np.int64)
        before, final_idx, final_val = saturating_counter_scan(
            empty, empty.astype(np.int8), empty
        )
        assert before.size == final_idx.size == final_val.size == 0
        before, final_idx, final_val = saturating_counter_scan(
            np.array([5]), np.array([1], dtype=np.int8), np.array([3])
        )
        assert before.tolist() == [3]
        assert (final_idx.tolist(), final_val.tolist()) == ([5], [3])

    def test_stable_order_matches_argsort(self):
        rng = np.random.default_rng(4)
        for high in (200, 1 << 16, 1 << 20, 1 << 33):
            keys = rng.integers(0, high, size=5000)
            assert np.array_equal(
                stable_order(keys), np.argsort(keys, kind="stable")
            )


class TestKernelSwitch:
    def test_run_trace_routes_both_paths(self, captured_trace):
        rows = {}
        for mode, scope in (("scalar", kernels.scalar_kernels),
                            ("vectorized", kernels.vectorized_kernels)):
            with scope():
                rows[mode] = run_trace(gshare_2kb(), captured_trace)
        assert rows["scalar"] == rows["vectorized"]

    def test_championship_bit_identical(self, captured_trace):
        with kernels.scalar_kernels():
            ref = run_championship([captured_trace])
        with kernels.vectorized_kernels():
            vec = run_championship([captured_trace])
        assert ref.results == vec.results
        assert ref.mean_mpki() == vec.mean_mpki()

    def test_env_flag_forces_scalar(self, monkeypatch):
        monkeypatch.setenv(kernels.SCALAR_ENV, "1")
        assert not kernels.vectorized_enabled()
        with kernels.vectorized_kernels():
            assert kernels.vectorized_enabled()
        monkeypatch.setenv(kernels.SCALAR_ENV, "0")
        assert kernels.vectorized_enabled()
        with kernels.scalar_kernels():
            assert not kernels.vectorized_enabled()


class TestEncoderBatchingEquivalence:
    """The vectorized encoder path against the scalar reference, for all
    five encoders: totals, and every stream the microarchitecture models
    consume — branch events, memory touches, loop summaries and the
    per-function profile — so a search-state cache that leaked between
    superblocks or frames would show here."""

    @pytest.mark.parametrize("codec,crf,preset", [
        ("svt-av1", 30, 6),
        ("x264", 28, 8),
        ("x265", 30, 4),
        ("libvpx-vp9", 30, 4),
        ("libaom", 30, 4),
        # The AV1 encoders at both CRF extremes (skip and early exits
        # fire most at high CRF) and at the exhaustive (full search,
        # R=16, compound) and fastest presets: the corners where the
        # precompute's stages gate differently.  The third frame has
        # two references, so compound candidates run.
        ("svt-av1", 10, 0),
        ("svt-av1", 10, 8),
        ("svt-av1", 60, 0),
        ("svt-av1", 60, 8),
        ("libaom", 10, 0),
        ("libaom", 10, 8),
        ("libaom", 60, 0),
        ("libaom", 60, 8),
    ])
    def test_encode_bit_identical(self, small_video, codec, crf, preset):
        with kernels.scalar_kernels():
            ref = create_encoder(codec, crf=crf, preset=preset).encode(
                small_video
            )
        with kernels.vectorized_kernels():
            vec = create_encoder(codec, crf=crf, preset=preset).encode(
                small_video
            )
        assert ref.total_bits == vec.total_bits
        assert ref.psnr_db == vec.psnr_db
        assert ref.total_instructions == vec.total_instructions
        ref_inst, vec_inst = ref.instrumenter, vec.instrumenter
        assert ref_inst.counts.counts == vec_inst.counts.counts
        assert ref_inst.branch_arrays() == vec_inst.branch_arrays()
        assert ref_inst.touch_arrays() == vec_inst.touch_arrays()
        assert ref_inst.loop_summaries == vec_inst.loop_summaries
        assert ref_inst.functions == vec_inst.functions
        assert [task.instructions for task in ref.tasks] == [
            task.instructions for task in vec.tasks
        ]
        for ref_frame, vec_frame in zip(
            ref.reconstructed.frames, vec.reconstructed.frames
        ):
            assert np.array_equal(ref_frame.y.data, vec_frame.y.data)
            assert np.array_equal(ref_frame.u.data, vec_frame.u.data)
            assert np.array_equal(ref_frame.v.data, vec_frame.v.data)


class TestLeafSetCoverage:
    """Every leaf the partition walk visits is in its superblock's
    precomputed leaf set, for every codec at slow, medium and fast
    presets and at both CRF extremes."""

    @pytest.mark.parametrize("codec", [
        "x264", "x265", "libvpx-vp9", "libaom", "svt-av1",
    ])
    @pytest.mark.parametrize("preset", [0, 4, 8])
    def test_visited_leaves_are_precomputed(
        self, small_video, monkeypatch, codec, preset
    ):
        from repro.codecs import pipeline

        legal: set = set()
        visited: list = []
        superblock_leaves = pipeline._EncodeRun._superblock_leaves
        evaluate_leaf = pipeline._EncodeRun._evaluate_leaf

        def record_legal(run, sb):
            shapes = superblock_leaves(run, sb)
            legal.clear()
            legal.update(rect for _, rects in shapes for rect in rects)
            return shapes

        def record_visit(run, rect):
            assert rect in legal, rect
            visited.append(rect)
            return evaluate_leaf(run, rect)

        monkeypatch.setattr(
            pipeline._EncodeRun, "_superblock_leaves", record_legal
        )
        monkeypatch.setattr(pipeline._EncodeRun, "_evaluate_leaf", record_visit)
        crf_range = create_encoder(codec, crf=10, preset=preset).spec.crf_range
        for crf in (10, min(60, crf_range)):
            with kernels.vectorized_kernels():
                create_encoder(codec, crf=crf, preset=preset).encode(small_video)
        assert visited


class TestStackedKernels:
    """Exact parity of the stacked RD-search kernels with the per-call
    functions they replace."""

    PLANE_SHAPE = (96, 128)

    @pytest.mark.parametrize("height", [4, 8, 16, 32, 64])
    @pytest.mark.parametrize("width", [4, 8, 16, 32, 64])
    def test_predict_stack_matches_predict(self, height, width):
        rng = np.random.default_rng(height * 100 + width)
        rows, cols = self.PLANE_SHAPE
        modes = tuple(IntraMode)
        # Frame corner and edges (128 fill), interior, and the right and
        # bottom borders (edge replication), plus coarse planes whose
        # repeated values exercise Paeth's tie-breaking.  All positions
        # are one leaf stack, so each leaf row must match its own call.
        positions = [
            (0, 0), (0, cols // 2), (rows // 2, 0), (rows // 2, cols // 2),
            (rows - height, cols - width), (rows - 4, cols - 4),
        ]
        origins = tuple(np.array(axis) for axis in zip(*positions))
        for coarse in (False, True):
            plane = rng.integers(0, 256, size=self.PLANE_SHAPE).astype(np.uint8)
            if coarse:
                plane = plane // 64 * 64
            above, left = neighbours_stack(plane, *origins, height, width)
            smooth_above = above.copy()
            smooth_above[:, 1:-1] = (
                above[:, :-2] + 2 * above[:, 1:-1] + above[:, 2:]
            ) / 4.0
            for top in (above, smooth_above):
                stack = predict_stack(modes, top, left, height, width)
                assert stack.shape == (len(positions), len(modes), height, width)
                for leaf, (row, col) in enumerate(positions):
                    for index, mode in enumerate(modes):
                        expected = predict(
                            mode, top[leaf], left[leaf], height, width
                        )
                        assert np.array_equal(stack[leaf, index], expected), (
                            mode, height, width, row, col
                        )

    def test_predict_stack_any_mode_order(self):
        rng = np.random.default_rng(3)
        plane = rng.integers(0, 256, size=self.PLANE_SHAPE).astype(np.uint8)
        above, left = extend_neighbours(plane, 16, 24, 16, 8)
        for _ in range(20):
            modes = tuple(rng.permutation(list(IntraMode))[: rng.integers(1, 14)])
            stack = predict_stack(modes, above[None], left[None], 16, 8)[0]
            for index, mode in enumerate(modes):
                assert np.array_equal(
                    stack[index], predict(mode, above, left, 16, 8)
                )

    def test_predict_stack_rejects_wrong_lengths(self):
        with pytest.raises(CodecError):
            predict_stack(
                (IntraMode.DC,), np.zeros((1, 20)), np.zeros((1, 24)), 8, 16
            )
        with pytest.raises(CodecError):
            predict_stack((IntraMode.DC,), np.zeros(24), np.zeros(24), 8, 16)

    def test_neighbours_stack_matches_extend_neighbours(self):
        rng = np.random.default_rng(5)
        plane = rng.integers(0, 256, size=(40, 48)).astype(np.uint8)
        for height, width in ((8, 8), (8, 32), (32, 8), (4, 4)):
            origins = [
                (row, col)
                for row in range(0, 40 - height + 1, 4)
                for col in range(0, 48 - width + 1, 4)
            ]
            rows, cols = (np.array(axis) for axis in zip(*origins))
            above, left = neighbours_stack(plane, rows, cols, height, width)
            for leaf, (row, col) in enumerate(origins):
                expected = extend_neighbours(plane, row, col, height, width)
                assert np.array_equal(above[leaf], expected[0]), (row, col)
                assert np.array_equal(left[leaf], expected[1]), (row, col)

    @pytest.mark.parametrize("shape", [(4, 4), (8, 8), (8, 32), (32, 16), (12, 20)])
    def test_satd_batch_matches_satd(self, shape):
        rng = np.random.default_rng(shape[0] * 7 + shape[1])
        residuals = rng.integers(-255, 256, size=(3, 5) + shape)
        scores = satd_batch(residuals)
        assert scores.shape == (3, 5)
        for leaf in range(3):
            for index in range(5):
                assert scores[leaf, index] == satd(residuals[leaf, index])

    @pytest.mark.parametrize("size", [4, 8, 16, 32])
    def test_transform_stacks_match_per_type_calls(self, size):
        rng = np.random.default_rng(size)
        tx_types = TX_TYPES
        blocks = rng.normal(0, 40, size=(5, 32, 64))
        coeffs = forward_tx_stack(tile_stack(blocks, size), tx_types)
        back = inverse_tx_stack(coeffs, tx_types)
        for leaf in range(len(blocks)):
            tiles = tile_block(blocks[leaf], size)
            for index, tx_type in enumerate(tx_types):
                expected = forward_tx_batch(tiles, tx_type)
                assert np.array_equal(coeffs[leaf, index], expected)
                assert np.array_equal(
                    back[leaf, index], inverse_tx_batch(expected, tx_type)
                )

    @pytest.mark.parametrize("coarse", [False, True])
    def test_sad_volume_matches_per_block_search(self, coarse):
        # Superblocks at the frame corners and interior, every leaf
        # shape of a 32x32 superblock; a coarse plane makes many SADs
        # tie, pinning full search's argmin and improvement order.
        rng = np.random.default_rng(11)
        src = rng.integers(0, 256, size=(96, 128)).astype(np.uint8)
        ref = rng.integers(0, 256, size=(96, 128)).astype(np.uint8)
        if coarse:
            src, ref = src // 128 * 128, ref // 128 * 128
        radius = 12
        leaves = [(0, 0, 32, 32), (8, 0, 8, 32), (0, 24, 32, 8),
                  (16, 16, 16, 16), (8, 8, 8, 8), (0, 16, 16, 8)]
        for sb_row, sb_col in ((0, 0), (32, 64), (64, 96)):
            volume = SadVolume(src, ref, sb_row, sb_col, 32, radius, 8)
            for dr, dc, height, width in leaves:
                row, col = sb_row + dr, sb_col + dc
                block = src[row : row + height, col : col + width]
                sads = volume.leaf_sads(row, col, height, width)
                full = full_search(block, ref, row, col, radius)
                assert full_search_sads(sads, radius) == full
                for start in (ZERO_MV, MotionVector(-40, 24), MotionVector(200, -9)):
                    assert diamond_search_sads(
                        sads, radius, start=start
                    ) == diamond_search(block, ref, row, col, radius, start=start)

    def test_sad_volume_rejects_bad_cells(self):
        plane = np.zeros((32, 32), dtype=np.uint8)
        with pytest.raises(CodecError):
            SadVolume(plane, plane, 0, 0, 32, 4, 6)

    def test_extend_neighbours_replicates_edges(self):
        rng = np.random.default_rng(4)
        plane = rng.integers(0, 256, size=(40, 48)).astype(np.uint8)
        for row, col, height, width in ((8, 40, 8, 8), (32, 8, 8, 16), (36, 44, 4, 4)):
            above, left = extend_neighbours(plane, row, col, height, width)
            need = width + height
            top = plane[row - 1, col : col + need].astype(np.float64)
            side = plane[row : row + need, col - 1].astype(np.float64)
            assert np.array_equal(
                above, np.pad(top, (0, need - top.size), mode="edge")
            )
            assert np.array_equal(
                left, np.pad(side, (0, need - side.size), mode="edge")
            )

    @pytest.mark.parametrize("kind", ["random", "zero", "large"])
    @pytest.mark.parametrize("size", [4, 8, 16, 32])
    def test_integer_rate_model_matches_float_model(self, kind, size):
        rng = np.random.default_rng(size)
        for _ in range(10):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 9)), size, size)
            if kind == "zero":
                levels = np.zeros(shape, dtype=np.int32)
            elif kind == "random":
                levels = rng.integers(-6, 7, size=shape) * (
                    rng.random(shape) < 0.3
                )
            else:
                levels = rng.integers(-(2**30), 2**30, size=shape) * (
                    rng.random(shape) < 0.6
                )
            levels = levels.astype(np.int32)
            expected = [fast_rate_estimate_batch(group) for group in levels]
            flat = levels.reshape(1, shape[0], -1)
            assert rate_estimate_groups(flat, (size,)) == expected

    def test_integer_rate_model_mixed_tile_sizes(self):
        # One row per tile size over the same 32x32 area, as the fused
        # transform search lays them out.
        rng = np.random.default_rng(9)
        sizes, groups, pixels = (32, 16, 8, 4), 3, 32 * 32
        levels = (
            rng.integers(-9, 10, size=(len(sizes), groups, pixels))
            * (rng.random((len(sizes), groups, pixels)) < 0.2)
        ).astype(np.int32)
        expected = [
            fast_rate_estimate_batch(levels[row, group].reshape(-1, size, size))
            for row, size in enumerate(sizes)
            for group in range(groups)
        ]
        assert rate_estimate_groups(levels, sizes) == expected

    def test_coefficient_coder_stream_matches_scalar(self):
        # The fast coder batches its range-coder calls per block (with
        # literal escapes in between): same bytes, costs and contexts.
        rng = np.random.default_rng(6)
        blocks = [
            (rng.integers(-40, 41, size=(size, size))
             * (rng.random((size, size)) < 0.3)).astype(np.int32)
            for size in rng.choice([4, 8, 16], size=40)
        ]
        runs = []
        for scope in (kernels.scalar_kernels, kernels.vectorized_kernels):
            encoder, contexts = BoolEncoder(), ContextSet()
            coder = CoefficientCoder(contexts, encoder)
            with scope():
                costs = [coder.code_block(block, "t") for block in blocks]
            probs = {name: ctx.prob for name, ctx in contexts._contexts.items()}
            runs.append((costs, encoder.finish(), probs))
        assert runs[0] == runs[1]

    def test_integer_rate_model_rejects_bad_shape(self):
        with pytest.raises(CodecError):
            rate_estimate_groups(np.zeros((2, 8, 8), dtype=np.int32), (8,))
        with pytest.raises(CodecError):
            rate_estimate_groups(np.zeros((1, 2, 40), dtype=np.int32), (8,))


class TestStreamChunkEnv:
    """REPRO_REPLAY_CHUNK parsing: validate once, never crash a sweep."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self, monkeypatch):
        monkeypatch.setattr(kernels, "_chunk_env_cache", {})

    def test_unset_and_valid_values(self, monkeypatch):
        monkeypatch.delenv(kernels.CHUNK_ENV, raising=False)
        assert kernels.stream_chunk_events() == kernels.DEFAULT_STREAM_CHUNK
        monkeypatch.setenv(kernels.CHUNK_ENV, "4096")
        assert kernels.stream_chunk_events() == 4096
        # 0 stays the documented "disable chunking" spelling.
        monkeypatch.setenv(kernels.CHUNK_ENV, "0")
        assert kernels.stream_chunk_events() == 0

    def test_garbage_falls_back_and_warns_once(self, monkeypatch):
        from repro.obs import events as events_mod

        log = events_mod.EventLog()
        previous = events_mod.install_log(log)
        try:
            monkeypatch.setenv(kernels.CHUNK_ENV, "banana")
            for _ in range(3):
                assert (
                    kernels.stream_chunk_events()
                    == kernels.DEFAULT_STREAM_CHUNK
                )
        finally:
            events_mod.install_log(previous)
        # Memoised per raw value: one warning, not one per kernel call.
        warnings = log.by_kind("kernel.chunk.invalid")
        assert len(warnings) == 1
        assert warnings[0].fields["raw"] == "banana"

    def test_negative_no_longer_means_unbounded(self, monkeypatch):
        # The old parser clamped -1 to 0 == "disable chunking": a typo
        # silently removed the memory bound. Now it's default + warning.
        monkeypatch.setenv(kernels.CHUNK_ENV, "-1")
        assert kernels.stream_chunk_events() == kernels.DEFAULT_STREAM_CHUNK

    def test_scoped_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(kernels.CHUNK_ENV, "banana")
        with kernels.stream_chunk(64):
            assert kernels.stream_chunk_events() == 64
