"""Binary range (arithmetic) coder.

A carry-handling binary range coder in the LZMA/VP8-bool-coder family:
32-bit range, byte-at-a-time renormalisation, 8-bit probabilities.  The
encoder produces the actual bitstream bytes of our codec models, so the
bitrates the experiments report come from real entropy-coded output
rather than an analytic estimate; the decoder exists to prove streams
are self-consistent (round-trip tests) and to support the decode path.

Probabilities are expressed as ``P(bit == 0)`` in ``[1, 255]`` out of
256.
"""

from __future__ import annotations

from typing import Sequence

from ...errors import CodecError

_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF


def _check_prob(prob: int) -> None:
    if not 1 <= prob <= 255:
        raise CodecError(f"probability {prob} outside [1, 255]")


class BoolEncoder:
    """Binary range encoder with LZMA-style carry propagation."""

    def __init__(self) -> None:
        self._low = 0
        self._range = _MASK32
        self._cache = 0
        self._cache_size = 1
        self._buffer = bytearray()
        self._finished = False

    def _shift_low(self) -> None:
        if self._low < 0xFF000000 or self._low > _MASK32:
            carry = self._low >> 32
            out = self._cache
            while True:
                self._buffer.append((out + carry) & 0xFF)
                out = 0xFF
                self._cache_size -= 1
                if self._cache_size == 0:
                    break
            self._cache = (self._low >> 24) & 0xFF
        self._cache_size += 1
        self._low = (self._low << 8) & _MASK32

    def encode(self, bit: int, prob: int = 128) -> None:
        """Encode one bit with ``P(bit == 0) = prob / 256``."""
        self.encode_many((bit,), (prob,))

    def encode_many(self, bits: Sequence[int], probs: Sequence[int]) -> None:
        """:meth:`encode` each ``(bit, prob)`` pair in order, with the
        coder state held in locals for the whole run."""
        if self._finished:
            raise CodecError("encoder already finished")
        low, span = self._low, self._range
        for bit, prob in zip(bits, probs):
            if not 1 <= prob <= 255:
                self._low, self._range = low, span
                _check_prob(prob)
            bound = (span >> 8) * prob
            if bit:
                low += bound
                span -= bound
            else:
                span = bound
            while span < _TOP:
                span = (span << 8) & _MASK32
                self._low = low
                self._shift_low()
                low = self._low
        self._low, self._range = low, span

    def encode_literal(self, value: int, bits: int) -> None:
        """Encode ``bits`` raw bits of ``value`` MSB-first at p = 1/2."""
        if bits < 0 or value < 0 or value >= 1 << max(bits, 1):
            raise CodecError(f"literal {value} does not fit in {bits} bits")
        self.encode_many(
            [(value >> shift) & 1 for shift in range(bits - 1, -1, -1)],
            [128] * bits,
        )

    def finish(self) -> bytes:
        """Flush and return the complete bitstream."""
        if not self._finished:
            for _ in range(5):
                self._shift_low()
            self._finished = True
        return bytes(self._buffer)

    @property
    def bytes_emitted(self) -> int:
        """Bytes emitted so far (grows as encoding renormalises)."""
        return len(self._buffer)


class BoolDecoder:
    """Decoder matching :class:`BoolEncoder`."""

    def __init__(self, data: bytes) -> None:
        if len(data) < 5:
            raise CodecError("range-coded stream must be at least 5 bytes")
        self._data = data
        self._pos = 1  # first byte is always zero padding from the encoder
        self._range = _MASK32
        self._code = 0
        for _ in range(4):
            self._code = (self._code << 8) | self._next_byte()

    def _next_byte(self) -> int:
        byte = self._data[self._pos] if self._pos < len(self._data) else 0
        self._pos += 1
        return byte

    def decode(self, prob: int = 128) -> int:
        """Decode one bit coded with ``P(bit == 0) = prob / 256``."""
        _check_prob(prob)
        bound = (self._range >> 8) * prob
        if self._code < bound:
            bit = 0
            self._range = bound
        else:
            bit = 1
            self._code -= bound
            self._range -= bound
        while self._range < _TOP:
            self._range = (self._range << 8) & _MASK32
            self._code = ((self._code << 8) | self._next_byte()) & _MASK32
        return bit

    def decode_literal(self, bits: int) -> int:
        """Decode ``bits`` raw bits MSB-first."""
        value = 0
        for _ in range(bits):
            value = (value << 1) | self.decode(128)
        return value
