"""Quantisation and the CRF/QP/qindex mapping.

All five encoders expose a CRF-style quality knob that ultimately
selects a quantiser step size.  Internally we normalise every codec's
CRF range onto a shared 8-bit *qindex* (AV1 terminology) and derive the
step size exponentially, which matches both the H.264/HEVC QP law
(step doubles every 6 QP) and AV1's quantiser table shape.

The paper's CRF conventions (§3.3):

- libaom / SVT-AV1 / libvpx-vp9: CRF 0–63, higher = lower quality;
- x264 / x265: CRF 0–51, higher = lower quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import CodecError

#: qindex range shared by all codec models.
MAX_QINDEX = 255

#: Step size at qindex 0 (near-lossless).
_BASE_STEP = 2.4

#: qindex increase that doubles the step size.  Calibrated (with
#: ``_BASE_STEP``) so the shared qindex scale spans the realistic 8-bit
#: quantiser range: ~4 at CRF 10 (PSNR in the high 40s dB) to ~40 at
#: CRF 63 (high-20s dB), matching the quality spans in the paper's
#: Fig. 2/11.
_QINDEX_PER_OCTAVE = 62.0


def qindex_to_step(qindex: int) -> float:
    """Quantiser step size for a qindex in ``[0, MAX_QINDEX]``."""
    if not 0 <= qindex <= MAX_QINDEX:
        raise CodecError(f"qindex {qindex} outside [0, {MAX_QINDEX}]")
    return _BASE_STEP * 2.0 ** (qindex / _QINDEX_PER_OCTAVE)


def crf_to_qindex(crf: float, crf_range: int) -> int:
    """Map a codec CRF (0..crf_range) onto the shared qindex scale."""
    if crf_range <= 0:
        raise CodecError(f"crf_range must be positive, got {crf_range}")
    if not 0 <= crf <= crf_range:
        raise CodecError(f"CRF {crf} outside [0, {crf_range}]")
    return round(crf / crf_range * MAX_QINDEX)


@dataclass(frozen=True)
class Quantizer:
    """Uniform dead-zone quantiser with a finer DC step.

    Parameters
    ----------
    step:
        AC quantiser step size (> 0).
    deadzone:
        Dead-zone fraction: values within ``deadzone * step`` of zero
        quantise to zero.  Encoders use ~1/3 for inter blocks.
    dc_ratio:
        DC step as a fraction of the AC step.  Every studied codec
        quantises DC more finely than AC (AV1's dc_q < ac_q; H.264's DC
        Hadamard path) — without this, block-average drift compounds
        across inter frames at high CRF.
    """

    step: float
    deadzone: float = 1.0 / 3.0
    dc_ratio: float = 0.4

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise CodecError(f"quantiser step must be positive, got {self.step}")
        if not 0.0 <= self.deadzone < 1.0:
            raise CodecError(f"deadzone {self.deadzone} outside [0, 1)")
        if not 0.0 < self.dc_ratio <= 1.0:
            raise CodecError(f"dc_ratio {self.dc_ratio} outside (0, 1]")

    @property
    def dc_step(self) -> float:
        """Step size applied to each transform block's DC coefficient."""
        return self.step * self.dc_ratio

    def quantize(
        self, coeffs: np.ndarray, dc: np.ndarray | None = None
    ) -> np.ndarray:
        """Quantise transform coefficients to integer levels.

        Accepts a single ``(s, s)`` block or an ``(n, s, s)`` stack;
        position ``[..., 0, 0]`` is treated as DC (finer step, no
        dead zone).  For any other layout of a contiguous array, ``dc``
        gives the flat indices of the DC coefficients instead.
        """
        scaled = coeffs / self.step
        signs = np.sign(scaled)
        mags = np.abs(scaled)
        # The +(1 - deadzone) bias already floors sub-deadzone magnitudes
        # to level 0 (mags < deadzone implies the argument is below 1), so
        # no explicit dead-zone mask is needed.
        levels = np.floor(mags + (1.0 - self.deadzone))
        out = (signs * levels).astype(np.int32)
        if dc is None:
            out[..., 0, 0] = np.rint(coeffs[..., 0, 0] / self.dc_step).astype(
                np.int32
            )
        else:
            out.reshape(-1)[dc] = np.rint(
                coeffs.reshape(-1)[dc] / self.dc_step
            ).astype(np.int32)
        return out

    def dequantize(
        self, levels: np.ndarray, dc: np.ndarray | None = None
    ) -> np.ndarray:
        """Reconstruct coefficient values from integer levels (``dc`` as
        in :meth:`quantize`)."""
        out = levels * self.step
        if dc is None:
            out[..., 0, 0] = levels[..., 0, 0] * self.dc_step
        else:
            out.reshape(-1)[dc] = levels.reshape(-1)[dc] * self.dc_step
        return out


def rd_lambda(step: float) -> float:
    """RD Lagrange multiplier for a quantiser step.

    The classic high-rate approximation lambda = c * Qstep^2 (the same
    law x264/x265/libaom use, up to the constant).
    """
    if step <= 0:
        raise CodecError(f"step must be positive, got {step}")
    return 0.57 * step * step


def qindex_for_target_bpp(bits_per_pixel: float) -> int:
    """Rough inverse rate model: pick a qindex for a target bpp.

    Used by the two-pass rate-control extension; the CRF path does not
    need it.  Follows an R = a * Qstep^-1 model.
    """
    if bits_per_pixel <= 0:
        raise CodecError("target bits-per-pixel must be positive")
    step = min(max(0.08 / bits_per_pixel, _BASE_STEP), qindex_to_step(MAX_QINDEX))
    qindex = round(_QINDEX_PER_OCTAVE * math.log2(step / _BASE_STEP))
    return int(min(max(qindex, 0), MAX_QINDEX))
