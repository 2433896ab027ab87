"""The generic instrumented encode pipeline.

One RD-search engine drives all five encoder models.  A codec's
:class:`~repro.codecs.base.CodecSpec` declares *what* may be searched
(partition vocabulary, mode set, superblock geometry) and the active
:class:`~repro.codecs.base.PresetProfile` declares *how much* of it is
searched; the pipeline then actually performs the search on real pixel
data — motion estimation over multiple reference frames, inter-mode
candidate lists, intra prediction, transform-size search with
transform/quantise/reconstruct round trips, interpolation-filter
search, and adaptive arithmetic coding of the chosen syntax — charging
every kernel invocation, decision branch and memory touch to the
instrumentation layer.

This is where the paper's headline result comes from mechanically: an
AV1-family profile evaluates more partition shapes, more reference
frames, more inter-mode candidates, more transform configurations and
more interpolation filters per block than an H.264-family profile, so
it charges proportionally more instructions for the same frame, while
per-candidate microarchitectural behaviour stays similar.

Early termination — the mechanism behind the paper's CRF trends — is
driven by *prediction residual energy versus the quantiser step*: at
high CRF most residuals vanish under quantisation, so candidates are
indistinguishable and the search exits after the first acceptable one;
at low CRF almost every refinement still pays for itself (DESIGN.md
§5).
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .. import kernels
from ..obs.span import trace_span
from ..trace.instrument import Instrumenter, PlaneHandle
from ..video.frame import Frame, Video
from ..video.metrics import frame_psnr, sequence_psnr
from .base import (
    CodecSpec,
    Encoder,
    EncodeResult,
    EncoderConfig,
    FrameStats,
    TaskRecord,
)
from .blocks import BlockRect, PartitionType, legal_partitions, sub_blocks
from .entropy.arithmetic import BoolEncoder
from .entropy.cdf import ContextSet, signed_exp_golomb_bits
from .entropy.coefcode import (
    CoefficientCoder,
    fast_rate_estimate_batch,
    rate_estimate_groups,
)
from .motion import (
    ZERO_MV,
    MotionVector,
    SadVolume,
    SearchResult,
    diamond_search,
    diamond_search_sads,
    full_search,
    full_search_sads,
    interpolate,
    interpolate_stack,
    mv_bits,
    subpel_refine,
    subpel_refine_stack,
)
from .predict import (
    IntraMode,
    extend_neighbours,
    neighbours_stack,
    predict,
    predict_stack,
)
from .quant import Quantizer, crf_to_qindex, qindex_to_step, rd_lambda
from .transform import (
    TRANSFORM_SIZES,
    TX_TYPES,
    forward_tx_batch,
    forward_tx_stack,
    inverse_tx_batch,
    inverse_tx_stack,
    satd,
    satd_batch,
    tile_block,
    tile_stack,
    untile_block,
    untile_stack,
)

#: Flat rate estimates (bits) for non-coefficient syntax during search.
_PARTITION_SIGNAL_BITS = 2.5
_MODE_SIGNAL_BITS = 3.5
_SKIP_SIGNAL_BITS = 1.0

#: How many reconstructed frames are kept as references.
_MAX_REF_FRAMES = 3


@dataclass
class TransformChoice:
    """Outcome of the transform-size/type search for one residual block."""

    tx_size: int
    tx_type: str
    sse: float
    bits: float
    recon_residual: np.ndarray
    levels: np.ndarray  # (n_tiles, tx, tx) quantised levels


@dataclass
class LeafPlan:
    """Chosen coding for one leaf block."""

    rect: BlockRect
    is_inter: bool
    mode: IntraMode | None
    mv: MotionVector
    mv_predictor: MotionVector
    ref_index: int
    interp_filter: int
    skip: bool
    cost: float
    pred_error: float = 0.0


@dataclass
class _TxStack:
    """Transform-RD results of a stack of same-shape residuals.

    Row ``i`` of each per-residual list holds residual ``i``'s value
    for every (size, type) candidate, in search order; ``recon`` is
    ``(S, L, T, h, w)`` and ``levels`` ``(S, L * T, P)``.  ``chosen``
    is each residual's (sse, bits) pick, for the precompute's gating.
    """

    candidates: tuple[tuple[int, int, int, str], ...]
    bits: list[list[float]]
    sse: list[list[float]]
    cbf: list[list[bool]]
    chosen: list[tuple[float, float]]
    energy: list[float]
    recon: np.ndarray
    levels: np.ndarray

    def choice(self, index: int, group: int) -> TransformChoice:
        size_idx, tx, type_idx, tx_type = self.candidates[group]
        types = self.recon.shape[2]
        return TransformChoice(
            tx_size=tx, tx_type=tx_type, sse=self.sse[index][group],
            bits=self.bits[index][group],
            recon_residual=self.recon[size_idx, index, type_idx],
            levels=self.levels[size_idx, index * types + type_idx].reshape(
                -1, tx, tx
            ),
        )


@dataclass
class _LeafResults:
    """One superblock's precomputed per-leaf search results (the
    vectorized path's stage 1; see :meth:`_EncodeRun._precompute`).

    ``tx`` maps a candidate key — ``("intra", rect, mode)``,
    ``("inter", rect, mv, ref)`` or ``("comp", rect, index)`` — to its
    ``(stack, row)``; ``pending`` holds residuals awaiting the next
    stacked transform-RD pass, grouped by shape.
    """

    satd: dict[BlockRect, tuple[list[float], dict[int, float]]] = field(
        default_factory=dict
    )
    skip_sse: dict[BlockRect, float] = field(default_factory=dict)
    filter_errs: dict[tuple, list[float]] = field(default_factory=dict)
    search: dict[tuple, tuple[SearchResult, SearchResult]] = field(
        default_factory=dict
    )
    tx: dict[tuple, tuple[_TxStack, int]] = field(default_factory=dict)
    pending: dict[tuple[int, int], list[tuple[tuple, np.ndarray]]] = field(
        default_factory=dict
    )

    def request(self, key: tuple, residual: np.ndarray) -> None:
        self.pending.setdefault(residual.shape, []).append((key, residual))


class _LeafState:
    """The inter decision state the precompute tracks per leaf, to gate
    each stage exactly as the walk will decide."""

    __slots__ = ("cost", "mv", "ref", "filt", "predictor", "src")

    def __init__(
        self, cost: float, predictor: MotionVector, src: np.ndarray
    ) -> None:
        self.cost = cost
        self.mv = predictor
        self.ref = 0
        self.filt = 0
        self.predictor = predictor
        self.src = src


@dataclass
class PartitionPlan:
    """Chosen partitioning of a square block."""

    rect: BlockRect
    partition: PartitionType
    children: list["PartitionPlan | LeafPlan"] = field(default_factory=list)
    cost: float = 0.0


def _pad_to_multiple(data: np.ndarray, multiple: int) -> np.ndarray:
    h, w = data.shape
    ph = (multiple - h % multiple) % multiple
    pw = (multiple - w % multiple) % multiple
    if ph or pw:
        return np.pad(data, ((0, ph), (0, pw)), mode="edge")
    return data


@functools.lru_cache(maxsize=None)
def _tx_sizes(height: int, width: int, depth: int) -> tuple[int, ...]:
    """Square transform sizes a ``depth``-deep TX search tries on a
    ``height x width`` block, largest first."""
    base = min(height, width, 32)
    if base not in TRANSFORM_SIZES:
        base = max(s for s in TRANSFORM_SIZES if s <= base)
    sizes = []
    size = base
    while size >= 4 and len(sizes) < depth:
        if height % size == 0 and width % size == 0:
            sizes.append(size)
        size //= 2
    return tuple(sizes) or (base,)


@functools.lru_cache(maxsize=None)
def _tx_candidates(
    sizes: tuple[int, ...], tx_types: tuple[str, ...]
) -> tuple[tuple[int, int, int, str], ...]:
    """(size index, size, type index, type) of every transform
    candidate, in search order."""
    return tuple(
        (size_idx, tx, type_idx, tx_type)
        for size_idx, tx in enumerate(sizes)
        for type_idx, tx_type in enumerate(tx_types)
    )


@functools.lru_cache(maxsize=None)
def _dc_positions(sizes: tuple[int, ...], count: int, pixels: int) -> np.ndarray:
    """Flat DC indices of a ``(len(sizes), count, pixels)`` coefficient
    stack whose row ``k`` holds ``count`` raster-ordered tilings by
    ``sizes[k]``-square tiles."""
    positions = np.concatenate([
        (row * count + group) * pixels + np.arange(0, pixels, size * size)
        for row, size in enumerate(sizes)
        for group in range(count)
    ])
    positions.setflags(write=False)
    return positions


def _to_pixels(values: np.ndarray) -> np.ndarray:
    """Round float samples to uint8 pixels (``clip(rint(x), 0, 255)``)."""
    out = np.rint(values)
    np.maximum(out, 0, out=out)
    np.minimum(out, 255, out=out)
    return out.astype(np.uint8)


def _smooth_edge(samples: np.ndarray) -> np.ndarray:
    """AV1's intra edge filter: a [1, 2, 1] / 4 low-pass over the inner
    neighbour samples (of each row of a leaf stack).  Directional
    modes are also evaluated against the filtered neighbours."""
    out = samples.copy()
    out[..., 1:-1] = (
        samples[..., :-2] + 2 * samples[..., 1:-1] + samples[..., 2:]
    ) / 4.0
    return out


def _by_shape(rects: Iterable[BlockRect]) -> dict[tuple[int, int], list[BlockRect]]:
    """``rects`` grouped by block shape, in order."""
    groups: dict[tuple[int, int], list[BlockRect]] = {}
    for rect in rects:
        groups.setdefault((rect.height, rect.width), []).append(rect)
    return groups


def _filtered_predictions(pred: np.ndarray, count: int) -> list[np.ndarray]:
    """The first ``count`` MC filter outputs of a float64 prediction, or
    of each block of an ``(..., h, w)`` stack of them.

    Filter 0 is the base interpolator; 1 ("smooth") low-passes the
    prediction; 2 ("sharp") adds a mild unsharp mask — the
    regular/smooth/sharp switchable filters of VP9/AV1.
    """
    outputs = [pred.astype(np.uint8)]
    if count > 1:
        # Slice-assembled circular shifts within each block: same
        # wrap-around semantics (and the same operand order, hence
        # bit-identical sums) as four np.roll calls, without their
        # per-call indexing overhead.
        down = np.empty_like(pred)
        down[..., 0, :] = pred[..., -1, :]
        down[..., 1:, :] = pred[..., :-1, :]
        up = np.empty_like(pred)
        up[..., -1, :] = pred[..., 0, :]
        up[..., :-1, :] = pred[..., 1:, :]
        right = np.empty_like(pred)
        right[..., 0] = pred[..., -1]
        right[..., 1:] = pred[..., :-1]
        left = np.empty_like(pred)
        left[..., -1] = pred[..., 0]
        left[..., :-1] = pred[..., 1:]
        blurred = (pred + down + up + right + left) / 5.0
        outputs.append(_to_pixels(blurred))
        if count > 2:
            sharp = 2.0 * pred - blurred
            np.maximum(sharp, 0, out=sharp)
            np.minimum(sharp, 255, out=sharp)
            outputs.append(_to_pixels(sharp))
    return outputs


class PipelineEncoder(Encoder):
    """The shared encode engine; codec modules subclass only to bind a
    spec (see e.g. :mod:`repro.codecs.av1`)."""

    def encode(
        self,
        video: Video,
        instrumenter: Instrumenter | None = None,
        footprint_scale: tuple[float, float] = (1.0, 1.0),
    ) -> EncodeResult:
        """Encode ``video`` and return the instrumented result.

        ``footprint_scale`` is the (height, width) proxy-to-native
        ratio; memory touches are scaled by it so the cache simulator
        sees the original clip's data footprint (DESIGN.md §2).
        """
        inst = instrumenter if instrumenter is not None else Instrumenter()
        run = _EncodeRun(self.spec, self.config, video, inst, footprint_scale)
        return run.execute()


class _EncodeRun:
    """State for one encode (frames, planes, contexts, statistics)."""

    def __init__(
        self,
        spec: CodecSpec,
        config: EncoderConfig,
        video: Video,
        inst: Instrumenter,
        footprint_scale: tuple[float, float],
    ) -> None:
        self.spec = spec
        self.config = config
        self.video = video
        self.inst = inst
        self.profile = spec.profile(config.preset)

        qindex = crf_to_qindex(config.crf, spec.crf_range)
        self.step = qindex_to_step(qindex)
        self.lam = rd_lambda(self.step)
        self.quant = Quantizer(step=self.step)

        self.sb = spec.superblock
        # Per-pixel MC interpolation cost scales with filter length
        # (baseline kernel cost is calibrated for a 4-tap filter).
        self.mc_cost = spec.interp_taps / 4.0
        # Kernel path, resolved once per encode (see repro.kernels).
        self.vectorized = kernels.vectorized_enabled()
        self.tx_types = tuple(TX_TYPES[: self.profile.tx_types])
        # Intra modes ranked for the inter-frame intra fallback.
        self.fallback_modes = max(1, self.profile.intra_mode_count // 2)
        self.leaf_layout = self._leaf_layout()
        # Branch sites the search loops hit on every candidate,
        # interned once instead of formatted per call.
        family, site = spec.family, inst.site
        self.site_tx_cbf = site(f"{family}.tx.cbf")
        self.site_tx_improve = site(f"{family}.tx.cand.improve")
        self.site_mode_improve = [
            site(f"{family}.md.mode{index}.improve")
            for index in range(len(spec.intra_modes))
        ]
        self.site_edgefilter = site(f"{family}.md.edgefilter.improve")
        self.site_satd_rowloop = site(f"{family}.satd.rowloop")
        self.site_mode_exit = site(f"{family}.md.mode_exit")
        self.site_sad_improve = [
            site(f"{family}.sad.improve{slot}") for slot in range(8)
        ]
        self.site_filt_improve = [
            site(f"{family}.md.filt{filt}.improve") for filt in range(3)
        ]
        scale_h, scale_w = footprint_scale
        self.src_plane: PlaneHandle = inst.register_plane(
            video.width, scale_h, scale_w
        )
        self.ref_planes: list[PlaneHandle] = [
            inst.register_plane(video.width, scale_h, scale_w)
            for _ in range(_MAX_REF_FRAMES)
        ]
        self.rec_plane: PlaneHandle = inst.register_plane(
            video.width, scale_h, scale_w
        )

        self.contexts = ContextSet()
        self.recon_frames: list[Frame] = []
        self.frame_stats: list[FrameStats] = []
        self.tasks: list[TaskRecord] = []
        self.total_bits = 0.0

        # Per-frame mutable state.
        self.src: np.ndarray | None = None
        self.recon: np.ndarray | None = None
        self.refs: list[np.ndarray] = []  # most recent first
        self.is_inter_frame = False
        self.mv_field: dict[tuple[int, int], MotionVector] = {}
        self.coder: CoefficientCoder | None = None
        self.bool_encoder: BoolEncoder | None = None
        self.frame_symbol_count = 0
        # Leaf decisions of the current superblock's walk, shared between
        # partition shapes that produce the same sub-rectangle.
        self._leaf_cache: dict[BlockRect, tuple[float, LeafPlan]] = {}
        # The vectorized path's per-leaf kernel results for the current
        # superblock (None on the scalar path).  ``self.recon`` and
        # ``self.mv_field`` only change in ``_apply_plan``, after the
        # superblock's search, so they stay valid for its whole walk.
        self._leaf_results: _LeafResults | None = None
        self._chroma_planes: dict[str, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def execute(self) -> EncodeResult:
        for frame in self.video:
            with trace_span(
                "stage.frame", codec=self.spec.name, frame=frame.index,
            ):
                self._encode_frame(frame)
        recon_video = Video(
            self.recon_frames, fps=self.video.fps, name=self.video.name
        )
        psnr = sequence_psnr(self.video, recon_video)
        return EncodeResult(
            codec=self.spec.name,
            config=self.config,
            video_name=self.video.name,
            width=self.video.width,
            height=self.video.height,
            num_frames=self.video.num_frames,
            fps=self.video.fps,
            total_bits=self.total_bits,
            psnr_db=psnr,
            reconstructed=recon_video,
            instrumenter=self.inst,
            frame_stats=self.frame_stats,
            tasks=self.tasks,
        )

    def _frame_is_key(self, index: int) -> bool:
        interval = self.config.keyframe_interval
        if index == 0:
            return True
        return interval > 0 and index % interval == 0

    def _encode_frame(self, frame: Frame) -> None:
        inst = self.inst
        start_instr = inst.total_instructions
        self.is_inter_frame = not self._frame_is_key(frame.index)
        if not self.is_inter_frame:
            self.contexts.reset()
            self.mv_field.clear()
            self.refs.clear()

        self.src = _pad_to_multiple(frame.y.data, self.sb).astype(np.uint8)
        self.recon = np.full_like(self.src, 128)
        self.bool_encoder = BoolEncoder()
        self.coder = CoefficientCoder(self.contexts, self.bool_encoder)
        self.frame_symbol_count = 0
        frame_bits = 0.0

        height, width = self.src.shape
        sb_index = 0
        with trace_span(
            "stage.superblocks",
            frame=frame.index,
            rows=(height + self.sb - 1) // self.sb,
        ):
            for row in range(0, height, self.sb):
                for col in range(0, width, self.sb):
                    sb_start = inst.total_instructions
                    rect = BlockRect(row, col, self.sb, self.sb)
                    # Leaf evaluations are shared between partition
                    # shapes that produce the same sub-rectangle (e.g.
                    # SPLIT's quadrants and HORZ_A's squares), exactly
                    # as real encoders reuse mode-decision results.
                    self._leaf_cache = {}
                    if self.vectorized:
                        self._precompute(rect)
                    with inst.function(
                        f"{self.spec.family}.encode_superblock"
                    ):
                        plan = self._search_partition(rect, depth=0)
                        frame_bits += self._apply_plan(plan)
                        frame_bits += self._code_chroma_block(frame, rect)
                    self.tasks.append(
                        TaskRecord(
                            frame=frame.index,
                            kind="superblock",
                            index=sb_index,
                            instructions=inst.total_instructions - sb_start,
                            row=row,
                            col=col,
                        )
                    )
                    sb_index += 1

        frame_bits += self._finish_frame(frame)
        frame_bits *= self.spec.bitstream_efficiency
        self.total_bits += frame_bits

        crop = self.recon[: frame.height, : frame.width]
        recon_frame = Frame(
            crop.copy(),
            self._chroma_recon("u").copy(),
            self._chroma_recon("v").copy(),
            index=frame.index,
        )
        self.recon_frames.append(recon_frame)
        self.frame_stats.append(
            FrameStats(
                index=frame.index,
                frame_type="inter" if self.is_inter_frame else "key",
                bits=frame_bits,
                psnr_db=frame_psnr(frame, recon_frame),
                instructions=inst.total_instructions - start_instr,
            )
        )
        # The reconstruction joins the reference list (most recent first).
        self.refs.insert(0, self.recon)
        del self.refs[_MAX_REF_FRAMES:]

    def _finish_frame(self, frame: Frame) -> float:
        """Loop filter, stream flush and per-frame admin work."""
        inst = self.inst
        filter_start = inst.total_instructions
        with trace_span("stage.loop_filter", frame=frame.index), \
                inst.function(f"{self.spec.family}.loop_filter"):
            self._loop_filter()
        self.tasks.append(
            TaskRecord(
                frame=frame.index,
                kind="filter",
                index=0,
                instructions=inst.total_instructions - filter_start,
            )
        )
        admin_start = inst.total_instructions
        with trace_span("stage.frame_admin", frame=frame.index), \
                inst.function(f"{self.spec.family}.frame_admin"):
            pixels = self.src.size
            inst.kernel("frame_admin", pixels)
            inst.touch(self.src_plane, 0, self.src.shape[0], 0,
                       self.src.shape[1], write=False)
        self.tasks.append(
            TaskRecord(
                frame=frame.index,
                kind="admin",
                index=0,
                instructions=inst.total_instructions - admin_start,
            )
        )
        # Flush the arithmetic coder; header overhead per frame.
        stream = self.bool_encoder.finish()
        entropy_start = inst.total_instructions
        with trace_span("stage.entropy_flush", frame=frame.index), \
                inst.function(f"{self.spec.family}.entropy_flush"):
            inst.kernel("entropy_bin", self.frame_symbol_count)
        self.tasks.append(
            TaskRecord(
                frame=frame.index,
                kind="entropy",
                index=0,
                instructions=inst.total_instructions - entropy_start,
            )
        )
        header_bits = 64.0
        return len(stream) * 8.0 + header_bits

    # ------------------------------------------------------------------
    # Partition search
    # ------------------------------------------------------------------
    def _cost_cheap(self, cost: float, pixels: int) -> bool:
        """Lambda-normalised early-exit test.

        A candidate whose RD cost is already below
        ``early_exit_scale * 0.1 * lambda`` per pixel cannot be
        meaningfully improved: its distortion sits at the quantisation
        floor and its rate is a fraction of a bit per pixel.  Because
        lambda grows as step^2, the test fires progressively more often
        as CRF rises — the mechanism behind the paper's falling
        instruction counts (Fig. 4a).  This is the same shape as x264's
        early-skip and SVT-AV1's depth-removal heuristics.
        """
        return cost < self.profile.early_exit_scale * 0.1 * self.lam * pixels

    def _skip_good(self, skip_sse: float, pixels: int) -> bool:
        """Accept the no-residual skip candidate outright.

        Requires the no-residual distortion to sit at the quantisation
        floor already — anything looser locks in above-floor error that
        compounds across inter frames.  (The lambda-based
        :meth:`_cost_cheap` is only used to *prune* search among
        candidates that still code a residual.)
        """
        quant_floor = self.step * self.step / 12.0
        return skip_sse < 1.2 * quant_floor * pixels

    def _can_split(self, width: int, depth: int) -> bool:
        """Whether the search may partition a ``width``-wide square
        block at ``depth`` (and, for SPLIT children, recurse into it)."""
        return (
            depth < self.profile.max_partition_depth
            and width >= 2 * self.spec.min_block
        )

    def _search_partition(self, rect: BlockRect, depth: int) -> PartitionPlan:
        inst = self.inst
        family = self.spec.family
        none_cost, none_leaf = self._evaluate_leaf(rect)
        best = PartitionPlan(
            rect=rect,
            partition=PartitionType.NONE,
            children=[none_leaf],
            cost=none_cost + self.lam * _PARTITION_SIGNAL_BITS,
        )

        can_split = self._can_split(rect.width, depth)
        exit_now = (not can_split) or self._cost_cheap(
            none_cost, rect.pixels
        )
        inst.branch(inst.site(f"{family}.part.exit.d{depth}"), exit_now)
        if exit_now:
            return best

        vocabulary = legal_partitions(
            rect.width, self.profile.partition_vocabulary, self.spec.min_block
        )
        for part in vocabulary:
            if part is PartitionType.NONE:
                continue
            children = sub_blocks(rect, part)
            cost = self.lam * _PARTITION_SIGNAL_BITS
            plans: list[PartitionPlan | LeafPlan] = []
            aborted = False
            for child in children:
                if part is PartitionType.SPLIT and self._can_split(
                    child.width, depth + 1
                ):
                    child_plan = self._search_partition(child, depth + 1)
                    cost += child_plan.cost
                    plans.append(child_plan)
                else:
                    child_cost, child_leaf = self._evaluate_leaf(child)
                    cost += child_cost
                    plans.append(child_leaf)
                if cost >= best.cost:
                    aborted = True
                    break
            inst.kernel("rdo_bookkeep", 1)
            improved = not aborted and cost < best.cost
            inst.branch(
                inst.site(f"{family}.part.{part.value}.improve.d{depth}"),
                improved,
            )
            if improved:
                best = PartitionPlan(
                    rect=rect, partition=part, children=plans, cost=cost
                )
        return best

    def _leaf_layout(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        """Every leaf :meth:`_search_partition` may evaluate in a
        superblock, as ``(height, width) -> [(row, col) offsets]``.

        Mirrors the walk's recursion with early exits taken as never
        firing, so the walk's leaves are always a subset.
        """
        leaves: dict[BlockRect, None] = {}

        def visit(rect: BlockRect, depth: int) -> None:
            leaves[rect] = None
            if not self._can_split(rect.width, depth):
                return
            for part in legal_partitions(
                rect.width, self.profile.partition_vocabulary,
                self.spec.min_block,
            ):
                if part is PartitionType.NONE:
                    continue
                for child in sub_blocks(rect, part):
                    if part is PartitionType.SPLIT and self._can_split(
                        child.width, depth + 1
                    ):
                        visit(child, depth + 1)
                    else:
                        leaves[child] = None

        visit(BlockRect(0, 0, self.sb, self.sb), 0)
        return {
            shape: [(rect.row, rect.col) for rect in rects]
            for shape, rects in _by_shape(leaves).items()
        }

    def _superblock_leaves(
        self, sb: BlockRect
    ) -> list[tuple[tuple[int, int], list[BlockRect]]]:
        """The superblock's legal leaves, grouped by shape."""
        return [
            ((height, width), [
                BlockRect(sb.row + row, sb.col + col, height, width)
                for row, col in offsets
            ])
            for (height, width), offsets in self.leaf_layout.items()
        ]

    # ------------------------------------------------------------------
    # Stacked per-superblock precompute (vectorized path)
    # ------------------------------------------------------------------
    def _precompute(self, sb: BlockRect) -> None:
        """Stage 1 of a superblock's search on the vectorized path.

        Computes, for every leaf the walk may visit, the kernel results
        its decisions read: intra SATDs, transform RD of every residual
        candidate, skip and filter distortions and motion searches.
        Each transform-RD pass covers every pending residual of one
        shape.  Inter candidates are staged in the walk's order, and
        each stage is gated with the walk's own predicates
        (:meth:`_skip_good`, :meth:`_cost_cheap`) on the decision state
        tracked per leaf, so no candidate the walk will not consume is
        computed.  Stage 2 is the unchanged :meth:`_search_partition`
        walk, which charges every visited leaf's work, in order, from
        these results; results of leaves it does not visit are dropped.
        """
        self._leaf_results = _LeafResults()
        shapes = self._superblock_leaves(sb)
        if self.is_inter_frame and self.refs:
            self._precompute_inter(sb, shapes)
        else:
            self._precompute_intra(
                shapes, self.profile.intra_mode_count,
                self.profile.rd_candidates,
            )
            self._flush_transforms()

    def _src_stack(
        self, rects: list[BlockRect], height: int, width: int
    ) -> np.ndarray:
        """``(L, h, w)`` int32 source blocks of same-shape ``rects``."""
        pitch = self.src.shape[1]
        starts = np.array([rect.row * pitch + rect.col for rect in rects])
        offsets = np.arange(height)[:, None] * pitch + np.arange(width)
        return self.src.reshape(-1)[
            starts[:, None, None] + offsets
        ].astype(np.int32)

    def _precompute_intra(
        self,
        shapes: list[tuple[tuple[int, int], list[BlockRect]]],
        budget: int,
        rd_count: int,
    ) -> None:
        """SATD-rank the first ``budget`` intra modes of every leaf and
        queue the residuals of each leaf's ``rd_count`` best modes.

        Per shape, one :func:`predict_stack` call predicts every mode
        (and every edge-filtered alternative) of every leaf and one
        :func:`satd_batch` call scores them all.
        """
        results = self._leaf_results
        modes = tuple(self.spec.intra_modes[:budget])
        alt_index = [
            index for index, mode in enumerate(modes)
            if self.profile.intra_edge_filter and mode.value.startswith("d")
        ]
        mode_bits = self.lam * _MODE_SIGNAL_BITS
        for (height, width), rects in shapes:
            src = self._src_stack(rects, height, width)
            above, left = neighbours_stack(
                self.recon,
                np.array([rect.row for rect in rects]),
                np.array([rect.col for rect in rects]),
                height, width,
            )
            residuals = src[:, None] - predict_stack(
                modes, above, left, height, width
            ).astype(np.int32)
            stack = residuals
            if alt_index:
                alt_preds = predict_stack(
                    tuple(modes[index] for index in alt_index),
                    _smooth_edge(above), _smooth_edge(left), height, width,
                )
                stack = np.concatenate(
                    (residuals, src[:, None] - alt_preds.astype(np.int32)),
                    axis=1,
                )
            scores = satd_batch(stack).tolist()
            for row, rect in enumerate(rects):
                satd_scores = scores[row]
                alt_satd = dict(zip(alt_index, satd_scores[len(modes):]))
                results.satd[rect] = (satd_scores, alt_satd)
                # The ranking _intra_candidates returns: modes scored
                # until the early exit, best first.
                threshold = self._mode_exit_threshold(rect.pixels)
                ranked: list[tuple[float, int]] = []
                best_score = float("inf")
                for index in range(len(modes)):
                    score = satd_scores[index] + mode_bits
                    if index in alt_satd:
                        score = min(score, alt_satd[index] + mode_bits)
                    ranked.append((score, index))
                    best_score = min(best_score, score)
                    if best_score < threshold:
                        break
                ranked.sort(key=lambda entry: entry[0])
                for _, index in ranked[:rd_count]:
                    results.request(
                        ("intra", rect, modes[index]),
                        residuals[row, index].astype(np.float64),
                    )

    def _precompute_inter(
        self,
        sb: BlockRect,
        shapes: list[tuple[tuple[int, int], list[BlockRect]]],
    ) -> None:
        """Inter-leaf stages, in :meth:`_evaluate_inter_leaf`'s order:
        skip, the intra fallback and each reference-MV candidate, each
        NEWMV reference, then compound candidates."""
        results = self._leaf_results
        states: dict[BlockRect, _LeafState] = {}
        for (height, width), rects in shapes:
            src = self._src_stack(rects, height, width)
            predictors = [self._predict_mv(rect) for rect in rects]
            preds = self._mc_stack(0, rects, predictors)
            skip_sses = ((src - preds.astype(np.int32)) ** 2).reshape(
                len(rects), -1
            ).sum(axis=1).tolist()
            for rect, block, predictor, skip_sse in zip(
                rects, src, predictors, skip_sses
            ):
                results.skip_sse[rect] = skip_sse = float(skip_sse)
                if not self._skip_good(skip_sse, rect.pixels):
                    states[rect] = _LeafState(
                        skip_sse + self.lam * _SKIP_SIGNAL_BITS, predictor, block
                    )
        if not states:
            return
        self._precompute_intra(
            list(_by_shape(states).items()), self.fallback_modes, 1
        )

        # Reference-MV candidates: the first always runs; each later one
        # only while the best cost is not yet cheap.
        candidates = {
            rect: self._inter_mv_candidates(rect, state.predictor)
            for rect, state in states.items()
        }
        for index in range(max(map(len, candidates.values()))):
            step = {
                rect: mvs[index] for rect, mvs in candidates.items()
                if index < len(mvs) and (
                    index == 0
                    or not self._cost_cheap(states[rect].cost, rect.pixels)
                )
            }
            self._stage_inter(states, step, 0)
        self._flush_transforms()  # the intra fallback's, if no candidate ran

        # NEWMV over the reference list, skipped or stopped once cheap.
        profile = self.profile
        for ref_index in range(min(profile.reference_frames, len(self.refs))):
            active = [
                rect for rect, state in states.items()
                if not self._cost_cheap(state.cost, rect.pixels)
            ]
            if not active:
                break
            ref = self.refs[ref_index]
            volume = SadVolume(
                self.src, ref, sb.row, sb.col, self.sb,
                profile.search_range, self.spec.min_block,
            )
            found = {}
            for rect in active:
                sads = volume.leaf_sads(
                    rect.row, rect.col, rect.height, rect.width
                )
                if profile.motion_strategy == "full":
                    found[rect] = full_search_sads(sads, profile.search_range)
                else:
                    found[rect] = diamond_search_sads(
                        sads, profile.search_range,
                        start=states[rect].predictor,
                    )
            refined = dict(found)
            if profile.subpel_depth > 0:
                for rects in _by_shape(active).values():
                    refined.update(zip(rects, subpel_refine_stack(
                        np.stack([states[rect].src for rect in rects]),
                        ref,
                        np.array([rect.row for rect in rects]),
                        np.array([rect.col for rect in rects]),
                        [found[rect] for rect in rects],
                        profile.subpel_depth,
                    )))
            for rect in active:
                results.search[(rect, ref_index)] = (found[rect], refined[rect])
            self._stage_inter(
                states, {rect: refined[rect].mv for rect in active}, ref_index
            )

        # Compound candidates average the best single-reference
        # prediction with reference 1.
        if profile.compound_modes > 0 and len(self.refs) >= 2:
            for rect, state in states.items():
                pred_a = self._mc_prediction(
                    rect, state.mv, state.ref, state.filt
                ).astype(np.uint16)
                for comp_idx in range(profile.compound_modes):
                    second_mv = state.predictor if comp_idx == 0 else ZERO_MV
                    pred_b = self._mc_prediction(rect, second_mv, 1, 0)
                    comp_pred = (
                        (pred_a + pred_b.astype(np.uint16)) // 2
                    ).astype(np.uint8)
                    results.request(
                        ("comp", rect, comp_idx),
                        (state.src - comp_pred.astype(np.int32)).astype(
                            np.float64
                        ),
                    )
            self._flush_transforms()

    def _stage_inter(
        self,
        states: dict[BlockRect, _LeafState],
        step: dict[BlockRect, MotionVector],
        ref_index: int,
    ) -> None:
        """Evaluate each leaf's inter candidate ``step[leaf]``: filter
        search, then a stacked transform-RD pass; then fold each cost
        into the leaf's decision state as :meth:`_rd_cost_inter`'s
        caller does."""
        results = self._leaf_results
        num_filters = max(1, self.profile.interp_filters)
        todo = [
            rect for rect, mv in step.items()
            if ("inter", rect, mv, ref_index) not in results.filter_errs
        ]
        for rects in _by_shape(todo).values():
            mvs = [step[rect] for rect in rects]
            src = np.stack([states[rect].src for rect in rects])
            filtered = np.stack(_filtered_predictions(
                self._mc_stack(ref_index, rects, mvs).astype(np.float64),
                num_filters,
            ), axis=1)
            errs = ((src[:, None] - filtered.astype(np.int32)) ** 2).reshape(
                len(rects), num_filters, -1
            ).sum(axis=2)
            best = filtered[np.arange(len(rects)), errs.argmin(axis=1)]
            residuals = (src - best.astype(np.int32)).astype(np.float64)
            for rect, mv, leaf_errs, residual in zip(
                rects, mvs, errs.tolist(), residuals
            ):
                key = ("inter", rect, mv, ref_index)
                results.filter_errs[key] = [float(err) for err in leaf_errs]
                results.request(key, residual)
        self._flush_transforms()
        for rect, mv in step.items():
            state = states[rect]
            key = ("inter", rect, mv, ref_index)
            stack, row = results.tx[key]
            sse, bits = stack.chosen[row]
            cost = sse + self.lam * (
                bits + mv_bits(mv, state.predictor) + _SKIP_SIGNAL_BITS
            )
            if cost < state.cost:
                errs = results.filter_errs[key]
                state.cost, state.mv, state.ref = cost, mv, ref_index
                state.filt = errs.index(min(errs))

    def _mc_stack(
        self,
        ref_index: int,
        rects: list[BlockRect],
        mvs: list[MotionVector],
    ) -> np.ndarray:
        """Base MC predictions of same-shape ``rects`` at ``mvs``."""
        return interpolate_stack(
            self.refs[ref_index],
            np.array([rect.row for rect in rects]),
            np.array([rect.col for rect in rects]),
            rects[0].height, rects[0].width,
            np.array([mv.row for mv in mvs]),
            np.array([mv.col for mv in mvs]),
        )

    def _flush_transforms(self) -> None:
        """Run every pending residual through one transform-RD pass per
        shape and file each result under its candidate key."""
        results = self._leaf_results
        for requests in results.pending.values():
            stack = self._transform_stack(
                np.stack([residual for _, residual in requests])
            )
            for row, (key, _) in enumerate(requests):
                results.tx[key] = (stack, row)
        results.pending.clear()

    def _transform_stack(self, residuals: np.ndarray) -> _TxStack:
        """Transform-size/type search of every residual of an ``(L, h,
        w)`` stack, in one stacked pass.

        Per size, one forward and one inverse matmul pair covers every
        residual and type (broadcast matmul computes the same 2-D
        product per slice); quantisation, rate, dequantisation run once
        over the ``(size, residual * type, pixel)`` stack (elementwise,
        the DC positions given as flat indices; the rate model is
        integer), and SSE, coded-block flags and residual energy are
        reductions over each candidate's own contiguous row.  Every
        value equals the per-candidate computation of the scalar
        :meth:`_transform_rd`.
        """
        count, height, width = residuals.shape
        pixels = height * width
        tx_types = self.tx_types
        types = len(tx_types)
        sizes = self._tx_candidate_sizes(height, width)
        groups = count * types
        coeffs = np.empty((len(sizes), groups, pixels))
        for size_idx, tx in enumerate(sizes):
            coeffs[size_idx] = forward_tx_stack(
                tile_stack(residuals, tx), tx_types
            ).reshape(groups, pixels)
        dc = _dc_positions(sizes, groups, pixels)
        levels = self.quant.quantize(coeffs, dc=dc)
        bits = np.array(rate_estimate_groups(levels, sizes))
        coeffs = self.quant.dequantize(levels, dc=dc)
        recon = np.empty((len(sizes), count, types, height, width))
        for size_idx, tx in enumerate(sizes):
            recon[size_idx] = untile_stack(
                inverse_tx_stack(
                    coeffs[size_idx].reshape(count, types, -1, tx, tx),
                    tx_types,
                ).reshape(groups, -1, tx, tx),
                height, width,
            ).reshape(count, types, height, width)
        rows = len(sizes) * groups
        sse = ((residuals[None, :, None] - recon) ** 2).reshape(
            rows, -1
        ).sum(axis=1)
        cbf = levels.reshape(rows, -1).any(axis=1)

        def per_residual(values: np.ndarray) -> np.ndarray:
            return values.reshape(len(sizes), count, types).transpose(
                1, 0, 2
            ).reshape(count, -1)

        sse, bits, cbf = per_residual(sse), per_residual(bits), per_residual(cbf)
        picks = (sse + self.lam * bits).argmin(axis=1)
        rank = np.arange(count)
        chosen = list(zip(sse[rank, picks].tolist(), bits[rank, picks].tolist()))
        return _TxStack(
            candidates=_tx_candidates(sizes, tx_types),
            bits=bits.tolist(), sse=sse.tolist(), cbf=cbf.tolist(),
            chosen=chosen,
            energy=(residuals * residuals).reshape(count, -1).sum(axis=1).tolist(),
            recon=recon, levels=levels,
        )

    # ------------------------------------------------------------------
    # Leaf (mode) decision
    # ------------------------------------------------------------------
    def _evaluate_leaf(self, rect: BlockRect) -> tuple[float, LeafPlan]:
        cached = self._leaf_cache.get(rect)
        if cached is not None:
            return cached
        if self.is_inter_frame and self.refs:
            result = self._evaluate_inter_leaf(rect)
        else:
            result = self._evaluate_intra_leaf(rect)
        self._leaf_cache[rect] = result
        return result

    def _mode_exit_threshold(self, pixels: int) -> float:
        """SATD below which further mode candidates are skipped."""
        return self.profile.early_exit_scale * self.step * pixels * 0.55

    def _src_block(self, rect: BlockRect) -> np.ndarray:
        return self.src[
            rect.row : rect.row + rect.height, rect.col : rect.col + rect.width
        ].astype(np.int32)

    def _intra_candidates(
        self, rect: BlockRect, mode_budget: int
    ) -> list[IntraMode]:
        """SATD-rank intra modes; returns modes ordered best-first.

        The vectorized path reads every candidate's SATD (and every
        edge-filtered alternative's) from the superblock precompute;
        the decision loop — charges, branches and the early exit
        included — consumes the same float values in the same order as
        the scalar path, so the ranking and every event are identical.
        """
        inst = self.inst
        inst.touch(self.rec_plane, max(rect.row - 1, 0), 1, rect.col, rect.width)
        inst.touch(self.src_plane, rect.row, rect.height, rect.col, rect.width)

        modes = tuple(self.spec.intra_modes[:mode_budget])
        scores: list[tuple[float, int, IntraMode]] = []
        best_score = float("inf")
        exit_threshold = self._mode_exit_threshold(rect.pixels)

        satd_scores: list[float] | None = None
        if self.vectorized:
            satd_scores, alt_satd = self._leaf_results.satd[rect]
        else:
            src_block = self._src_block(rect)
            above, left = extend_neighbours(
                self.recon, rect.row, rect.col, rect.height, rect.width
            )
            if self.profile.intra_edge_filter:
                smooth_above = _smooth_edge(above)
                smooth_left = _smooth_edge(left)

        for index, mode in enumerate(modes):
            if satd_scores is not None:
                inst.kernel("intra_pred", rect.pixels)
                score = satd_scores[index] + self.lam * _MODE_SIGNAL_BITS
                inst.kernel("satd", rect.pixels)
            else:
                pred = predict(mode, above, left, rect.height, rect.width)
                inst.kernel("intra_pred", rect.pixels)
                residual = src_block - pred.astype(np.int32)
                score = satd(residual) + self.lam * _MODE_SIGNAL_BITS
                inst.kernel("satd", rect.pixels)
            if self.profile.intra_edge_filter and mode.value.startswith("d"):
                if satd_scores is not None:
                    inst.kernel("intra_pred", rect.pixels)
                    alt_score = alt_satd[index] + self.lam * _MODE_SIGNAL_BITS
                    inst.kernel("satd", rect.pixels)
                else:
                    alt = predict(
                        mode, smooth_above, smooth_left, rect.height, rect.width
                    )
                    inst.kernel("intra_pred", rect.pixels)
                    alt_score = satd(src_block - alt.astype(np.int32)) + (
                        self.lam * _MODE_SIGNAL_BITS
                    )
                    inst.kernel("satd", rect.pixels)
                inst.branch(self.site_edgefilter, alt_score < score)
                score = min(score, alt_score)
            inst.loop(self.site_satd_rowloop, trip_count=max(rect.height // 4, 1))
            scores.append((score, index, mode))
            improved = score < best_score
            inst.branch(self.site_mode_improve[index], improved)
            if improved:
                best_score = score
            early = best_score < exit_threshold
            inst.branch(self.site_mode_exit, early)
            if early:
                break
        scores.sort(key=lambda entry: entry[0])
        return [mode for _, _, mode in scores]

    def _evaluate_intra_leaf(self, rect: BlockRect) -> tuple[float, LeafPlan]:
        inst = self.inst
        with inst.function(f"{self.spec.family}.intra_mode_decision"):
            ranked = self._intra_candidates(rect, self.profile.intra_mode_count)
            best_mode = ranked[0]
            best_cost = float("inf")
            best_err = 0.0
            for index, mode in enumerate(ranked[: self.profile.rd_candidates]):
                cost, pred_error = self._rd_cost_intra(rect, mode)
                inst.kernel("rdo_bookkeep", 1)
                improved = cost < best_cost
                inst.branch(
                    inst.site(f"{self.spec.family}.md.rd{index}.improve"),
                    improved,
                )
                if improved:
                    best_cost = cost
                    best_mode = mode
                    best_err = pred_error
        plan = LeafPlan(
            rect=rect, is_inter=False, mode=best_mode, mv=ZERO_MV,
            mv_predictor=ZERO_MV, ref_index=0, interp_filter=0, skip=False,
            cost=best_cost, pred_error=best_err,
        )
        return best_cost, plan

    def _inter_mv_candidates(
        self, rect: BlockRect, predictor: MotionVector
    ) -> list[MotionVector]:
        """Candidate MV list: NEAREST/NEAR/GLOBAL-style, best first.

        AV1 codes several "reference MV" modes before resorting to an
        explicit NEWMV; each extra candidate is a real motion-
        compensation plus RD round trip in the search.
        """
        candidates = [predictor]
        left = self.mv_field.get(self._mv_key(rect.row, rect.col - self.spec.min_block))
        above = self.mv_field.get(self._mv_key(rect.row - self.spec.min_block, rect.col))
        for neighbour in (left, above):
            if neighbour is not None and neighbour not in candidates:
                candidates.append(neighbour)
        if ZERO_MV not in candidates:
            candidates.append(ZERO_MV)
        return candidates[: max(self.profile.inter_mode_candidates - 1, 0)]

    def _evaluate_inter_leaf(self, rect: BlockRect) -> tuple[float, LeafPlan]:
        inst = self.inst
        family = self.spec.family
        src_block = None if self.vectorized else self._src_block(rect)
        predictor = self._predict_mv(rect)

        with inst.function(f"{family}.inter_mode_decision"):
            # 1) Skip candidate: motion-compensate at the predicted MV
            #    with no residual.
            if self.vectorized:
                self._charge_mc(rect, 0, 0)
                skip_sse = self._leaf_results.skip_sse[rect]
            else:
                skip_pred = self._mc_pred(rect, predictor, ref_index=0, filt=0)
                skip_sse = float(
                    ((src_block - skip_pred.astype(np.int32)) ** 2).sum()
                )
            inst.kernel("variance", rect.pixels)
            skip_cost = skip_sse + self.lam * _SKIP_SIGNAL_BITS
            skip_good = self._skip_good(skip_sse, rect.pixels)
            inst.branch(inst.site(f"{family}.md.skip_early"), skip_good)
            inst.kernel("rdo_bookkeep", 1)
            if skip_good:
                plan = LeafPlan(
                    rect=rect, is_inter=True, mode=None, mv=predictor,
                    mv_predictor=predictor, ref_index=0, interp_filter=0,
                    skip=True, cost=skip_cost, pred_error=skip_sse,
                )
                return skip_cost, plan

            best_cost = skip_cost
            best_plan = LeafPlan(
                rect=rect, is_inter=True, mode=None, mv=predictor,
                mv_predictor=predictor, ref_index=0, interp_filter=0,
                skip=True, cost=skip_cost, pred_error=skip_sse,
            )

            # 2) Reference-MV candidates (NEAR/GLOBAL family).
            for cand_idx, mv in enumerate(self._inter_mv_candidates(rect, predictor)):
                cost, skip_flag, err, filt = self._rd_cost_inter(
                    rect, src_block, mv, predictor, ref_index=0
                )
                inst.kernel("rdo_bookkeep", 1)
                improved = cost < best_cost
                inst.branch(
                    inst.site(f"{family}.md.refmv{cand_idx}.improve"), improved
                )
                if improved:
                    best_cost = cost
                    best_plan = LeafPlan(
                        rect=rect, is_inter=True, mode=None, mv=mv,
                        mv_predictor=predictor, ref_index=0,
                        interp_filter=filt, skip=skip_flag, cost=cost,
                        pred_error=err,
                    )
                refmv_done = self._cost_cheap(best_cost, rect.pixels)
                inst.branch(
                    inst.site(f"{family}.md.refmv_exit"), refmv_done
                )
                if refmv_done:
                    break

            # 3) Explicit motion search (NEWMV) over the reference list
            #    — skipped entirely when a reference-MV candidate already
            #    predicts below the quantisation floor (the largest
            #    CRF-dependent saving in real encoders).
            newmv_skip = self._cost_cheap(best_cost, rect.pixels)
            inst.branch(inst.site(f"{family}.md.newmv_skip"), newmv_skip)
            num_refs = 0 if newmv_skip else min(
                self.profile.reference_frames, len(self.refs)
            )
            for ref_index in range(num_refs):
                search = self._motion_search(rect, src_block, predictor, ref_index)
                cost, skip_flag, err, filt = self._rd_cost_inter(
                    rect, src_block, search.mv, predictor, ref_index
                )
                inst.kernel("rdo_bookkeep", 1)
                improved = cost < best_cost
                inst.branch(
                    inst.site(f"{family}.md.newmv{ref_index}.improve"), improved
                )
                if improved:
                    best_cost = cost
                    best_plan = LeafPlan(
                        rect=rect, is_inter=True, mode=None, mv=search.mv,
                        mv_predictor=predictor, ref_index=ref_index,
                        interp_filter=filt, skip=skip_flag, cost=cost,
                        pred_error=err,
                    )
                # Stop searching further references once the residual is
                # below the quantisation floor.
                done = self._cost_cheap(best_cost, rect.pixels)
                inst.branch(inst.site(f"{family}.md.ref_exit"), done)
                if done:
                    break

            # 4) Compound prediction (AV1): average two references.
            if (
                self.profile.compound_modes > 0
                and len(self.refs) >= 2
                and best_plan.is_inter
            ):
                for comp_idx in range(self.profile.compound_modes):
                    second_mv = predictor if comp_idx == 0 else ZERO_MV
                    if self.vectorized:
                        self._charge_mc(
                            rect, best_plan.ref_index, best_plan.interp_filter
                        )
                        self._charge_mc(rect, 1, 0)
                    else:
                        pred_a = self._mc_pred(
                            rect, best_plan.mv, best_plan.ref_index,
                            best_plan.interp_filter,
                        )
                        pred_b = self._mc_pred(rect, second_mv, 1, 0)
                        comp_pred = (
                            (pred_a.astype(np.uint16) + pred_b.astype(np.uint16))
                            // 2
                        ).astype(np.uint8)
                    inst.kernel("mc_interp", rect.pixels * self.mc_cost)
                    if self.vectorized:
                        choice = self._transform_choice(
                            rect, *self._leaf_results.tx[("comp", rect, comp_idx)]
                        )
                    else:
                        choice = self._transform_rd(
                            rect,
                            (src_block - comp_pred.astype(np.int32)).astype(
                                np.float64
                            ),
                        )
                    inst.kernel("rdo_bookkeep", 1)
                    comp_cost = choice.sse + self.lam * (
                        choice.bits
                        + mv_bits(best_plan.mv, predictor)
                        + _SKIP_SIGNAL_BITS
                    )
                    improved = comp_cost < best_cost
                    inst.branch(
                        inst.site(f"{family}.md.comp{comp_idx}.improve"),
                        improved,
                    )
                    # Compound candidates inform the RD search; single-
                    # reference reconstruction is kept for the plan (the
                    # decode path models single-ref MC only), so the
                    # improvement margin is folded into the cost.
                    if improved:
                        best_cost = comp_cost

            # 5) Intra fallback (restricted mode set on inter frames).
            ranked = self._intra_candidates(rect, self.fallback_modes)
            intra_cost, intra_err = self._rd_cost_intra(rect, ranked[0])
            inst.kernel("rdo_bookkeep", 1)
            choose_intra = intra_cost < best_cost
            inst.branch(inst.site(f"{family}.md.inter_vs_intra"), choose_intra)
            if choose_intra:
                best_cost = intra_cost
                best_plan = LeafPlan(
                    rect=rect, is_inter=False, mode=ranked[0], mv=ZERO_MV,
                    mv_predictor=ZERO_MV, ref_index=0, interp_filter=0,
                    skip=False, cost=intra_cost, pred_error=intra_err,
                )
        return best_cost, best_plan

    def _motion_search(
        self,
        rect: BlockRect,
        src_block: np.ndarray | None,
        predictor: MotionVector,
        ref_index: int,
    ) -> SearchResult:
        inst = self.inst
        family = self.spec.family
        ref = self.refs[ref_index]
        with inst.function(f"{family}.motion_search"):
            if self.vectorized:
                result, refined = self._leaf_results.search[(rect, ref_index)]
            elif self.profile.motion_strategy == "full":
                result = full_search(
                    src_block.astype(np.uint8), ref, rect.row, rect.col,
                    self.profile.search_range,
                )
            else:
                result = diamond_search(
                    src_block.astype(np.uint8), ref, rect.row, rect.col,
                    self.profile.search_range, start=predictor,
                )
            inst.kernel("sad", result.positions * rect.pixels)
            inst.kernel("mv_cost", result.positions)
            inst.loop(
                inst.site(f"{family}.sad.rowloop"),
                trip_count=rect.height,
                invocations=result.positions,
            )
            span = 2 * self.profile.search_range
            inst.touch(
                self.ref_planes[ref_index],
                max(rect.row - self.profile.search_range, 0),
                rect.height + span,
                max(rect.col - self.profile.search_range, 0),
                rect.width + span,
            )
            if self.profile.subpel_depth > 0:
                if self.vectorized:
                    result = refined
                else:
                    result = subpel_refine(
                        src_block.astype(np.uint8), ref, rect.row, rect.col,
                        result, self.profile.subpel_depth,
                    )
                inst.kernel("mc_interp", result.interp_pixels * self.mc_cost)
                inst.kernel("sad", result.positions * rect.pixels * 0.25)
            # Replay the search kernel's per-candidate compare branches
            # into the branch trace (a handful of static sites, as the
            # unrolled SIMD search loop has).
            sites = self.site_sad_improve
            for pos, improved in enumerate(result.improvements):
                inst.branch(sites[pos & 7], improved)
        return result

    # ------------------------------------------------------------------
    # Motion compensation with filter variants
    # ------------------------------------------------------------------
    def _mc_prediction(
        self, rect: BlockRect, mv: MotionVector, ref_index: int, filt: int
    ) -> np.ndarray:
        """Motion-compensated prediction with one of three MC filters
        (see :func:`_filtered_predictions`)."""
        pred = interpolate(
            self.refs[ref_index], rect.row, rect.col, rect.height,
            rect.width, mv,
        ).astype(np.float64)
        return _filtered_predictions(pred, filt + 1)[filt]

    def _charge_mc(self, rect: BlockRect, ref_index: int, filt: int) -> None:
        """Charge one :meth:`_mc_prediction`."""
        inst = self.inst
        inst.kernel("mc_interp", rect.pixels * self.mc_cost)
        inst.touch(self.ref_planes[ref_index], rect.row, rect.height,
                   rect.col, rect.width)
        if filt > 0:
            inst.kernel("mc_interp", rect.pixels * self.mc_cost)

    def _mc_pred(
        self, rect: BlockRect, mv: MotionVector, ref_index: int, filt: int
    ) -> np.ndarray:
        """:meth:`_mc_prediction`, charged."""
        pred = self._mc_prediction(rect, mv, ref_index, filt)
        self._charge_mc(rect, ref_index, filt)
        return pred

    # ------------------------------------------------------------------
    # RD cost via transform-size search
    # ------------------------------------------------------------------
    def _tx_candidate_sizes(self, height: int, width: int) -> tuple[int, ...]:
        """Transform sizes the profile's TX search evaluates."""
        return _tx_sizes(height, width, self.profile.tx_search_depth)

    def _transform_rd(
        self, rect: BlockRect, residual: np.ndarray
    ) -> TransformChoice:
        """Search transform sizes and types; transform/quantise/recon.

        AV1 profiles evaluate several square transform sizes *and*
        several row/column basis combinations (the TX-type search); the
        H.264 profile evaluates exactly one.  All tiles of one
        configuration are processed as a single batched matmul, as a
        SIMD transform kernel would.
        """
        if self.vectorized:
            return self._transform_choice(
                rect, self._transform_stack(residual[None]), 0
            )
        inst = self.inst
        best: TransformChoice | None = None
        best_cost = float("inf")
        tx_types = TX_TYPES[: self.profile.tx_types]
        for size_idx, tx in enumerate(
            self._tx_candidate_sizes(rect.height, rect.width)
        ):
            tiles = tile_block(residual, tx)
            for type_idx, tx_type in enumerate(tx_types):
                coeffs = forward_tx_batch(tiles, tx_type)
                inst.kernel("fdct", rect.pixels)
                levels = self.quant.quantize(coeffs)
                inst.kernel("quant", rect.pixels)
                bits = fast_rate_estimate_batch(levels)
                inst.kernel("rate_estimate", rect.pixels * 0.25)
                recon_tiles = inverse_tx_batch(
                    self.quant.dequantize(levels), tx_type
                )
                inst.kernel("dequant", rect.pixels)
                inst.kernel("idct", rect.pixels)
                recon_res = untile_block(recon_tiles, rect.height, rect.width)
                sse = float(((residual - recon_res) ** 2).sum())
                inst.kernel("variance", rect.pixels)
                nonzero = bool(levels.any())
                inst.branch(inst.site(f"{self.spec.family}.tx.cbf"), nonzero)
                cost = sse + self.lam * bits
                better = cost < best_cost
                if size_idx > 0 or type_idx > 0:
                    inst.branch(
                        inst.site(
                            f"{self.spec.family}.tx.cand.improve"
                        ),
                        better,
                    )
                if better:
                    best_cost = cost
                    best = TransformChoice(
                        tx_size=tx, tx_type=tx_type, sse=sse, bits=bits,
                        recon_residual=recon_res, levels=levels,
                    )
        assert best is not None
        return best

    def _transform_choice(
        self, rect: BlockRect, stack: _TxStack, index: int
    ) -> TransformChoice:
        """The scalar :meth:`_transform_rd` decision loop over residual
        ``index`` of a precomputed :class:`_TxStack`: every charge,
        branch and RD comparison in the original candidate order."""
        inst = self.inst
        pixels = rect.pixels
        bits_row, sse_row, cbf_row = (
            stack.bits[index], stack.sse[index], stack.cbf[index]
        )
        best = 0
        best_cost = float("inf")
        for group in range(len(bits_row)):
            inst.kernel("fdct", pixels)
            inst.kernel("quant", pixels)
            bits = bits_row[group]
            inst.kernel("rate_estimate", pixels * 0.25)
            inst.kernel("dequant", pixels)
            inst.kernel("idct", pixels)
            sse = sse_row[group]
            inst.kernel("variance", pixels)
            inst.branch(self.site_tx_cbf, cbf_row[group])
            cost = sse + self.lam * bits
            better = cost < best_cost
            if group > 0:
                inst.branch(self.site_tx_improve, better)
            if better:
                best_cost = cost
                best = group
        return stack.choice(index, best)

    def _rd_cost_intra(
        self, rect: BlockRect, mode: IntraMode
    ) -> tuple[float, float]:
        """Full RD cost of one intra mode; returns (cost, pred_error)."""
        self.inst.kernel("intra_pred", rect.pixels)
        if self.vectorized:
            stack, row = self._leaf_results.tx[("intra", rect, mode)]
            pred_error = stack.energy[row]
            choice = self._transform_choice(rect, stack, row)
        else:
            above, left = extend_neighbours(
                self.recon, rect.row, rect.col, rect.height, rect.width
            )
            pred = predict(mode, above, left, rect.height, rect.width)
            src_block = self._src_block(rect)
            residual = (src_block - pred.astype(np.int32)).astype(np.float64)
            pred_error = float((residual * residual).sum())
            choice = self._transform_rd(rect, residual)
        cost = choice.sse + self.lam * (choice.bits + _MODE_SIGNAL_BITS)
        return cost, pred_error

    def _rd_cost_inter(
        self,
        rect: BlockRect,
        src_block: np.ndarray | None,
        mv: MotionVector,
        predictor: MotionVector,
        ref_index: int,
    ) -> tuple[float, bool, float, int]:
        """RD cost of an inter candidate with interpolation-filter
        search; returns (cost, skip, pred_error, filter)."""
        inst = self.inst
        best_filt = 0
        best_pred: np.ndarray | None = None
        best_err = float("inf")
        num_filters = max(1, self.profile.interp_filters)
        key = ("inter", rect, mv, ref_index)
        errs = self._leaf_results.filter_errs[key] if self.vectorized else None
        for filt in range(num_filters):
            if errs is not None:
                self._charge_mc(rect, ref_index, filt)
                err = errs[filt]
            else:
                pred = self._mc_pred(rect, mv, ref_index, filt)
                err = float(
                    ((src_block - pred.astype(np.int32)) ** 2).sum()
                )
            inst.kernel("variance", rect.pixels)
            if filt > 0:
                inst.branch(self.site_filt_improve[filt], err < best_err)
            if err < best_err:
                best_err = err
                best_filt = filt
                if errs is None:
                    best_pred = pred
        if errs is not None:
            choice = self._transform_choice(rect, *self._leaf_results.tx[key])
        else:
            residual = (src_block - best_pred.astype(np.int32)).astype(np.float64)
            choice = self._transform_rd(rect, residual)
        mvr = mv_bits(mv, predictor)
        cost = choice.sse + self.lam * (choice.bits + mvr + _SKIP_SIGNAL_BITS)
        # "Skip" here = no residual coded even though MV is explicit.
        skip = choice.bits <= 1.0
        return cost, skip, best_err, best_filt

    # ------------------------------------------------------------------
    # MV prediction
    # ------------------------------------------------------------------
    def _mv_key(self, row: int, col: int) -> tuple[int, int]:
        return (row // self.spec.min_block, col // self.spec.min_block)

    def _predict_mv(self, rect: BlockRect) -> MotionVector:
        neighbours = []
        for dr, dc in ((0, -self.spec.min_block), (-self.spec.min_block, 0),
                       (-self.spec.min_block, -self.spec.min_block)):
            key = self._mv_key(rect.row + dr, rect.col + dc)
            if key in self.mv_field:
                neighbours.append(self.mv_field[key])
        if not neighbours:
            return ZERO_MV
        rows = sorted(mv.row for mv in neighbours)
        cols = sorted(mv.col for mv in neighbours)
        mid = len(neighbours) // 2
        return MotionVector(rows[mid], cols[mid])

    def _store_mvs(self, rect: BlockRect, mv: MotionVector) -> None:
        for row in range(rect.row, rect.row + rect.height, self.spec.min_block):
            for col in range(rect.col, rect.col + rect.width, self.spec.min_block):
                self.mv_field[self._mv_key(row, col)] = mv

    # ------------------------------------------------------------------
    # Applying the chosen plan
    # ------------------------------------------------------------------
    def _apply_plan(self, plan: PartitionPlan | LeafPlan) -> float:
        if isinstance(plan, LeafPlan):
            return self._apply_leaf(plan)
        bits = self._code_symbol(
            f"part.{plan.rect.width}",
            list(PartitionType).index(plan.partition), 4,
        )
        for child in plan.children:
            bits += self._apply_plan(child)
        return bits

    def _code_symbol(self, kind: str, value: int, nbits: int) -> float:
        """Entropy-code a small syntax symbol as literal bits."""
        self.bool_encoder.encode_literal(value & ((1 << nbits) - 1), nbits)
        self.inst.kernel("entropy_bin", nbits)
        self.frame_symbol_count += nbits
        return float(nbits)

    def _apply_leaf(self, plan: LeafPlan) -> float:
        inst = self.inst
        rect = plan.rect
        src_block = self._src_block(rect)
        bits = 0.0

        if plan.is_inter:
            bits += self._code_symbol("mode.inter", 1, 1)
            pred = self._mc_pred(rect, plan.mv, plan.ref_index, plan.interp_filter)
            mv_diff_bits = (
                signed_exp_golomb_bits(plan.mv.row - plan.mv_predictor.row)
                + signed_exp_golomb_bits(plan.mv.col - plan.mv_predictor.col)
            )
            bits += self._code_symbol("mv", 0, max(mv_diff_bits, 1))
            self._store_mvs(rect, plan.mv)
        else:
            bits += self._code_symbol("mode.intra", 0, 1)
            mode_index = self.spec.intra_modes.index(plan.mode)
            bits += self._code_symbol("mode.value", mode_index, 4)
            above, left = extend_neighbours(
                self.recon, rect.row, rect.col, rect.height, rect.width
            )
            pred = predict(plan.mode, above, left, rect.height, rect.width)
            inst.kernel("intra_pred", rect.pixels)
            self._store_mvs(rect, ZERO_MV)

        if plan.skip:
            recon_block = pred
            bits += self._code_symbol("skip", 1, 1)
        else:
            bits += self._code_symbol("skip", 0, 1)
            residual = (src_block - pred.astype(np.int32)).astype(np.float64)
            choice = self._transform_rd(rect, residual)
            prefix = f"{'p' if plan.is_inter else 'i'}.tx{choice.tx_size}"
            for tile_levels in choice.levels:
                tile_bits, symbols = self.coder.code_block(tile_levels, prefix)
                bits += tile_bits
                inst.kernel("entropy_bin", symbols)
                self.frame_symbol_count += symbols
            recon_block = np.clip(
                pred.astype(np.float64) + choice.recon_residual, 0, 255
            ).astype(np.uint8)

        self.recon[
            rect.row : rect.row + rect.height, rect.col : rect.col + rect.width
        ] = recon_block
        inst.kernel("recon", rect.pixels)
        inst.touch(
            self.rec_plane, rect.row, rect.height, rect.col, rect.width,
            write=True,
        )
        return bits

    # ------------------------------------------------------------------
    # Chroma and loop filter
    # ------------------------------------------------------------------
    def _code_chroma_block(self, frame: Frame, rect: BlockRect) -> float:
        """Code both chroma planes under a superblock with DC prediction.

        Chroma carries a small share of encode work in the studied
        encoders; a single DC-predicted transform per plane per
        superblock reproduces its bit and instruction contribution
        without a second full RD search.
        """
        inst = self.inst
        bits = 0.0
        c_row = rect.row // 2
        c_col = rect.col // 2
        c_size = self.sb // 2
        for plane_name, plane in (("u", frame.u), ("v", frame.v)):
            data = plane.data
            if c_row >= data.shape[0] or c_col >= data.shape[1]:
                continue
            block = data[
                c_row : c_row + c_size, c_col : c_col + c_size
            ].astype(np.float64)
            if block.shape != (c_size, c_size):
                block = np.pad(
                    block,
                    ((0, c_size - block.shape[0]), (0, c_size - block.shape[1])),
                    mode="edge",
                )
            dc = float(block.mean())
            inst.kernel("intra_pred", c_size * c_size)
            residual = block - dc
            tx = min(c_size, 16)
            tiles = tile_block(residual, tx)
            coeffs = forward_tx_batch(tiles)
            inst.kernel("fdct", c_size * c_size)
            levels = self.quant.quantize(coeffs)
            inst.kernel("quant", c_size * c_size)
            recon_tiles = inverse_tx_batch(self.quant.dequantize(levels))
            inst.kernel("idct", c_size * c_size)
            for tile_levels in levels:
                tile_bits, symbols = self.coder.code_block(
                    tile_levels, f"c.{plane_name}"
                )
                bits += tile_bits
                inst.kernel("entropy_bin", symbols)
                self.frame_symbol_count += symbols
            bits += 8.0  # DC value
            recon = np.clip(
                dc + untile_block(recon_tiles, c_size, c_size), 0, 255
            ).astype(np.uint8)
            inst.kernel("recon", c_size * c_size)
            target = self._chroma_recon(plane_name)
            th = min(c_size, target.shape[0] - c_row)
            tw = min(c_size, target.shape[1] - c_col)
            if th > 0 and tw > 0:
                target[c_row : c_row + th, c_col : c_col + tw] = recon[:th, :tw]
        return bits

    def _chroma_recon(self, plane_name: str) -> np.ndarray:
        if self._chroma_planes is None:
            height = self.video.height // 2
            width = self.video.width // 2
            self._chroma_planes = {
                "u": np.full((height, width), 128, dtype=np.uint8),
                "v": np.full((height, width), 128, dtype=np.uint8),
            }
        return self._chroma_planes[plane_name]

    def _loop_filter(self) -> None:
        """Deblocking: blend across block-grid edges where the step is
        small (a quantisation artifact, not a real edge)."""
        inst = self.inst
        recon = self.recon.astype(np.int16)
        threshold = max(2.0, min(self.step, 8.0))
        grid = self.spec.min_block
        height, width = recon.shape
        for col in range(grid, width, grid):
            a = recon[:, col - 1]
            b = recon[:, col]
            mask = np.abs(a - b) < threshold
            avg = (a + b) // 2
            recon[:, col - 1] = np.where(mask, (a + avg) // 2, a)
            recon[:, col] = np.where(mask, (b + avg) // 2, b)
        for row in range(grid, height, grid):
            a = recon[row - 1, :]
            b = recon[row, :]
            mask = np.abs(a - b) < threshold
            avg = (a + b) // 2
            recon[row - 1, :] = np.where(mask, (a + avg) // 2, a)
            recon[row, :] = np.where(mask, (b + avg) // 2, b)
        self.recon = np.clip(recon, 0, 255).astype(np.uint8)
        inst.kernel("loop_filter", self.recon.size)
        inst.touch(self.rec_plane, 0, height, 0, width, write=True)
        inst.loop(
            inst.site(f"{self.spec.family}.lf.colloop"),
            trip_count=max(width // grid, 1),
        )
