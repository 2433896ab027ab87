"""The three benchmark workloads: set-up, timed passes, checks, layer metrics.

Each workload is a closed loop with one client: the next pass starts
only after the previous one returns, and throughput is work completed
per host second at the input size stated on the workload.  A pass
returns the operations it attempted (cells, (trace, predictor) pairs
or claims), their host durations and a fingerprint of their simulated
outputs; :mod:`run` compares fingerprints against the committed
references.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

from spans import Recorder, self_times

CODECS = ("x264", "x265", "libvpx-vp9", "libaom", "svt-av1")

#: cells-cold: one fig04 cell per codec (game1, CRF 30, preset 4).
CELL_CLIP, CELL_CRF, CELL_PRESET, CELL_FRAMES = "game1", 30, 4, 2

#: cbp-replay: the paper's three capture points (figure, preset, CRF).
CAPTURE_POINTS = (("fig08", 8, 63), ("fig09", 4, 10), ("fig10", 4, 60))
CBP_CLIPS, CBP_FRAMES = ("desktop", "game1", "hall"), 4

#: validate-pooled: pool size (the benchmark host has two cores).
VALIDATE_WORKERS = 2

PREDICTORS = (
    "gshare-2KB", "gshare-32KB", "tage-8KB", "tage-64KB",
    "tournament-8KB", "perceptron",
)

#: Repeats of a cheap set-up; ``setup_s`` reports their median.
SETUP_REPEATS = 5

#: Paired full/counting-only encodes per codec for ``trace.instrument_s``.
INSTRUMENT_PAIRS = 3


@dataclass
class PassResult:
    """One timed pass: its duration and the operations it ran."""

    seconds: float
    op_seconds: list[float]
    outputs: dict[str, Any]
    errors: dict[str, str] = field(default_factory=dict)
    traced: bool = False
    sim_ops: float = 0.0
    #: The pass's observability context (validate-pooled only).
    obs: Any = None


def digest(value: Any) -> str:
    """Stable fingerprint of a JSON-able simulated result."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def seeded_clip(name: str, frames: int, seed: int):
    """The catalog clip ``name`` with its content reseeded.

    Seed 0 is the catalog clip itself.  The program receives only the
    generated :class:`~repro.video.frame.Video`.
    """
    from repro.video import synthetic, vbench

    spec = dataclasses.replace(vbench.entry(name).spec(frames), seed=seed)
    return synthetic.generate(spec)


def warm_up() -> None:
    """One throwaway tiny encode, so lazy imports and first-call costs
    are paid before any timing."""
    from repro.codecs import create_encoder
    from repro.core import characterize
    from repro.video import synthetic

    spec = synthetic.ContentSpec(
        name="warmup", width=64, height=64, fps=30.0, num_frames=2,
        entropy=4.0, style="natural",
    )
    characterize(create_encoder("svt-av1", crf=40, preset=8),
                 synthetic.generate(spec))


def median_setup(unit: Callable[[], Any], repeats: int = SETUP_REPEATS) -> tuple[float, Any]:
    """Run a set-up ``repeats`` times; return (median seconds, last state)."""
    times, state = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        state = unit()
        times.append(time.perf_counter() - start)
    return statistics.median(times), state


def span_sum(recorder: Recorder, name: str, inside: list[bool], key: str | None = None) -> dict[Any, float]:
    """Summed durations of spans called ``name`` under marked roots,
    grouped by the nearest ancestor value of ``key``."""
    totals: dict[Any, float] = {}
    for index, span in enumerate(recorder.spans):
        if span.name == name and inside[index]:
            group = recorder.ancestor_attr(index, key) if key else None
            totals[group] = totals.get(group, 0.0) + span.duration
    return totals


def under(recorder: Recorder, roots: set[int]) -> list[bool]:
    """For each span, whether it is one of ``roots`` or below one."""
    flags: list[bool] = []
    for index, span in enumerate(recorder.spans):
        flags.append(index in roots or (span.parent is not None and flags[span.parent]))
    return flags


# -- cells-cold ---------------------------------------------------------------


class CellsCold:
    """Serial cold ``characterize`` of one fig04 cell per codec."""

    name = "cells-cold"
    min_passes = 1
    #: Traced runs alternate untraced (even) and traced (odd) passes.
    first_traced = 1
    #: Passes from this index on repeat identical work (the overhead
    #: share compares traced and untraced ones).
    repeat_from = 0

    def keys(self) -> list[str]:
        return list(CODECS)

    def timed(self, passes: list[PassResult]) -> list[PassResult]:
        return passes

    def setup(self, seed: int, recorder: Recorder | None) -> float:
        def unit():
            warm_up()
            return seeded_clip(CELL_CLIP, CELL_FRAMES, seed)

        seconds, self.video = median_setup(unit)
        return seconds

    def run_pass(self, recorder: Recorder | None) -> PassResult:
        from repro.codecs import create_encoder
        from repro.core import characterize, to_jsonable

        op_seconds, outputs, errors, instructions = [], {}, {}, 0.0
        start = time.perf_counter()
        for codec in CODECS:
            encoder = create_encoder(codec, crf=CELL_CRF, preset=CELL_PRESET)
            cell_start = time.perf_counter()
            try:
                if recorder is None:
                    report = characterize(encoder, self.video)
                else:
                    with recorder.span("core.characterize", codec=codec):
                        report = characterize(encoder, self.video)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                errors[codec] = f"{type(exc).__name__}: {exc}"
                continue
            op_seconds.append(time.perf_counter() - cell_start)
            outputs[codec] = digest(to_jsonable(report))
            instructions += report.proxy_instructions
        return PassResult(
            seconds=time.perf_counter() - start, op_seconds=op_seconds,
            outputs=outputs, errors=errors, sim_ops=instructions,
        )

    def extra_layers(self) -> dict[str, float]:
        """Instrumentation overhead, the stand-in for Pin's cost.

        Encodes each cell with the full recording instrumenter and with
        a counting-only one, alternating which runs first, and reports
        the median paired difference.  Runs untraced, after the body.
        """
        from repro.codecs import create_encoder
        from repro.core import workload_scales
        from repro.trace.instrument import Instrumenter

        scale_h, scale_w, _, _ = workload_scales(self.video)
        metrics = {}
        for codec in CODECS:
            encoder = create_encoder(codec, crf=CELL_CRF, preset=CELL_PRESET)
            diffs = []
            for pair in range(INSTRUMENT_PAIRS):
                timings = {}
                for full in ((True, False) if pair % 2 == 0 else (False, True)):
                    inst = None if full else Instrumenter(
                        record_branches=False, record_touches=False)
                    start = time.perf_counter()
                    encoder.encode(self.video, instrumenter=inst,
                                   footprint_scale=(scale_h, scale_w))
                    timings[full] = time.perf_counter() - start
                diffs.append(timings[True] - timings[False])
            metrics[f"trace.instrument_s.{codec}"] = statistics.median(diffs)
        return metrics

    def layer_metrics(self, recorder: Recorder, passes: list[PassResult], roots: list[int]) -> dict[str, float]:
        inside = under(recorder, set(roots))
        count = len(roots)
        per_codec = {
            "codecs.encode_s": "codecs.encode",
            "uarch.cache.expand_s": "uarch.cache.expand",
            "uarch.cache.classify_s": "uarch.cache.classify",
        }
        metrics: dict[str, float] = {}
        for metric, span_name in per_codec.items():
            totals = span_sum(recorder, span_name, inside, key="codec")
            for codec in CODECS:
                metrics[f"{metric}.{codec}"] = totals.get(codec, 0.0) / count
        lines_total = classify_total = 0.0
        selfs = self_times(recorder)
        unattributed: dict[str, float] = {}
        for index, span in enumerate(recorder.spans):
            if not inside[index]:
                continue
            if span.name == "uarch.cache.classify":
                codec = recorder.ancestor_attr(index, "codec")
                for attr in ("lines", "l1d_misses", "l2_misses", "llc_misses"):
                    name = ("uarch.cache.lines" if attr == "lines"
                            else f"uarch.cache.{attr}")
                    metrics[f"{name}.{codec}"] = float(span.attrs[attr])
                lines_total += span.attrs["lines"]
                classify_total += span.duration
            elif span.name == "core.characterize":
                codec = span.attrs["codec"]
                unattributed[codec] = unattributed.get(codec, 0.0) + selfs[index]
        metrics["uarch.cache.ns_per_line"] = (
            classify_total / lines_total * 1e9 if lines_total else 0.0)
        for codec in CODECS:
            metrics[f"core.unattributed_s.{codec}"] = unattributed.get(codec, 0.0) / count
        for metric, span_name in (
            ("trace.midpoint_s", "trace.midpoint"),
            ("uarch.branch.replay_s", "uarch.branch.replay"),
            ("uarch.branch.loop_model_s", "uarch.branch.loop_model"),
            ("uarch.pipeline.core_model_s", "uarch.pipeline.core_model"),
        ):
            metrics[metric] = sum(span_sum(recorder, span_name, inside).values()) / count
        metrics.update(self.extra_layers())
        return metrics

    def close(self) -> None:
        pass


# -- cbp-replay ---------------------------------------------------------------


def predictor_factories() -> dict[str, Callable[[], Any]]:
    """The paper's four CBP configurations plus the two extensions."""
    from repro.uarch.branch import (
        PAPER_PREDICTORS,
        PerceptronPredictor,
        TournamentPredictor,
    )

    factories = dict(PAPER_PREDICTORS)
    factories["tournament-8KB"] = TournamentPredictor
    factories["perceptron"] = PerceptronPredictor
    if tuple(factories) != PREDICTORS:
        raise RuntimeError(f"predictor set changed: {tuple(factories)}")
    return factories


class CbpReplay:
    """CBP championship over SVT-AV1 traces from the three capture points."""

    name = "cbp-replay"
    min_passes = 1
    first_traced = 1
    repeat_from = 0

    def keys(self) -> list[str]:
        return [f"{name}|{trace.name}" for name in PREDICTORS for trace in self.traces]

    def timed(self, passes: list[PassResult]) -> list[PassResult]:
        return passes

    def setup(self, seed: int, recorder: Recorder | None) -> float:
        """Generate the clips and capture the nine traces (done once: at
        about 20 s a capture is too costly to repeat in a run)."""
        from repro.cbp import capture_trace

        start = time.perf_counter()
        warm_up()
        with _maybe_span(recorder, "video.generate"):
            videos = [seeded_clip(clip, CBP_FRAMES, seed) for clip in CBP_CLIPS]
        self.traces = []
        with _maybe_span(recorder, "cbp.capture"):
            for _figure, preset, crf in CAPTURE_POINTS:
                for video in videos:
                    self.traces.append(capture_trace(
                        video, crf=crf, preset=preset,
                        fraction=1.0 if preset == 8 else 0.6,
                        max_events=None,
                    ))
        self.factories = predictor_factories()
        self.events = sum(len(trace) for trace in self.traces)
        return time.perf_counter() - start

    def run_pass(self, recorder: Recorder | None) -> PassResult:
        from repro.cbp import run_championship

        op_seconds, outputs, errors = [], {}, {}
        start = time.perf_counter()
        for name, factory in self.factories.items():
            op_start = time.perf_counter()
            try:
                result = run_championship(self.traces, {name: factory})
            except Exception as exc:  # noqa: BLE001 - counted as failed ops
                errors[name] = f"{type(exc).__name__}: {exc}"
                continue
            op_seconds.append(time.perf_counter() - op_start)
            for row in result.results:
                outputs[f"{name}|{row.trace}"] = row.mispredicts
        seconds = time.perf_counter() - start
        return PassResult(
            seconds=seconds, op_seconds=op_seconds, outputs=outputs,
            errors=errors, sim_ops=float(self.events * (len(self.factories) - len(errors))),
        )

    def layer_metrics(self, recorder: Recorder, passes: list[PassResult], roots: list[int]) -> dict[str, float]:
        inside = under(recorder, set(roots))
        count = len(roots)
        metrics: dict[str, float] = {"uarch.branch.events": float(self.events)}
        replay = span_sum(recorder, "uarch.branch.replay_batch", inside, key="predictor")
        mispredicts: dict[str, int] = {}
        for index, span in enumerate(recorder.spans):
            if inside[index] and span.name == "uarch.branch.replay_batch":
                mispredicts[span.attrs["predictor"]] = span.attrs["mispredicts"]
        for name in PREDICTORS:
            seconds = replay.get(name, 0.0) / count
            metrics[f"uarch.branch.replay_s.{name}"] = seconds
            metrics[f"uarch.branch.ns_per_event.{name}"] = seconds / self.events * 1e9
            metrics[f"uarch.branch.mispredicts.{name}"] = float(mispredicts.get(name, 0))
        capture = {i for i, s in enumerate(recorder.spans) if s.name == "cbp.capture"}
        generate = {i for i, s in enumerate(recorder.spans) if s.name == "video.generate"}
        setup = under(recorder, capture)
        metrics["cbp.capture_s"] = sum(recorder.spans[i].duration for i in capture)
        metrics["video.generate_s"] = sum(recorder.spans[i].duration for i in generate)
        metrics["codecs.encode_s.svt-av1"] = span_sum(recorder, "codecs.encode", setup).get(None, 0.0)
        metrics["trace.midpoint_s"] = span_sum(recorder, "trace.midpoint", setup).get(None, 0.0)
        return metrics

    def close(self) -> None:
        pass


# -- validate-pooled ----------------------------------------------------------


def claims_passed(result: PassResult) -> int:
    """Claims of one validation pass whose verdict is ``pass``."""
    return sum(str(v).startswith("pass:") for v in result.outputs.values())


class ValidatePooled:
    """Cold then warm ``REPRO_FAST`` claims validation over a 2-worker pool.

    Experiments load their clips by catalog name, so this workload runs
    the fixed paper grid whatever the seed.
    """

    name = "validate-pooled"
    #: The cold pass plus at least three warm passes.
    min_passes = 4
    #: The cold pass is traced; warm passes then alternate.
    first_traced = 0
    repeat_from = 1

    def __init__(self, work_dir: str) -> None:
        self.work_dir = work_dir
        self.cache_dir: str | None = None
        self._restore: tuple[Any, Any] | None = None

    def keys(self) -> list[str]:
        from repro.validate import CLAIMS

        return [claim.claim_id for claim in CLAIMS]

    def timed(self, passes: list[PassResult]) -> list[PassResult]:
        """End-to-end figures describe the cold pass."""
        return passes[:1]

    def setup(self, seed: int, recorder: Recorder | None) -> float:
        from repro.parallel import pool

        os.environ["REPRO_FAST"] = "1"

        def unit():
            warm_up()
            return tempfile.mkdtemp(prefix="result-cache-", dir=self.work_dir)

        seconds, self.cache_dir = median_setup(unit)
        # Tap the pool's results so the simulated instruction count of
        # the cold pass is known without reading the result cache.
        self.cell_reports: list[Any] = []
        original = pool.execute_cells

        def execute_cells(*args, **kwargs):
            reports = original(*args, **kwargs)
            self.cell_reports.extend(r for r in reports if r is not None)
            return reports

        self._restore = (pool, original)
        pool.execute_cells = execute_cells
        return seconds

    def run_pass(self, recorder: Recorder | None) -> PassResult:
        from repro.obs.context import ObsContext
        from repro.validate import validate

        obs = ObsContext()
        self.cell_reports = []
        start = time.perf_counter()
        outputs, errors = {}, {}
        try:
            report = validate(workers=VALIDATE_WORKERS, cache_dir=self.cache_dir,
                              with_invariants=False, obs=obs)
        except Exception as exc:  # noqa: BLE001 - every claim counts as failed
            errors["validate"] = f"{type(exc).__name__}: {exc}"
        else:
            for verdict in report.claims:
                body = verdict.as_dict()
                measured = {k: body[k] for k in ("status", "pass_fraction", "groups")}
                outputs[verdict.claim_id] = f"{body['status']}:{digest(measured)}"
        seconds = time.perf_counter() - start
        durations = list(obs.cell_durations().values())
        return PassResult(
            seconds=seconds, op_seconds=durations, outputs=outputs,
            errors=errors, obs=obs,
            # Cells dispatched again and served from the cache count once.
            sim_ops=sum({(r.codec, r.video, r.crf, r.preset): r.proxy_instructions
                         for r in self.cell_reports}.values()),
        )

    def layer_metrics(self, recorder: Recorder, passes: list[PassResult], roots: list[int]) -> dict[str, float]:
        from repro.validate import claim_experiments

        cold_root, cold = roots[0], passes[0]
        inside = under(recorder, {cold_root})
        metrics: dict[str, float] = {}
        experiments = span_sum(recorder, "experiments.run", inside, key="experiment")
        for experiment_id in claim_experiments():
            metrics[f"experiments.{experiment_id}_s"] = experiments.get(experiment_id, 0.0)
        execute_s = sum(span_sum(recorder, "parallel.execute_cells", inside).values())
        cells = sum(
            span.attrs.get("cells", 0)
            for index, span in enumerate(recorder.spans)
            if inside[index] and span.name == "parallel.execute_cells"
        )
        busy = sum(cold.op_seconds)
        metrics["parallel.execute_cells_s"] = execute_s
        metrics["parallel.cells"] = float(cells)
        metrics["parallel.worker_busy_share"] = (
            busy / (VALIDATE_WORKERS * execute_s) if execute_s else 0.0)
        metrics["validate.claims_s"] = sum(span_sum(recorder, "validate.claims", inside).values())
        cold_counters = cold.obs.metrics.snapshot()["counters"]
        warm_counters = passes[1].obs.metrics.snapshot()["counters"]
        hits = warm_counters.get("cache.hits", 0.0)
        lookups = hits + warm_counters.get("cache.misses", 0.0)
        metrics["cache.store.writes"] = float(cold_counters.get("cache.writes", 0.0))
        metrics["cache.store.misses"] = float(cold_counters.get("cache.misses", 0.0))
        metrics["cache.store.hits"] = float(hits)
        metrics["cache.store.hit_ratio"] = hits / lookups if lookups else 0.0
        metrics["validate.warm_pass_s"] = statistics.median(p.seconds for p in passes[1:])
        metrics["validate.claims_passed"] = float(claims_passed(cold))
        return metrics

    def close(self) -> None:
        if self._restore is not None:
            module, original = self._restore
            module.execute_cells = original
        os.environ.pop("REPRO_FAST", None)


def _maybe_span(recorder: Recorder | None, name: str):
    """``recorder.span(name)`` when tracing, a no-op context otherwise."""
    return recorder.span(name) if recorder is not None else nullcontext()
