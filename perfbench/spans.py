"""In-memory span recorder wrapped around the program's public entry points.

The benchmark never edits the program: :func:`instrument` swaps module
and class attributes for thin wrappers that record one span per call
(name, start, end, parent, attributes) and restores the originals on
exit.  Spans stay in a list until the run ends; :func:`self_times`
derives each span's self time (its duration minus the part of its
interval its children cover).

Only the benchmark process records.  Pool workers are forked with the
wrappers in place, but their spans die with them; pooled per-layer
figures come from parent-side spans and the run's metrics registry.
"""

from __future__ import annotations

import json
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    attrs: dict[str, Any] = field(default_factory=dict)
    end: float | None = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class Recorder:
    """Collects spans of one process; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: While false the patched entry points call straight through,
        #: so a traced run can time untraced passes for comparison.
        self.active = True
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent, attrs)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def ancestor_attr(self, index: int, key: str) -> Any:
        """The nearest value of ``key`` on the span or its ancestors."""
        current: int | None = index
        while current is not None:
            span = self.spans[current]
            if key in span.attrs:
                return span.attrs[key]
            current = span.parent
        return None

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (called once, at run end)."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "parent": span.parent,
                    "start": span.start, "end": span.end,
                    "attrs": span.attrs,
                }) + "\n")


def self_times(recorder: Recorder) -> list[float]:
    """Per-span self time: duration minus the time its children cover.

    Spans nest (one thread), so children of one parent never overlap
    and each lies inside its parent: the covered time is their sum.
    """
    covered = [0.0] * len(recorder.spans)
    for span in recorder.spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(recorder.spans, covered)]


def _wrap(
    stack: ExitStack,
    owner: Any,
    attr: str,
    recorder: Recorder,
    name: str,
    attrs: Callable[..., dict[str, Any]] | None = None,
    after: Callable[..., None] | None = None,
) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper until exit.

    ``attrs(*args, **kwargs)`` adds call attributes; ``after(span,
    result, *args, **kwargs)`` records counts from the result.
    """
    original = getattr(owner, attr)

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not recorder.active:
            return original(*args, **kwargs)
        extra = attrs(*args, **kwargs) if attrs is not None else {}
        with recorder.span(name, **extra) as span:
            result = original(*args, **kwargs)
            if after is not None:
                after(span, result, *args, **kwargs)
            return result

    wrapper.__wrapped__ = original  # type: ignore[attr-defined]
    setattr(owner, attr, wrapper)
    stack.callback(setattr, owner, attr, original)


def _record_hierarchy(span: Span, _result: Any, hierarchy: Any, lines: Any) -> None:
    stats = hierarchy.stats()
    span.attrs.update(
        lines=int(lines.size),
        l1d_misses=stats.l1d_misses,
        l2_misses=stats.l2_misses,
        llc_misses=stats.llc_misses,
    )


def _record_batch(span: Span, results: Any, *_args: Any, **_kwargs: Any) -> None:
    span.attrs.update(
        events=sum(row.branches for row in results),
        mispredicts=sum(row.mispredicts for row in results),
    )


def _record_cells(span: Span, reports: Any, *_args: Any, **_kwargs: Any) -> None:
    span.attrs["cells"] = len(reports)


@contextmanager
def instrument(recorder: Recorder) -> Iterator[Recorder]:
    """Record spans at every layer boundary the benchmark measures.

    Call sites bind some entry points by name at import, so each is
    patched where it is looked up: ``perfcounters`` for the branch and
    core models, ``cbp.harness`` for batched replay, ``validate.engine``
    for experiment runs and claim evaluation.
    """
    from repro.cbp import harness, traces
    from repro.codecs.pipeline import PipelineEncoder
    from repro.parallel import pool
    from repro.trace import sampling
    from repro.uarch import cache, perfcounters
    from repro.validate import engine

    with ExitStack() as stack:
        wrap = lambda *a, **k: _wrap(stack, *a, **k)  # noqa: E731
        wrap(PipelineEncoder, "encode", recorder, "codecs.encode",
             attrs=lambda self, *a, **k: {"codec": self.name})
        wrap(cache, "expand_touches", recorder, "uarch.cache.expand")
        wrap(cache.CacheHierarchy, "access_lines", recorder,
             "uarch.cache.classify", after=_record_hierarchy)
        wrap(sampling, "extract_midpoint_window", recorder, "trace.midpoint")
        wrap(traces, "extract_midpoint_window", recorder, "trace.midpoint")
        wrap(perfcounters, "run_trace", recorder, "uarch.branch.replay")
        wrap(perfcounters, "model_loops", recorder, "uarch.branch.loop_model")
        wrap(perfcounters, "run_core_model", recorder,
             "uarch.pipeline.core_model")
        wrap(harness, "run_trace_batch", recorder, "uarch.branch.replay_batch",
             attrs=lambda factory, traces_, name=None: {"predictor": name},
             after=_record_batch)
        wrap(pool, "execute_cells", recorder, "parallel.execute_cells",
             attrs=lambda session, specs, workers=None: {"workers": workers},
             after=_record_cells)
        wrap(engine, "run_experiment", recorder, "experiments.run",
             attrs=lambda experiment_id, *a, **k: {"experiment": experiment_id})
        wrap(engine, "evaluate_result_claims", recorder, "validate.claims")
        yield recorder
