"""Benchmark entry point.

    python3 perfbench/run.py --workload cells-cold --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its
``src/`` directory.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics.  The exit code is 0 only when
every operation ran and matched its reference.  ``--record`` stores the
run's outputs as the reference for its seed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from multiprocessing import resource_tracker
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench"
REFERENCE_DIR = BENCH_DIR / "reference"
WORKLOADS = ("cells-cold", "cbp-replay", "validate-pooled")

#: validate-pooled runs the fixed paper grid, so one reference serves
#: every seed.
SEEDLESS = {"validate-pooled"}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's outputs as the seed's reference")
    return parser.parse_args(argv)


def isolate_environment() -> None:
    """Measure the default production path: drop every REPRO_* override."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def import_program() -> float:
    """Import the program from the checkout; return the seconds it took."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    location = Path(repro.__file__).resolve()
    if ROOT / "src" not in location.parents:
        raise ImportError(f"repro imported from {location}, not this checkout")
    import repro.cbp  # noqa: F401
    import repro.core  # noqa: F401
    import repro.parallel  # noqa: F401
    import repro.validate  # noqa: F401
    return time.perf_counter() - start


def metric_specs() -> dict[str, list[dict]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def peak_rss_mib() -> float:
    """Max RSS of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def is_traced(workload, index: int, trace: bool) -> bool:
    return trace and index >= workload.first_traced and (index - workload.first_traced) % 2 == 0


def run_passes(workload, seconds: float, trace: bool, recorder):
    """Closed loop: repeat passes while the next one fits in ``seconds``."""
    passes, roots = [], []
    min_passes = max(workload.min_passes, workload.first_traced + 2 if trace else 0)
    start = time.perf_counter()
    while True:
        index = len(passes)
        traced = is_traced(workload, index, trace)
        if recorder is not None:
            recorder.active = traced
        if traced:
            with recorder.span("bench.pass", index=index):
                roots.append(len(recorder.spans) - 1)
                result = workload.run_pass(recorder)
        else:
            result = workload.run_pass(None)
        result.traced = traced
        passes.append(result)
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + result.seconds > seconds:
            break
    if recorder is not None:
        recorder.active = False
    return passes, roots


def check(workload, seed: int, passes) -> tuple[int, int, dict]:
    """Compare every pass's outputs with the reference; count failures.

    Without a reference for this seed, the first pass stands in, which
    checks run-to-run determinism only (reported on stderr).
    """
    reference_path = REFERENCE_DIR / f"{workload.name}.json"
    references = (json.loads(reference_path.read_text())
                  if reference_path.exists() else {})
    key = "any" if workload.name in SEEDLESS else str(seed)
    expected = references.get(key)
    if expected is None:
        print(f"note: no reference for {workload.name} seed {key}; "
              "checking run-to-run determinism only", file=sys.stderr)
        expected = passes[0].outputs
    keys = workload.keys()
    attempted = failed = 0
    for number, result in enumerate(passes):
        for name, error in result.errors.items():
            print(f"error: pass {number} {name}: {error}", file=sys.stderr)
        for name in keys:
            attempted += 1
            if name not in result.outputs or result.outputs[name] != expected.get(name):
                failed += 1
                print(f"mismatch: pass {number} {name}: "
                      f"{result.outputs.get(name)!r} != {expected.get(name)!r}",
                      file=sys.stderr)
    return attempted, failed, {key: passes[0].outputs}


def end_to_end(workload, setup_s: float, passes, attempted: int, failed: int) -> dict[str, float]:
    timed = workload.timed(passes)
    print(f"{len(timed)} timed pass(es), {len(passes)} pass(es) in all")
    if workload.name == "validate-pooled":
        from workloads import claims_passed

        print(f"claims passed: {claims_passed(passes[0])}/{len(workload.keys())} (cold pass)")
    busy = sum(result.seconds for result in timed)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(result.seconds for result in timed),
        "peak_rss_mib": peak_rss_mib(),
        "ok_ratio": (attempted - failed) / attempted,
        "sim_mops_per_s": sum(result.sim_ops for result in timed) / busy / 1e6,
    }


def op_times(workload, passes) -> dict[str, float]:
    """Median and slowest op of the timed passes, with the sample count.

    Ops last 0.2-11 s, and host noise moves windows that short by up to
    20 %, so these are per-layer figures and carry no bound.
    """
    op_seconds = [s for result in workload.timed(passes) for s in result.op_seconds]
    return {
        "bench.op_p50_s": statistics.median(op_seconds) if op_seconds else 0.0,
        "bench.op_max_s": max(op_seconds, default=0.0),
        "bench.op_samples": float(len(op_seconds)),
    }


def trace_overhead(workload, passes) -> float:
    repeats = passes[workload.repeat_from:]
    traced = [p.seconds for p in repeats if p.traced]
    plain = [p.seconds for p in repeats if not p.traced]
    return statistics.median(traced) / statistics.median(plain)


def shaped(values: dict[str, float], specs: list[dict], fill_missing: bool) -> dict:
    """Order ``values`` as ``BENCHMARK.json`` lists them, with units.

    Per-layer metrics of a layer this workload does not exercise read 0;
    a computed name missing from the file is a benchmark bug.
    """
    names = {spec["name"] for spec in specs}
    unknown = sorted(set(values) - names)
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    out = {}
    for spec in specs:
        if spec["name"] not in values and not fill_missing:
            raise KeyError(f"metric {spec['name']} was not measured")
        out[spec["name"]] = {"value": float(values.get(spec["name"], 0.0)),
                             "unit": spec["unit"]}
    return out


def make_workload(name: str, work_dir: str):
    from workloads import CbpReplay, CellsCold, ValidatePooled

    if name == "cells-cold":
        return CellsCold()
    if name == "cbp-replay":
        return CbpReplay()
    return ValidatePooled(work_dir)


def run(args: argparse.Namespace, work_dir: str) -> tuple[dict, bool, dict]:
    import_s = import_program()
    import numpy

    from spans import Recorder, instrument

    specs = metric_specs()
    host = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}
    print("host: " + json.dumps(host, sort_keys=True))
    recorder = Recorder() if args.trace else None
    workload = make_workload(args.workload, work_dir)
    with instrument(recorder) if recorder is not None else nullcontext():
        try:
            setup_s = import_s + workload.setup(args.seed, recorder)
            passes, roots = run_passes(workload, args.seconds, bool(args.trace), recorder)
            attempted, failed, record = check(workload, args.seed, passes)
            if recorder is None:
                values = end_to_end(workload, setup_s, passes, attempted, failed)
                metrics = shaped(values, specs["end_to_end"], fill_missing=False)
            else:
                values = workload.layer_metrics(recorder, passes, roots)
                values["bench.trace_overhead_share"] = trace_overhead(workload, passes)
                values.update(op_times(workload, passes))
                metrics = shaped(values, specs["per_layer"], fill_missing=True)
        finally:
            workload.close()
    summary = {"correct": failed == 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if recorder is not None:
        recorder.dump(str(WORK_DIR / f"spans-{stem}.jsonl"))
    details = {"host": host, "seconds": args.seconds, "summary": summary,
               "passes": [{"seconds": p.seconds, "traced": p.traced,
                           "op_seconds": p.op_seconds} for p in passes]}
    (WORK_DIR / f"result-{stem}.json").write_text(json.dumps(details, indent=1))
    return summary, failed == 0, record


def stop_children(grace: float = 5.0) -> None:
    """Stop every process the run started and wait until each has ended.

    Pool workers ignore SIGTERM (the pool leaves shutdown to its parent),
    so a worker still alive after ``grace`` seconds is killed.  The
    resource tracker that ``multiprocessing`` starts for shared memory
    is not a child in ``active_children()`` and would otherwise outlive
    this process: closing its pipe stops it, and ``_stop`` reaps it.
    """
    for child in multiprocessing.active_children():
        child.join(grace)
        if child.is_alive():
            child.kill()
            child.join()
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()


def exit_on_sigterm(signum, _frame) -> None:
    """Turn SIGTERM into SystemExit so the clean-up in ``main`` runs."""
    sys.exit(128 + signum)


def record_reference(workload: str, record: dict) -> None:
    path = REFERENCE_DIR / f"{workload}.json"
    references = json.loads(path.read_text()) if path.exists() else {}
    references.update(record)
    REFERENCE_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    isolate_environment()
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no program to benchmark (src/repro) "
              "or no BENCHMARK.json", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        summary, ok, record = run(args, work_dir)
    finally:
        stop_children()
        shutil.rmtree(work_dir, ignore_errors=True)
    if args.record and ok:
        record_reference(args.workload, record)
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
