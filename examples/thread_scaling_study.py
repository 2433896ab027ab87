"""Thread-scalability study: the paper's §4.6 / Figs. 12-16 workflow.

Builds each encoder's threading-model task graph from a real
instrumented encode of ``game1``, schedules it on 1-8 simulated
workers, and prints the speedup curves plus the multi-threaded
top-down shift (x265 turning backend-bound).

Run:  python examples/thread_scaling_study.py
"""

from repro.core import CellSpec, Session, scale_crf, thread_study
from repro.experiments.common import THREAD_CODECS
from repro.parallel.pool import execute_cells


def main() -> None:
    session = Session()
    threads = range(1, 9)
    specs = [
        CellSpec(
            codec, "game1", scale_crf(codec, 50),
            6 if codec in ("svt-av1", "libaom") else 5,
        )
        for codec in THREAD_CODECS
    ]
    reports = execute_cells(session, specs)

    print("speedup vs threads (game1):\n")
    print(f"{'codec':>9}  " + "  ".join(f"T{t}" for t in threads))
    studies = {}
    for spec, report in zip(specs, reports):
        codec = spec.codec
        study = thread_study(
            session, spec, report, max_threads=8, num_frames=8
        )
        studies[codec] = study
        speedups = "  ".join(
            f"{point.speedup:4.2f}" for point in study.curve.points
        )
        print(f"{codec:>9}  {speedups}")

    print("\nbackend-bound share vs threads (Fig 16):\n")
    print(f"{'codec':>9}  " + "  ".join(f"T{t}" for t in threads))
    for codec, study in studies.items():
        shares = "  ".join(
            f"{study.topdowns[t].backend:4.2f}" for t in threads
        )
        print(f"{codec:>9}  {shares}")
    print(
        "\nSVT-AV1 reaches ~6x while x265 saturates near 1.3x and grows "
        "backend-bound — the paper's §4.6 findings."
    )


if __name__ == "__main__":
    main()
