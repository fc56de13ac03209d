"""cardiomr benchmark: seeded phantom workloads, checked outputs, JSON result.

Run from the root of a source checkout:

    python3 bench/run.py --workload acdc_pipeline --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the named workload end to end and prints its
end-to-end metrics. ``--trace 1`` runs the traced layer sweep instead (a
fixed amount of work, see ``tracing.py``) and prints the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("acdc_pipeline", "cohort_classify", "train_batches")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_checkout_sources() -> None:
    """Put the checkout's ``src`` first on the path and insist it is what loads."""
    if not (SRC / "cardiomr" / "__init__.py").is_file():
        sys.exit(f"error: no cardiomr sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import cardiomr

    if Path(cardiomr.__file__).resolve().parent != (SRC / "cardiomr").resolve():
        sys.exit(f"error: imported cardiomr from {cardiomr.__file__}, not from {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_checkout_sources()
    import workloads

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        if args.trace:
            import tracing

            outcome = tracing.layer_sweep(args.seed, work, ROOT / ".bench_out")
        else:
            outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in outcome.notes:
        print(line)
    for problem in outcome.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
