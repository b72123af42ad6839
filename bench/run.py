"""exorb benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload classify|analyze-e7|verify \
        --seed N --seconds S --trace 0|1

The run checks the reference tables' sha256, times the workload's set-up in
fresh interpreters, sets the workload up in this process, then runs whole
rounds of its operations until S seconds have passed (at least one round),
checking every output.  A fixed reference kernel is timed before and after
every operation, and each operation's time is reported in multiples of the
mean of those two reference times (unit `ref`), which cancels most of the
drift in this kind of shared machine's speed.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it wraps the program's public functions
and reports the per-layer metrics instead.  The last line of stdout is the
result object; the full record (wall-clock and reference times of every
operation, spans when traced) is written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 5
END_TO_END_UNITS = {
    "setup_s": "s",
    "total_ref": "ref",
    "max_op_ref": "ref",
    "peak_rss_mb": "MB",
}
REFERENCE_SIZE = 22
PROBE_TIMEOUT_S = 60


def _fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def reference_kernel() -> int:
    """Exact row reduction of a fixed integer matrix over the rationals.

    The program's work is mostly Python-level `Fraction` arithmetic, and
    this kernel slows down with the machine as the program does; it shares
    no code with the program, so no change to the program moves it.  About
    50 ms on a 2-core Xeon VM.  Returns the rank (22) so the work is used.
    """
    n = REFERENCE_SIZE
    rng = random.Random(20130105)
    m = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
    rank = 0
    for c in range(n):
        p = next((i for i in range(rank, n) if m[i][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(n):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def time_reference() -> float:
    t0 = time.perf_counter()
    if reference_kernel() != REFERENCE_SIZE:
        _fail("the reference kernel computed a wrong rank")
    return time.perf_counter() - t0


def machine_stamp() -> dict:
    import numpy

    rev = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": rev,
    }


def time_setup(workload: str, seed: int) -> list[dict]:
    """Run the set-up probe in fresh interpreters, one at a time."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr}")
        phases = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append({"wall_s": wall, **phases})
    return samples


def setup_layers(samples: list[dict]) -> dict[str, float]:
    """Per-layer set-up figures: medians over the fresh-process probes."""
    rest = [  # interpreter start, `import exorb`, exit
        s["wall_s"] - s["build_s"] - s["tables_s"] - s["representatives_s"]
        for s in samples
    ]
    return {
        "algebra.build_lie_algebra_s": statistics.median(s["build_s"] for s in samples),
        "refdata.load_tables_s": statistics.median(s["tables_s"] for s in samples),
        "cli.process_start_s": statistics.median(rest),
    }


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "exorb" / "__init__.py").is_file():
        _fail(f"no program source at {ROOT / 'src' / 'exorb'}")
    # numpy serves integer rank work only; one BLAS thread keeps the run to
    # itself plus at most one set-up process.  The bundled tables are the
    # ones checked against their sha256, so no override may replace them.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("EXORB_REFDATA", None)
    sys.path.insert(0, str(ROOT / "src"))
    args = _parse_args(argv)

    import checks
    import tracing
    import workloads

    try:
        oracle = checks.load_oracle(ROOT)
    except (OSError, ValueError, checks.CheckFailed) as exc:
        _fail(f"reference tables unusable: {exc}")
    for label, diagram in workloads.ANALYZE_ORBITS.items():
        if oracle.by_label["E7"].get(label) != diagram:
            _fail(f"E7 orbit {label} does not have diagram {diagram} in the tables")

    stamp = machine_stamp()
    setup_samples = time_setup(args.workload, args.seed)

    import exorb.cli  # noqa: F401  (every module the tracer patches)

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        ops, _ = workloads.setup(args.workload, args.seed, oracle)
        after_setup = tracer.snapshot() if tracer else None

        attempted = failed = 0
        correct = True
        errors: list[str] = []
        rounds: list[dict] = []
        clock = time.perf_counter
        ref_before = time_reference()
        start = clock()
        while True:
            raw: dict[str, float] = {}
            norm: dict[str, float] = {}
            refs = [ref_before]
            for op in ops:
                attempted += 1
                t0 = clock()
                try:
                    out = op.run()
                except Exception as exc:  # the program failed this operation
                    failed += 1
                    errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
                    ref_before = time_reference()
                    refs.append(ref_before)
                    continue
                raw[op.name] = clock() - t0
                ref_after = time_reference()
                refs.append(ref_after)
                norm[op.name] = raw[op.name] / ((ref_before + ref_after) / 2)
                ref_before = ref_after
                try:
                    op.check(out)
                except checks.CheckFailed as exc:
                    correct = False
                    errors.append(f"{op.name}: {exc}")
            groups: dict[str, float] = {}
            for op in ops:
                if op.name in norm:
                    groups[op.group] = groups.get(op.group, 0.0) + norm[op.name]
            rounds.append({"raw_s": raw, "ref_s": refs, "norm": norm, "groups": groups})
            if clock() - start >= args.seconds:
                break
        after_rounds = tracer.snapshot() if tracer else None
    finally:
        if tracer:
            tracer.uninstall()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "stamp": stamp,
        "setup_samples": setup_samples,
        "rounds": rounds,
        "errors": errors,
    }
    if tracer:
        layers = tracing.layer_metrics(after_setup, after_rounds, len(rounds))
        layers.update(setup_layers(setup_samples))
        units = {**tracing.LAYER_UNITS, **tracing.SETUP_UNITS}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        record["function_totals"] = after_rounds
        record["spans"] = tracer.spans_table()
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(s["wall_s"] for s in setup_samples),
            "total_ref": statistics.median(sum(r["norm"].values()) for r in rounds),
            # per-operation medians first: the largest of a round's noisy
            # figures is biased upwards and spreads twice as much
            "max_op_ref": max(
                (
                    statistics.median(r["groups"][g] for r in rounds if g in r["groups"])
                    for g in {g for r in rounds for g in r["groups"]}
                ),
                default=0.0,
            ),
            "peak_rss_mb": rss_kb / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    record["metrics"] = metrics

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record) + "\n")

    for err in errors:
        sys.stderr.write(f"bench: {err}\n")
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    for i, r in enumerate(rounds):
        groups = "  ".join(f"{k} {v:.2f}" for k, v in r["groups"].items())
        print(f"round {i}: wall {sum(r['raw_s'].values()):.3f} s, "
              f"{sum(r['norm'].values()):.2f} ref; per operation (ref): {groups}")
    print(f"operations: attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
