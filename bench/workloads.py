"""The benchmark's workloads: their set-up and the operations of one round.

Every call into `exorb` looks its function up on the module at call time, so
that the tracer's wrappers see the top-level calls as well as the inner ones.

The three workloads stress different layers:

- `classify` runs the diagram sweep, representatives and triples
  (`orbits`, `_modp`, `linalg.solve`) and bypasses the analysis layers.
- `analyze-e7` runs `reach.analyze` on E7 orbits whose triples are built in
  set-up, so it exercises `algebra`, `linalg` and `reach` and bypasses the
  diagram test.
- `verify` runs `exorb verify <T> --format json` through the CLI entry
  point, the path users run: sweep, analyses, table comparison, rendering.

Every operation is short (well under two seconds) so that the run can time
the reference kernel right before and after it; see `run.py`.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass
from itertools import product
from typing import Callable

import checks

# Types whose whole sweep is one `enumerate_orbits` operation.
SWEEP_TYPES = ("G2", "F4")
# E6's sweep is split into this many operations of about 0.6 s each: chunk k
# holds every CHUNKS-th label vector of the sweep order from k on, so the
# 35 diagrams that fail the triple solve on every trial spread evenly.
CHUNKED_TYPE = "E6"
CHUNKS = 16
VERIFY_TYPES = ("G2", "F4")

# E7 orbits for `analyze-e7`, label -> weighted Dynkin diagram (Bourbaki
# order); the run checks the pairs against the published tables.
ANALYZE_ORBITS = {
    "A1": (1, 0, 0, 0, 0, 0, 0),  # largest g_e (dim 99), unit e, closure-bound
    "4A1": (0, 1, 0, 0, 0, 0, 1),  # closure-bound, odd grading, 16-term e
    "A2+3A1": (0, 2, 0, 0, 0, 0, 0),  # derived-bound, densest e (35 terms)
    "2A2": (0, 0, 0, 0, 0, 2, 0),  # derived-bound, 32-term random e
    "D4(a1)": (0, 0, 2, 0, 0, 0, 0),  # derived-bound, 30-term random e
    "E7(a5)": (0, 0, 0, 2, 0, 0, 2),  # distinguished
    "E7": (2, 2, 2, 2, 2, 2, 2),  # principal
}

WORKLOAD_TYPES = {
    "classify": SWEEP_TYPES + (CHUNKED_TYPE,),
    "analyze-e7": ("E7",),
    "verify": VERIFY_TYPES,
}
WORKLOADS = tuple(WORKLOAD_TYPES)


class OperationFailed(Exception):
    """The program failed to produce a result (as opposed to a wrong one)."""


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # The user-level operation this one is part of (a whole E6 sweep is
    # several chunks); `max_op_ref` is the slowest group of a round.
    group: str


def label_chunks(rank: int, chunks: int) -> list[list[tuple[int, ...]]]:
    """The nonzero label vectors in `enumerate_orbits`'s order, strided."""
    labels = [v for v in product((0, 1, 2), repeat=rank) if any(v)]
    return [labels[k::chunks] for k in range(chunks)]


def classify_diagrams(L, label_list, seed: int) -> list:
    """The orbits among `label_list`: `enumerate_orbits`'s calls per vector."""
    from exorb import orbits

    found = []
    for labels in label_list:
        d = orbits.WeightedDynkinDiagram(labels)
        if not orbits.dynkin_test(L, d, seed=seed):
            continue
        e = orbits.find_representative(L, d, seed=seed)
        h = orbits.characteristic_element(L, d)
        found.append(orbits.NilpotentOrbit(d, orbits.complete_triple(L, h, e)))
    return found


def _classify_ops(algebras, seed: int, oracle) -> list[Op]:
    from exorb import orbits

    def sweep(tname: str) -> Op:
        L = algebras[tname]
        return Op(
            name=tname,
            run=lambda: orbits.enumerate_orbits(L, seed=seed),
            check=lambda out: checks.check_classification(L, tname, out, oracle),
            group=tname,
        )

    def chunk(k: int, label_list) -> Op:
        L = algebras[CHUNKED_TYPE]
        return Op(
            name=f"{CHUNKED_TYPE}/{k}",
            run=lambda: classify_diagrams(L, label_list, seed),
            check=lambda out: checks.check_diagram_chunk(
                L, CHUNKED_TYPE, label_list, out, oracle
            ),
            group=CHUNKED_TYPE,
        )

    rank = algebras[CHUNKED_TYPE].rank
    return [sweep(t) for t in SWEEP_TYPES] + [
        chunk(k, ls) for k, ls in enumerate(label_chunks(rank, CHUNKS))
    ]


def _analyze_ops(algebras, seed: int, oracle) -> list[Op]:
    from exorb import orbits, reach

    L = algebras["E7"]

    def op(label: str, labels: tuple[int, ...]) -> Op:
        d = orbits.WeightedDynkinDiagram(labels)
        e = orbits.find_representative(L, d, seed=seed)
        h = orbits.characteristic_element(L, d)
        o = orbits.NilpotentOrbit(d, orbits.complete_triple(L, h, e))

        def check(a) -> None:
            checks.check_triple(L, labels, a.orbit.triple)
            checks.check_analysis(L, "E7", a, oracle)

        return Op(name=label, run=lambda: reach.analyze(L, o), check=check, group=label)

    return [op(label, labels) for label, labels in ANALYZE_ORBITS.items()]


def cli_verify(tname: str, seed: int) -> tuple[int, str]:
    """One `exorb verify <T> --format json` invocation; (exit status, stdout)."""
    from exorb import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(["verify", tname, "--format", "json", "--seed", str(seed)])
    if status == cli.EXIT_INTERNAL:
        raise OperationFailed(f"verify {tname} exited with an internal failure")
    return status, buf.getvalue()


def _verify_ops(algebras, seed: int, oracle) -> list[Op]:
    def op(tname: str) -> Op:
        return Op(
            name=tname,
            run=lambda: cli_verify(tname, seed),
            check=lambda out: checks.check_verify(seed, tname, *out),
            group=tname,
        )

    return [op(t) for t in VERIFY_TYPES]


_ROUND_OPS = {
    "classify": _classify_ops,
    "analyze-e7": _analyze_ops,
    "verify": _verify_ops,
}


def setup(name: str, seed: int, oracle=None) -> tuple[list[Op], dict[str, float]]:
    """Build the algebras, load the tables and prepare one round's operations.

    Returns the operations and the seconds spent in each set-up phase.
    `oracle` is only needed by the checks, not by the set-up itself.
    """
    from exorb import algebra, refdata

    clock = time.perf_counter
    t0 = clock()
    algebras = {t: algebra.build_lie_algebra(t) for t in WORKLOAD_TYPES[name]}
    t1 = clock()
    refdata.load_tables()
    t2 = clock()
    ops = _ROUND_OPS[name](algebras, seed, oracle)
    t3 = clock()
    return ops, {"build_s": t1 - t0, "tables_s": t2 - t1, "representatives_s": t3 - t2}
