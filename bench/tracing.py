"""Per-layer tracing from outside the program.

The tracer replaces selected public functions of `exorb` with timing
wrappers for the length of a traced run and puts the originals back
afterwards; nothing under `src/` is edited.  Each wrapped call is a span
(name, parent span, start, duration).  Spans and per-function totals are
kept in memory and written out when the run ends.  A function's self time is
its inclusive time minus the time of the wrapped calls made inside it.

A wrapper is installed under every name that refers to the function in any
loaded `exorb` module, because the modules import each other's functions
with `from .x import f` and a call site looks the name up in its own module.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

# (module, attribute path) of every wrapped function; keys drop the module
# prefix `exorb.` and the leading underscore of `_modp`, so that they are
# valid metric names.
TARGETS = (
    ("exorb.orbits", "dynkin_test"),
    ("exorb.orbits", "find_representative"),
    ("exorb.orbits", "complete_triple"),
    ("exorb._modp", "has_full_rank"),
    ("exorb._modp", "rank_mod"),
    ("exorb.linalg", "solve"),
    ("exorb.linalg", "rref"),
    ("exorb.linalg", "kernel"),
    ("exorb.linalg", "member"),
    ("exorb.algebra", "centralizer"),
    ("exorb.algebra", "derived_subalgebra"),
    ("exorb.algebra", "subalgebra_closure"),
    ("exorb.algebra", "quotient_with_action"),
    ("exorb.algebra", "Subspace.contains"),
    ("exorb.algebra", "Subspace.from_rows"),
    ("exorb.reach", "analyze"),
    ("exorb.cli", "main"),
)

_RAISED = object()


def _key(module: str, path: str) -> str:
    return module.removeprefix("exorb.").lstrip("_") + "." + path


def _entry_bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """Wraps the `TARGETS` while installed; use as a context manager."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, float] = {
            "dynkin_test_accepted_s": 0.0,
            "dynkin_test_rejected_s": 0.0,
            "complete_triple_raised": 0,
            "representative_terms": 0,
            "ge_entry_bits_max": 0,
            "derived_pairs": 0,
        }
        self.names: list[str] = []
        self.spans: list[tuple[int, int, float, float]] = []
        self._children: list[float] = []
        self._current = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- observers for the counters the per-layer metrics need -------------

    def _observe(self, key: str, args: tuple, result: object, dt: float) -> None:
        c = self.counters
        if key == "orbits.dynkin_test" and result is not _RAISED:
            c["dynkin_test_accepted_s" if result else "dynkin_test_rejected_s"] += dt
        elif key == "orbits.complete_triple" and result is _RAISED:
            c["complete_triple_raised"] += 1
        elif key == "orbits.find_representative" and result is not _RAISED:
            c["representative_terms"] += len(result.support())
        elif key == "algebra.centralizer" and result is not _RAISED:
            bits = max(
                (_entry_bits(x) for row in result.basis.data for x in row if x),
                default=0,
            )
            c["ge_entry_bits_max"] = max(c["ge_entry_bits_max"], bits)
        elif key == "algebra.derived_subalgebra":
            n = args[1].dim
            c["derived_pairs"] += n * (n - 1) // 2

    def _wrap(self, key: str, fn):
        name_id = len(self.names)
        self.names.append(key)
        for d in (self.calls, self.incl, self.self_time):
            d.setdefault(key, 0)
        children = self._children
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._current
            index = len(spans)
            spans.append((name_id, parent, 0.0, 0.0))
            tracer._current = index
            children.append(0.0)
            result = _RAISED
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                inner = children.pop()
                if children:
                    children[-1] += dt
                tracer._current = parent
                spans[index] = (name_id, parent, t0, dt)
                tracer.calls[key] += 1
                tracer.incl[key] += dt
                tracer.self_time[key] += dt - inner
                tracer._observe(key, args, result, dt)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "exorb" or n.startswith("exorb.")) and m is not None]
        for module_name, path in TARGETS:
            key = _key(module_name, path)
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(key, raw.__func__))
                else:
                    new = self._wrap(key, raw)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(key, original)
            hits = 0
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, attr, value))
                        setattr(m, attr, wrapper)
                        hits += 1
            if not hits:
                raise RuntimeError(f"no reference to {module_name}.{path} found")

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the totals, to split one-time set-up from the rounds."""
        return {
            "calls": dict(self.calls),
            "incl": dict(self.incl),
            "self": dict(self.self_time),
            "counters": dict(self.counters),
        }

    def spans_table(self) -> dict:
        return {
            "names": list(self.names),
            "fields": ["name", "parent", "start_s", "duration_s"],
            "spans": [list(s) for s in self.spans],
        }


# Per-layer metrics timed in the fresh set-up processes, not by the tracer.
SETUP_UNITS = {
    "algebra.build_lie_algebra_s": "s",
    "refdata.load_tables_s": "s",
    "cli.process_start_s": "s",
}

# Every per-layer metric computed from the tracer, with its unit.
LAYER_UNITS = {
    "orbits.dynkin_test_s": "s",
    "orbits.dynkin_test_accepted_s": "s",
    "orbits.dynkin_test_rejected_s": "s",
    "orbits.find_representative_s": "s",
    "orbits.representative_terms": "count",
    "orbits.complete_triple_s": "s",
    "orbits.complete_triple_calls": "count",
    "orbits.complete_triple_raised": "count",
    "orbits.complete_triple_yield": "ratio",
    "modp.has_full_rank_calls": "count",
    "modp.rank_mod_s": "s",
    "linalg.solve_s": "s",
    "linalg.rref_calls": "count",
    "linalg.rref_s": "s",
    "linalg.kernel_s": "s",
    "linalg.member_s": "s",
    "algebra.centralizer_s": "s",
    "algebra.ge_entry_bits_max": "bits",
    "algebra.derived_subalgebra_s": "s",
    "algebra.derived_pairs": "count",
    "algebra.derived_pair_us": "us",
    "algebra.subalgebra_closure_s": "s",
    "algebra.quotient_with_action_s": "s",
    "algebra.Subspace.contains_s": "s",
    "algebra.Subspace.from_rows_s": "s",
    "reach.analyze_self_s": "s",
    "cli.self_s": "s",
}


def layer_metrics(setup: dict, end: dict, rounds: int) -> dict[str, float]:
    """Per-layer figures for one round plus the one-time set-up.

    `setup` and `end` are snapshots taken after the set-up and after the
    last round; additive figures are the set-up share plus the per-round
    mean of the rest, so a run of several rounds reports the same scale as
    a run of one.
    """

    def per_round(kind: str, key: str) -> float:
        a = setup[kind].get(key, 0)
        return a + (end[kind].get(key, 0) - a) / rounds

    def calls(key: str) -> float:
        return per_round("calls", key)

    def incl(key: str) -> float:
        return per_round("incl", key)

    def counter(key: str) -> float:
        return per_round("counters", key)

    triple_calls = calls("orbits.complete_triple")
    raised = counter("complete_triple_raised")
    pairs = counter("derived_pairs")
    derived = incl("algebra.derived_subalgebra")
    return {
        "orbits.dynkin_test_s": incl("orbits.dynkin_test"),
        "orbits.dynkin_test_accepted_s": counter("dynkin_test_accepted_s"),
        "orbits.dynkin_test_rejected_s": counter("dynkin_test_rejected_s"),
        "orbits.find_representative_s": incl("orbits.find_representative"),
        "orbits.representative_terms": counter("representative_terms"),
        "orbits.complete_triple_s": incl("orbits.complete_triple"),
        "orbits.complete_triple_calls": triple_calls,
        "orbits.complete_triple_raised": raised,
        "orbits.complete_triple_yield": (
            (triple_calls - raised) / triple_calls if triple_calls else 0.0
        ),
        "modp.has_full_rank_calls": calls("modp.has_full_rank"),
        "modp.rank_mod_s": incl("modp.rank_mod"),
        "linalg.solve_s": incl("linalg.solve"),
        "linalg.rref_calls": calls("linalg.rref"),
        "linalg.rref_s": per_round("self", "linalg.rref"),
        "linalg.kernel_s": incl("linalg.kernel"),
        "linalg.member_s": incl("linalg.member"),
        "algebra.centralizer_s": incl("algebra.centralizer"),
        "algebra.ge_entry_bits_max": end["counters"]["ge_entry_bits_max"],
        "algebra.derived_subalgebra_s": derived,
        "algebra.derived_pairs": pairs,
        "algebra.derived_pair_us": derived / pairs * 1e6 if pairs else 0.0,
        "algebra.subalgebra_closure_s": incl("algebra.subalgebra_closure"),
        "algebra.quotient_with_action_s": incl("algebra.quotient_with_action"),
        "algebra.Subspace.contains_s": incl("algebra.Subspace.contains"),
        "algebra.Subspace.from_rows_s": incl("algebra.Subspace.from_rows"),
        "reach.analyze_self_s": per_round("self", "reach.analyze"),
        "cli.self_s": per_round("self", "cli.main"),
    }
