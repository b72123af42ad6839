"""Exact Chevalley-basis Lie algebras and nilpotent orbit analysis."""

from .roots import TypeRank, Root, RootSystem, build_root_system
from .linalg import RatMatrix, rank, kernel, intersect
from .algebra import (
    LieAlgebra,
    Element,
    Subspace,
    build_lie_algebra,
    bracket,
    centralizer,
    derived_subalgebra,
    subalgebra_closure,
    quotient_with_action,
)
from .orbits import (
    WeightedDynkinDiagram,
    Sl2Triple,
    NilpotentOrbit,
    characteristic_element,
    orbit,
    dynkin_test,
    find_representative,
    complete_triple,
    enumerate_orbits,
)
from .reach import OrbitAnalysis, analyze, rigid_discrepancy_report
from .refdata import OrbitRecord, ExceptionRecord, load_tables

__version__ = "0.1.0"

__all__ = [
    "TypeRank",
    "Root",
    "RootSystem",
    "build_root_system",
    "RatMatrix",
    "rank",
    "kernel",
    "intersect",
    "LieAlgebra",
    "Element",
    "Subspace",
    "build_lie_algebra",
    "bracket",
    "centralizer",
    "derived_subalgebra",
    "subalgebra_closure",
    "quotient_with_action",
    "WeightedDynkinDiagram",
    "Sl2Triple",
    "NilpotentOrbit",
    "characteristic_element",
    "orbit",
    "dynkin_test",
    "find_representative",
    "complete_triple",
    "enumerate_orbits",
    "OrbitAnalysis",
    "analyze",
    "rigid_discrepancy_report",
    "OrbitRecord",
    "ExceptionRecord",
    "load_tables",
    "__version__",
]
