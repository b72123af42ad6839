import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import exorb
from exorb.linalg import RatMatrix
from exorb.refdata import load_tables
from exorb.roots import RootSystem, build_root_system

MODULES = sorted(m.name for m in pkgutil.iter_modules(exorb.__path__) if m.name != "__main__")

# Names that no CLI path nor the acceptance suite reached, and that were deleted.
DELETED = {
    "structure_constant", "is_root", "norm", "root_string", "height", "types", "identity", "zeros",
    "Root",
}

# Attributes that `RootSystem.__init__` set on each instance, deleted: the
# roots are held once, as the coefficient tuples of `roots`.
DELETED_ATTRIBUTES = {"positive_roots"}

# The module-level table readers, deleted; `load_tables()` has methods of
# these names, so they cannot join DELETED.
TABLE_READERS = {"lookup", "exceptions"}

# Public names that `bench/` calls (`tracing.py`'s TARGETS, `workloads.py`
# and `checks.py`): they stay while the benchmark names them.
BENCHMARK_HELD = [
    ("orbits", "dynkin_test"),
    ("orbits", "find_representative"),
    ("orbits", "complete_triple"),
    ("_modp", "rank_mod"),
    ("_modp", "has_full_rank"),
    ("linalg", "rref"),
    ("linalg", "solve"),
    ("linalg", "member"),
    ("linalg", "kernel"),
    ("algebra", "subalgebra_closure"),
    ("algebra", "quotient_with_action"),
    ("algebra", "Subspace.contains"),
    ("algebra", "Subspace.from_rows"),
    ("algebra", "bracket"),
]


@pytest.mark.parametrize("name", ["exorb"] + [f"exorb.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    for attr in exported:
        assert hasattr(module, attr), f"{name}.{attr}"
    assert not (DELETED | TABLE_READERS) & set(exported)
    assert not any(hasattr(module, attr) for attr in TABLE_READERS)


def test_the_deleted_names_are_gone():
    for owner in (exorb, exorb.roots, RootSystem, RatMatrix, type(load_tables())):
        for attr in DELETED:
            assert not hasattr(owner, attr), f"{owner.__name__}.{attr}"
    rs = build_root_system("G2")
    for attr in DELETED_ATTRIBUTES:
        assert not hasattr(rs, attr), f"RootSystem().{attr}"


@pytest.mark.parametrize("module,path", BENCHMARK_HELD)
def test_the_names_the_benchmark_holds_resolve(module, path):
    obj = importlib.import_module(f"exorb.{module}")
    for part in path.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_every_python_block_of_the_readme_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
