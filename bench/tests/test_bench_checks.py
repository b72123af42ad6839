"""Each correctness check of the benchmark rejects a corrupted result."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import workloads
from exorb import cli, orbits, reach
from exorb.algebra import build_lie_algebra

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def oracle():
    return checks.load_oracle(ROOT)


@pytest.fixture(scope="module")
def g2():
    L = build_lie_algebra("G2")
    return L, orbits.enumerate_orbits(L, seed=3)


def test_clean_results_pass(oracle, g2):
    L, found = g2
    checks.check_classification(L, "G2", found, oracle)
    for o in found:
        checks.check_analysis(L, "G2", reach.analyze(L, o), oracle)


def test_dropped_orbit_fails(oracle, g2):
    L, found = g2
    with pytest.raises(checks.CheckFailed, match="orbits"):
        checks.check_classification(L, "G2", found[1:], oracle)


def test_duplicated_orbit_fails(oracle, g2):
    L, found = g2
    with pytest.raises(checks.CheckFailed, match="twice"):
        checks.check_classification(L, "G2", found[:-1] + found[:1], oracle)


def test_broken_sl2_relation_fails(oracle, g2):
    L, found = g2
    o = found[-1]
    t = o.triple
    bad = dataclasses.replace(t, f=2 * t.f)
    with pytest.raises(checks.CheckFailed, match=r"\[e, f\] != h"):
        checks.check_triple(L, o.diagram.labels, bad)
    with pytest.raises(checks.CheckFailed):
        checks.check_classification(
            L, "G2", found[:-1] + [dataclasses.replace(o, triple=bad)], oracle
        )


def test_chunked_sweep_matches_the_tables(oracle):
    L = build_lie_algebra("F4")
    chunks = workloads.label_chunks(L.rank, 5)
    flat = [v for c in chunks for v in c]
    assert len(flat) == len(set(flat)) == 3**4 - 1
    found = []
    for chunk in chunks:
        part = workloads.classify_diagrams(L, chunk, seed=4)
        checks.check_diagram_chunk(L, "F4", chunk, part, oracle)
        found += part
    checks.check_classification(L, "F4", found, oracle)


def test_chunk_with_a_missing_or_extra_diagram_fails(oracle, g2):
    L, found = g2
    labels = [o.diagram.labels for o in found] + [(1, 1)]
    with pytest.raises(checks.CheckFailed, match="missing"):
        checks.check_diagram_chunk(L, "G2", labels, found[1:], oracle)
    with pytest.raises(checks.CheckFailed, match="extra"):
        checks.check_diagram_chunk(L, "G2", labels[1:], found, oracle)
    with pytest.raises(checks.CheckFailed, match="twice"):
        checks.check_diagram_chunk(L, "G2", labels, found + found[:1], oracle)


def test_e_outside_g2_fails(g2):
    L, found = g2
    o = found[-1]
    bad = dataclasses.replace(o.triple, e=o.triple.e + o.triple.f)
    with pytest.raises(checks.CheckFailed, match=r"g\(2\)"):
        checks.check_triple(L, o.diagram.labels, bad)


@pytest.mark.parametrize(
    "change",
    [
        lambda a: {"ce_weights": a.ce_weights[:-1] + (a.ce_weights[-1] + 2,)},
        lambda a: {"dim_ce": a.dim_ce + 1},
        lambda a: {"reachable": not a.reachable},
        lambda a: {"strongly_reachable": not a.strongly_reachable},
        lambda a: {"dim_derived": a.dim_derived - 1},
        lambda a: {"dim_ge": a.dim_ge + 1},
        lambda a: {"panyushev_generated": not a.panyushev_generated},
    ],
    ids=["ce_weights", "dim_ce", "reachable", "strong", "derived", "ge", "panyushev"],
)
def test_corrupted_analysis_fails(oracle, g2, change):
    L, found = g2
    a = reach.analyze(L, found[-1])  # G2: dim c_e = 2, weights (2, 10)
    with pytest.raises(checks.CheckFailed):
        checks.check_analysis(L, "G2", dataclasses.replace(a, **change(a)), oracle)


def test_clean_verify_passes():
    status, out = workloads.cli_verify("G2", 5)
    checks.check_verify(5, "G2", status, out)


def test_verify_mismatch_fails(tmp_path, capsys):
    text = (ROOT / checks.REFDATA).read_text()
    corrupted = tmp_path / "tables.json"
    corrupted.write_text(_corrupt_json(text))
    status = cli.main(["verify", "G2", "--format", "json", "--seed", "1",
                       "--refdata", str(corrupted)])
    out = capsys.readouterr().out
    assert status == cli.EXIT_MISMATCH
    with pytest.raises(checks.CheckFailed):
        checks.check_verify(1, "G2", status, out)
    with pytest.raises(checks.CheckFailed):
        checks.check_verify(1, "G2", 0, out)


def _corrupt_json(text: str) -> str:
    doc = json.loads(text)
    row = next(r for r in doc["types"]["G2"] if r["ce_weights"])
    row["ce_weights"][-1] += 2
    return json.dumps(doc)


def test_refdata_checksum_is_enforced(tmp_path):
    for rel in (checks.REFDATA, checks.REFDATA_DOC):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(ROOT / rel, tmp_path / rel)
    checks.load_oracle(tmp_path)
    path = tmp_path / checks.REFDATA
    path.write_text(_corrupt_json(path.read_text()))
    with pytest.raises(checks.CheckFailed, match="sha256"):
        checks.load_oracle(tmp_path)


def test_run_refuses_without_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
