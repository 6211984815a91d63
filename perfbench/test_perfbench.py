"""Quick self-test of the benchmark itself, on tiny windows.

    PYTHONPATH=src python3 -m pytest -q perfbench

Each workload runs once untraced and once under the tracer.  The outputs
must be byte-identical, every metric BENCHMARK.json names must come out
with its unit, and the per-layer self times must fit inside the traced wall
time.
"""

from __future__ import annotations

import hashlib
import json
import time

import pytest

import run as bench

TINY = {
    "dims-real-p2": (6, 3),
    "kerbasis-real-p2": (8, 4),
    "chi-real-p2": (6, 3),
    "dims-finite-p3": (12, 6),
}
# the layer each workload is there to stress: its calls must be seen, which
# also shows the tracer reached the bindings `from .x import f` copied
STRESSED = {
    "dims-real-p2": "bockstein.beta.calls",
    "kerbasis-real-p2": "linalg.kernel_basis.calls",
    "chi-real-p2": "elements.mul.calls",
    "dims-finite-p3": "steenrod.bidegree_basis.calls",
}
SPEC = json.loads(bench.SPEC.read_text(encoding="utf-8"))


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.fixture(scope="module")
def box():
    b = bench.Box(time.monotonic() + 600)
    yield b
    b.close()


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


def test_reference_covers_every_command_line():
    lines = {" ".join(argv) for name in bench.WORKLOADS for argv in bench.variants(name)}
    assert set(bench.load_reference()) == lines


def test_check_flags_exit_digest_and_fail():
    argv = bench.variants("chi-real-p2")[0]
    good = b"PASS  chi\n"
    ref = {" ".join(argv): hashlib.sha256(good).hexdigest()}
    assert bench.check(bench.Run(argv, 0, 1, 1, 1, good, b""), ref) is None
    assert "exit" in bench.check(bench.Run(argv, 1, 1, 1, 1, good, b""), ref)
    assert "differs" in bench.check(bench.Run(argv, 0, 1, 1, 1, b"PASS\n", b""), ref)
    failing = b"FAIL  chi\n"
    ref_fail = {" ".join(argv): hashlib.sha256(failing).hexdigest()}
    assert "FAIL" in bench.check(bench.Run(argv, 0, 1, 1, 1, failing, b""), ref_fail)


def test_children_never_see_the_disk_cache(monkeypatch):
    monkeypatch.setenv("MOTSTEEN_CACHE", "somewhere")
    assert "MOTSTEEN_CACHE" not in bench.child_env()


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_workload_untraced_and_traced(box, name):
    argv = bench.variants(name, TINY[name])[0]
    setup_s, cal = box.setup_time(), box.calibrate()
    plain = box.invoke(argv)
    traced = box.invoke(argv, traced=True)
    assert plain.code == 0 and traced.code == 0, traced.stderr
    assert plain.stdout == traced.stdout
    if argv[0] == "verify":
        assert b"FAIL" not in plain.stdout
    plain.setup_s, plain.cal = setup_s, cal

    e2e = bench.end_to_end([plain])
    assert {n: e2e[n][1] for n in units("end_to_end")} == units("end_to_end")

    layers = bench.per_layer([traced], [plain])
    assert {n: layers[n][1] for n in units("per_layer")} == units("per_layer")
    assert layers[STRESSED[name]][0] > 0
    self_total = sum(v for n, (v, _) in layers.items() if n.endswith(".self_s"))
    assert 0 < self_total <= traced.wall_s

    spans = traced.trace["span"]
    assert spans[0]["name"] == "cli.cmd" and spans[0]["parent"] is None
    for span in spans:
        assert 0 <= span["self_s"] <= span["end"] - span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
