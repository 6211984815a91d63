"""Import graph: the package exports load lazily, each one has a caller in
the package, and `import motsteen.cli` loads only what the common commands
run."""

import ast
import glob
import importlib
import os
import subprocess
import sys

import pytest

import motsteen

# every name the package exports, by the submodule that defines it
EXPORTS = {
    "grading": ("BETA_SHIFT", "Bidegree", "tau_degree", "xi_degree"),
    "schemes": ("SchemeError", "SchemePresentation", "make_scheme"),
    "elements": (
        "AlgebraHandle", "CoeffMonomial", "Element", "SteenrodMonomial", "Term",
        "algebra", "bidegree_of", "element_text", "mono_degree", "mul", "term_element",
        "term_text",
    ),
    "linalg": ("FpBasis", "kernel_basis", "rank"),
    "steenrod": ("BasisIndex", "basis_index", "bidegree_basis", "conjugate", "eta"),
    "bockstein": (
        "Block", "beta", "beta_report", "block", "block_complex",
        "block_homology", "free_bbeta_generators", "ker_beta_basis", "y",
    ),
    "integral": (
        "IntCoeffRing", "IntElement", "PullbackElement", "augment", "fiber_coordinate",
        "pb_mul", "pb_torsion", "q_map",
    ),
    "relations": (
        "product_relation_sweep", "verify_linear_relation", "z12_relation_check",
    ),
}
NAMES = [name for names in EXPORTS.values() for name in names]
SRC = os.path.dirname(os.path.dirname(motsteen.__file__))


def test_exports_are_the_submodule_objects():
    assert len(NAMES) == len(set(NAMES)) == 47
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"motsteen.{module}")
        for name in names:
            assert getattr(motsteen, name) is getattr(owner, name), name
    assert sorted(motsteen.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(motsteen))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from motsteen import *", namespace)
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"motsteen.{module}")
        for name in names:
            assert namespace[name] is getattr(owner, name), name


def test_every_export_has_a_caller_in_src():
    # an exported name is read, as a Name or an Attribute, somewhere in the
    # package outside its own top-level definition and outside __init__.py;
    # an import or an assignment does not count
    used = set()
    for path in glob.glob(os.path.join(SRC, "motsteen", "*.py")):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    if name != own:
                        used.add(name)
    missing = sorted(set(motsteen.__all__) - used)
    assert missing == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        motsteen.no_such_name
    assert not hasattr(motsteen, "no_such_name")


def test_cold_import_of_the_cli_loads_only_the_common_path():
    # -S keeps site hooks from loading modules of their own
    code = (
        "import sys, motsteen; "
        "print(sorted(m for m in sys.modules if m.startswith('motsteen.'))); "
        "import motsteen.cli; "
        "print(sorted(m for m in ('motsteen.integral', 'motsteen.relations', "
        "'motsteen.cache', 'dataclasses', 'hashlib', 'json', 'random', 'argparse', 'gettext', "
        "'locale') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out == ["[]", "[]"]


def test_commands_load_no_argument_parser():
    # argparse, and gettext and locale under it, cost about 6 ms of every run
    code = (
        "import sys; from motsteen.cli import main; "
        "argv = ['--prime', '2', '--scheme', 'real-p2', '--dmax', '4', '--wmax', '2']; "
        "codes = [main(['dims', *argv]), main(['verify', 'chi', *argv])]; "
        "print(codes, [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules], "
        "file=sys.stderr)"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True,
    )
    assert run.stdout.startswith("d  ") and "PASS" in run.stdout
    assert run.stderr == "[0, 0] []\n"
