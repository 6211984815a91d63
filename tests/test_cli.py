"""Command line behavior: outputs, formats, caching, exit codes."""

import io
import json
import os
import re
import sys

import pytest

import oracles
from motsteen import cli


def run_cli(argv, env=None):
    old_env = {}
    for k, v in (env or {}).items():
        old_env[k] = os.environ.get(k)
        os.environ[k] = v
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = old
        for k, v in old_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, buf.getvalue()


def test_dims_pretty():
    code, out = run_cli(
        ["dims", "--prime", "2", "--scheme", "algclosed", "--dmax", "4", "--wmax", "4"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["d", "w", "dim", "rank", "ker", "im", "homology", "notes"]
    rows = {tuple(l.split()[:2]): l.split()[2:] for l in lines[1:]}
    assert rows[("0", "0")][:5] == ["1", "0", "1", "0", "1"]
    assert rows[("2", "1")][:5] == ["1", "0", "1", "1", "0"]


def test_dims_json_schema():
    code, out = run_cli(
        ["dims", "--prime", "2", "--scheme", "algclosed", "--dmax", "3",
         "--wmax", "2", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "motsteen.dims/1"
    for row in doc["rows"]:
        assert row["ker"] + row["rank"] == row["dim"]
        assert set(row) == {"bidegree", "dim", "rank", "ker", "im", "homology", "notes"}


def test_dims_empty_range():
    code, out = run_cli(
        ["dims", "--prime", "2", "--scheme", "algclosed", "--dmax", "0",
         "--wmax", "0", "--format", "tsv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("d\tw")
    assert [l.split("\t")[:2] for l in lines[1:]] == [["0", "0"]]


def test_dims_deterministic_and_cache_byte_identical(tmp_path):
    args = ["dims", "--prime", "2", "--scheme", "real-p2", "--dmax", "6",
            "--wmax", "5", "--format", "json", "--cache", str(tmp_path / "c")]
    code1, cold = run_cli(args)
    assert code1 == 0
    assert len(list((tmp_path / "c").iterdir())) == 1
    code2, warm = run_cli(args)
    assert code2 == 0
    assert warm == cold
    # and identical to an uncached run
    code3, plain = run_cli(args[:-2])
    assert plain == warm


def test_cache_env_override(tmp_path):
    env_dir = tmp_path / "envcache"
    args = ["dims", "--prime", "2", "--scheme", "algclosed", "--dmax", "3",
            "--wmax", "3"]
    code, _ = run_cli(args + ["--cache", str(tmp_path / "flag")],
                      env={"MOTSTEEN_CACHE": str(env_dir)})
    assert code == 0
    assert len(list(env_dir.iterdir())) == 1
    assert not (tmp_path / "flag").exists()


WINDOW = dict(p=2, scheme="real-p2", dmax=6, wmax=5)


def cached_dims(directory, **window):
    """cmd_dims of a real-p2 window with the cache in directory, and its one file."""
    rows = cli.cmd_dims(cli.Config(**{**WINDOW, **window}, cache_dir=str(directory)))
    (path,) = directory.iterdir()
    return rows, path


def count_beta_assemblies(monkeypatch):
    """A list that grows by one per beta assembly (bockstein._columns) the
    run makes: split_ranks, which the cache calls, and ker_beta_basis both
    go through it."""
    from motsteen import bockstein

    calls = []
    real = bockstein._columns

    def counted(bd, h):
        calls.append(bd)
        return real(bd, h)

    monkeypatch.setattr(bockstein, "_columns", counted)
    return calls


def test_cache_version_mismatch_recomputes(tmp_path, monkeypatch):
    from motsteen.cache import CACHE_VERSION

    want, path = cached_dims(tmp_path)
    doc = json.loads(path.read_text())
    doc["version"] = "0"
    path.write_text(json.dumps(doc))
    calls = count_beta_assemblies(monkeypatch)
    assert cached_dims(tmp_path)[0] == want
    assert calls  # the stale file was not served
    assert json.loads(path.read_text()) == {**doc, "version": CACHE_VERSION}


def test_cache_recomputes_a_wrongly_shaped_matrix(tmp_path):
    from motsteen import __version__
    from motsteen.cache import CACHE_VERSION

    want = cli.cmd_dims(cli.Config(**WINDOW))
    rows, path = cached_dims(tmp_path)  # fills the cache
    assert rows == want
    d, w = max(want, key=lambda row: row["rank"])["bidegree"]
    doc = json.loads(path.read_text())
    good = doc["entries"][f"{d},{w}"]
    doc["entries"][f"{d},{w}"] = [1, 1, 0, 0]  # the ranks of a 1-dimensional bidegree
    path.write_text(json.dumps(doc))
    assert cached_dims(tmp_path)[0] == want
    assert json.loads(path.read_text())["entries"][f"{d},{w}"] == good  # overwritten
    assert __version__ in CACHE_VERSION


BAD_ENTRIES = {
    "missing field": lambda e: e[:3],
    "non-list": lambda e: {"ranks": e},
    "not ints": lambda e: [str(v) for v in e],
    "wrong dims": lambda e: [e[0] + 1, *e[1:]],
    "coefficient rank above its dim": lambda e: [e[0], e[1], e[1] + 1, e[3]],
    "ideal rank above its dim": lambda e: [*e[:3], e[0] - e[1] + 1],
    "old beta-matrix entry": lambda e: {"p": 2, "nrows": 1, "ncols": e[0], "entries": []},
}


@pytest.mark.parametrize("bad", sorted(BAD_ENTRIES))
def test_cache_recomputes_every_entry_that_does_not_fit(tmp_path, bad):
    want = cli.cmd_dims(cli.Config(**WINDOW))
    rows, path = cached_dims(tmp_path)  # fills the cache
    assert rows == want
    good = json.loads(path.read_text())
    path.write_text(json.dumps({
        **good, "entries": {k: BAD_ENTRIES[bad](e) for k, e in good["entries"].items()},
    }))
    assert cached_dims(tmp_path)[0] == want
    assert json.loads(path.read_text()) == good  # every entry was overwritten


def test_cache_file_that_is_not_an_entry_is_a_miss(tmp_path):
    from motsteen.cache import CACHE_VERSION

    want, path = cached_dims(tmp_path)
    good = path.read_text()
    for text in ("[1, 2]", "7", "null", "{}", "{", "\udcff", "[" * 100_000,
                 json.dumps({"version": CACHE_VERSION}),
                 json.dumps({"version": CACHE_VERSION, "entries": [[1, 1, 0, 0]]})):
        path.write_text(text, encoding="utf-8", errors="surrogateescape")
        assert cached_dims(tmp_path)[0] == want
        assert path.read_text() == good


def test_cache_two_windows_of_one_configuration_share_one_file(tmp_path, monkeypatch):
    small = cli.cmd_dims(cli.Config(**{**WINDOW, "dmax": 4, "wmax": 3}))
    want, path = cached_dims(tmp_path)
    calls = count_beta_assemblies(monkeypatch)
    assert cached_dims(tmp_path, dmax=4, wmax=3) == (small, path)
    assert calls == []  # the smaller window is served from the larger one's file


def test_cache_fully_warm_run_calls_no_beta_matrix(tmp_path, monkeypatch):
    from motsteen import bockstein

    want, path = cached_dims(tmp_path)
    stamp = path.stat().st_mtime_ns
    calls = count_beta_assemblies(monkeypatch)
    monkeypatch.setattr(bockstein, "split_ranks", None)  # beta_report's default path
    assert cached_dims(tmp_path)[0] == want
    assert calls == []
    assert path.stat().st_mtime_ns == stamp  # and nothing computed, nothing written


def test_cache_ignores_an_old_per_bidegree_file(tmp_path):
    # the layout before one file per configuration: one entry per bidegree,
    # named by a hash of its key
    old = tmp_path / ("0" * 32 + ".json")
    old.write_text(json.dumps({"version": "1", "payload": [1, 1, 0, 0], "key": {
        "p": 2, "scheme": "real-p2", "q": None, "kind": "split-ranks", "bidegree": [0, 0],
    }}))
    want = cli.cmd_dims(cli.Config(**WINDOW))
    rows = cli.cmd_dims(cli.Config(**WINDOW, cache_dir=str(tmp_path)))
    assert rows == want
    assert len(list(tmp_path.iterdir())) == 2
    assert json.loads(old.read_text())["payload"] == [1, 1, 0, 0]


def test_cache_entry_is_not_served_after_a_source_change(tmp_path):
    import shutil
    import subprocess

    import motsteen

    src = tmp_path / "src"
    shutil.copytree(
        os.path.dirname(motsteen.__file__), src / "motsteen",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    prelude = (
        "from motsteen import Bidegree, algebra; "
        "from motsteen.cache import RanksTable; "
        f"table = RanksTable({str(tmp_path / 'cache')!r}, algebra('algclosed', 2)); "
    )

    def run(code):
        return subprocess.run(
            [sys.executable, "-B", "-c", prelude + code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        ).stdout.strip()

    run("table.ranks(Bidegree(0, 0)); table.save()")
    assert run("print(table.entries)") == "{'0,0': [1, 1, 0, 0]}"
    with open(src / "motsteen" / "bockstein.py", "a", encoding="utf-8") as fh:
        fh.write("\n# a changed source\n")
    assert run("print(table.entries)") == "{}"


def test_verify_and_present_deterministic():
    vargs = ["verify", "linear", "--prime", "3", "--scheme", "algclosed",
             "--dmax", "6", "--wmax", "6", "--format", "json"]
    pargs = ["present", "--prime", "2", "--scheme", "zhalf", "--bound", "2"]
    assert run_cli(vargs) == run_cli(vargs)
    assert run_cli(pargs) == run_cli(pargs)


def test_verify_beta2_pass():
    code, out = run_cli(
        ["verify", "beta2", "--prime", "2", "--scheme", "algclosed",
         "--dmax", "20", "--wmax", "10"]
    )
    assert code == 0
    assert out.startswith("PASS")


def test_verify_chi_real_odd_has_no_tau():
    # F_p[theta] has no tau, so the chi(tau) check does not apply there
    code, out = run_cli(
        ["verify", "chi", "--prime", "3", "--scheme", "real-odd",
         "--dmax", "10", "--wmax", "5"]
    )
    assert code == 0
    assert "FAIL" not in out
    assert "chi(tau) = tau + rho tau_0" not in out
    assert "PASS  chi is an involution" in out


def test_verify_products_warn_not_fail_and_strict():
    args = ["verify", "products", "--prime", "2", "--scheme", "algclosed",
            "--dmax", "6", "--wmax", "6"]
    code, out = run_cli(args)
    assert code == 0
    assert "WARN" in out and "FAIL" not in out
    code_strict, _ = run_cli(args + ["--strict"])
    assert code_strict == 1


def test_verify_chi_negative_control():
    """An intentionally corrupted chi(tau_2) must fail the suite."""
    from motsteen import steenrod
    from motsteen.elements import COEFF_ONE, CoeffMonomial, _pack, algebra, term_element

    bad_h = algebra("algclosed", 2, ambient="a")
    tau_2 = steenrod.SteenrodMonomial((), (2,))
    bad = term_element(2, 1, CoeffMonomial(), tau_2)
    # chi(tau_2) = tau_2 instead of tau_2 + xi_1^2 tau_1 + ..., seeded in the
    # one chi memo
    steenrod._chi_mono_cache.clear()
    steenrod._chi_mono_cache[bad_h] = {_pack((COEFF_ONE, tau_2)): bad.terms}
    try:
        code, out = run_cli(
            ["verify", "chi", "--prime", "2", "--scheme", "algclosed",
             "--dmax", "14", "--wmax", "7"]
        )
        assert code == 1
        assert "FAIL" in out
    finally:
        steenrod._chi_mono_cache.clear()


def test_verify_z12_requires_zhalf():
    code, out = run_cli(
        ["verify", "z12", "--prime", "2", "--scheme", "algclosed",
         "--dmax", "4", "--wmax", "4"]
    )
    assert code == 1
    code, out = run_cli(
        ["verify", "z12", "--prime", "2", "--scheme", "zhalf",
         "--dmax", "4", "--wmax", "4"]
    )
    assert code == 0
    assert "WARN" in out


def test_verify_json_format():
    code, out = run_cli(
        ["verify", "blocks", "--prime", "3", "--scheme", "algclosed",
         "--dmax", "4", "--wmax", "4", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "motsteen.verify/1"
    assert doc["checks"][0]["status"] == "PASS"


REFUSED_FLAGS = {
    "dims": (["--precision", "8"], ["--strict"], ["--w-table", "w.json"]),
    "verify": (["--precision", "8"], ["--cache", "c"]),
    "present": (["--strict"], ["--format", "tsv"], ["--dmax", "4"], ["--wmax", "4"],
                ["--cache", "c"], ["--precision", "8"]),
}
COMMANDS = {
    "dims": ["dims"], "verify": ["verify", "beta2"], "present": ["present"],
}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, flags in REFUSED_FLAGS.items() for flag in flags
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_a_flag_the_command_does_not_read_is_refused(command, flag, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main([*COMMANDS[command], "--prime", "2", "--scheme", "algclosed", *flag])
    assert exit_.value.code != 0
    assert capsys.readouterr().out == ""


def test_invalid_config_exits_nonzero(capsys):
    code = cli.main(["dims", "--prime", "4", "--scheme", "algclosed"])
    assert code == 1
    assert "error" in capsys.readouterr().err
    code = cli.main(["dims", "--prime", "3", "--scheme", "zhalf"])
    assert code == 1
    capsys.readouterr()
    code = cli.main(["dims", "--prime", "3", "--scheme", "finite"])
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize("scheme", ["algclosed", "real", "real-p2", "zhalf"])
def test_q_outside_a_finite_field_is_refused(capsys, scheme):
    # --q used to be dropped, and the JSON still printed "q": 7
    code = cli.main(["dims", "--prime", "2", "--scheme", scheme, "--q", "7",
                     "--format", "json"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("motsteen: error: ")


def test_finite_field_refuses_p_not_dividing_q_minus_1(capsys):
    # tau is no class over F_5 at p = 3; dims used to describe F_3[tau]
    code = cli.main(["dims", "--prime", "3", "--scheme", "finite", "--q", "5"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("motsteen: error: finite-field requires p dividing q - 1 "
                            "(p = 3, q = 5)\n")


@pytest.mark.parametrize("argv, message", [
    (["--prime", "2", "--scheme", "finite", "--q", str(3**700)], "q must be below 2^64"),
    (["--prime", str(2**64 + 13), "--scheme", "algclosed"], "p must be below 2^64"),
])
def test_a_prime_or_q_past_2_64_is_refused(capsys, argv, message):
    # q = 3^700 used to overflow a float root and end in a traceback
    assert cli.main(["dims", *argv]) == 1
    assert capsys.readouterr() == ("", f"motsteen: error: {message}\n")


def test_a_large_prime_is_accepted():
    # 2^61 - 1: trial division used to run for minutes
    code, out = run_cli(["dims", "--prime", str(2**61 - 1), "--scheme", "algclosed",
                         "--dmax", "4", "--wmax", "2"])
    assert code == 0
    assert out.splitlines()[1].split() == ["0", "-2", "1", "0", "1", "0", "1"]


def test_present_algclosed_bound2():
    code, out = run_cli(
        ["present", "--prime", "2", "--scheme", "algclosed", "--bound", "2"]
    )
    assert code == 0
    doc = json.loads(out)
    mz = doc["dual_steenrod_integral_form"]
    names = [g["name"] for g in mz["generators"]]
    assert names == ["xi_1", "tau_1", "xi_2", "tau_2"]
    assert mz["relations"] == ["tau_1^2 + xi_2*tau"]
    assert doc["coefficients"]["scheme"] == "algclosed"


def test_present_real_integral_part():
    code, out = run_cli(
        ["present", "--prime", "2", "--scheme", "real-p2", "--bound", "1"]
    )
    doc = json.loads(out)
    ints = doc["integral_coefficients"]
    by_name = {g["name"]: g for g in ints["generators"]}
    assert by_name["rho"]["order"] == 2
    assert by_name["tau^2"]["order"] == "free"
    assert "2*rho" in ints["relations"]
    # the quadratic relation carries the rho terms over the reals
    assert doc["dual_steenrod_full"]["relations"][0] == (
        "tau_0^2 + xi_1*tau + xi_1*tau_0*rho + tau_1*rho"
    )


def test_present_bound_zero_is_coefficients_only():
    code, out = run_cli(
        ["present", "--prime", "3", "--scheme", "algclosed", "--bound", "0"]
    )
    doc = json.loads(out)
    assert doc["dual_steenrod_integral_form"]["generators"] == []
    assert doc["pullback"]["torsion_generators"] == []
    assert doc["coefficients"]["generators"] == [
        {"name": "tau", "bidegree": [0, -1]}
    ]


def test_present_refuses_a_negative_bound(capsys):
    code = cli.main(["present", "--prime", "2", "--scheme", "algclosed", "--bound", "-1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("motsteen: error: ")


def test_present_w_table_override(tmp_path):
    table = tmp_path / "w.json"
    table.write_text(json.dumps({"2": 4}))
    code, out = run_cli(
        ["present", "--prime", "2", "--scheme", "zhalf", "--bound", "1",
         "--w-table", str(table)]
    )
    assert code == 0
    doc = json.loads(out)
    by_name = {g["name"]: g for g in doc["integral_coefficients"]["generators"]}
    assert by_name["eps_2"]["order"] == 4
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"2": 3}))
    code = cli.main(
        ["present", "--prime", "2", "--scheme", "zhalf", "--w-table", str(bad)]
    )
    assert code == 1


def _integral_orders(argv):
    code, out = run_cli(["present", *argv, "--bound", "1"])
    assert code == 0
    return {g["name"]: g["order"] for g in json.loads(out)["integral_coefficients"]["generators"]}


def test_present_prints_exact_orders(tmp_path):
    # "free" means infinite additive order; a finite order of 2^16 or more
    # used to print as "free"
    assert _integral_orders(["--prime", "2", "--scheme", "finite", "--q", "65537"]) == {
        "eps_1": 65536, "eps_2": 131072, "eps_3": 65536,
    }
    table = tmp_path / "w.json"
    table.write_text(json.dumps({"2": 1048576}))
    orders = _integral_orders(["--prime", "2", "--scheme", "zhalf", "--w-table", str(table)])
    assert orders == {"rho_1": 2, "rho_3": 2, "eps_1": "free", "eps_2": 1048576}
    assert _integral_orders(["--prime", "3", "--scheme", "finite", "--q", "7"]) == {
        "eps_1": 3, "eps_2": 3, "eps_3": 9,
    }


def test_present_omits_generators_of_order_one(tmp_path):
    # a w table with w(2) = 1 makes eps_2 over Z[1/2] a zero class, which is
    # not listed with "order": 1
    table = tmp_path / "w.json"
    table.write_text(json.dumps({"2": 1}))
    orders = _integral_orders(["--prime", "2", "--scheme", "zhalf", "--w-table", str(table)])
    assert orders == {"rho_1": 2, "rho_3": 2, "eps_1": "free"}
    assert all(order == "free" or order > 1 for order in orders.values())


@pytest.mark.parametrize("table", ["[1, 2]", '{"2": 0.5}', '{"2": 4.7}', '{"2": true}'])
def test_present_refuses_a_malformed_w_table(tmp_path, capsys, table):
    # a list used to end in a traceback, and int() read 4.7 as w(2) = 4
    path = tmp_path / "w.json"
    path.write_text(table)
    code = cli.main(["present", "--prime", "2", "--scheme", "zhalf", "--bound", "1",
                     "--w-table", str(path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("motsteen: error: ")


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(*path):
    with open(os.path.join(ROOT, *path), encoding="utf-8") as fh:
        return fh.read()


def documented_lines():
    """Every command line of the README examples and of CI (some of them CI
    expects to be refused) but the synopsis, --help and those with a shell
    variable."""
    lines = []
    for text in (read("README.md"), read(".github", "workflows", "tests.yml")):
        for line in re.findall(r'(?:motsteen |"\d+ )((?:dims|verify|present)\b[^|>;\n]*)', text):
            if "[" not in line and "$" not in line and "--help" not in line:
                lines.append(line.split('"')[0].split())
    return lines


# a value for each flag that takes one
FLAG_VALUES = {
    "--prime": "3", "--scheme": "zhalf", "--q": "7", "--dmax": "4", "--wmax": "3",
    "--format": "tsv", "--cache": "c", "--w-table": "w.json", "--bound": "1",
}
BASE = ["--prime", "2", "--scheme", "algclosed"]


def spellings():
    """Each flag of each command as --f v, as --f=v and by its shortest unique prefix."""
    for command, reads in cli.COMMANDS.items():
        for flag in reads:
            if flag in ("-h", "--help"):
                continue
            k = min(k for k in range(3, len(flag) + 1)
                    if [f for f in reads if f.startswith(flag[:k])] == [flag])
            value = [FLAG_VALUES[flag]] if flag in FLAG_VALUES else []
            yield [*COMMANDS[command], *BASE, flag, *value]
            yield [*COMMANDS[command], *BASE, flag[:k], *value]
            if value:
                yield [*COMMANDS[command], *BASE, f"{flag}={value[0]}"]


ACCEPTED = [line.split() for line in json.loads(read("perfbench", "reference.json"))] + [
    *spellings(),
    ["verify", "--prime", "2", "--scheme", "real", "--dmax", "4", "all"],  # the suite last
    ["verify", "--prime", "2", "chi", "--scheme", "real"],  # and between flags
    ["dims", *BASE, "--dmax", "4", "--dmax", "6"],  # the last value wins
    ["present", *BASE, "--bound", "-1"],  # a negative number is a value
    ["dims", *BASE, "--cache", "-1.5"],
    ["dims", *BASE, "--dmax=-3"],
    ["present", *BASE, "--w", "w.json"],  # --w is --w-table when present reads no --wmax
]
REFUSED = [
    *([*COMMANDS[command], *BASE, *flag] for command, flags in REFUSED_FLAGS.items()
      for flag in flags),
    ["dims", *BASE, "--bogus"],
    ["dims", *BASE, "--dmax"],  # a missing value
    ["dims", *BASE, "--dmax", "--wmax", "3"],
    ["verify", "chi", *BASE, "--strict=1"],
    ["dims", *BASE, "--dmax", "x"],  # not an int
    ["dims", *BASE, "--q", "7.0"],
    ["dims", *BASE, "--format", "xml"],  # not a choice
    ["dims", "--prime", "2", "--scheme", "moon"],
    ["verify", "chi", *BASE, "--w", "3"],  # --wmax or --w-table
    ["verify", "chi", *BASE, "--s"],  # --scheme or --strict
    ["dims", "--prime", "2"],
    ["dims", "--scheme", "algclosed"],
    ["verify", *BASE],
    [],
    ["--prime", "2", "dims", "--scheme", "algclosed"],
    ["draw", *BASE],
    ["verify", "nosuch", *BASE],
    ["verify", "chi", "all", *BASE],
    ["dims", "extra", *BASE],
    ["dims", *BASE, "--cache", "-x"],
    ["dims", *BASE, "-x"],
    ["dims", *BASE, "--help=1"],
]


def outcome(parse, argv, capsys):
    """(what parse returns, or its exit code; stdout)."""
    try:
        result = parse(argv)
    except SystemExit as exit_:
        result = exit_.code
    return result, capsys.readouterr().out


@pytest.mark.parametrize("argv,accepted", [
    *((argv, True) for argv in ACCEPTED),
    *((argv, False) for argv in REFUSED),
    *((argv, None) for argv in documented_lines()),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_parse_args_agrees_with_argparse(argv, accepted, capsys):
    # an accepted line gives the same values, and a refused line exit code 2
    # from both; neither prints to stdout
    want, out = outcome(oracles.parse_args, argv, capsys)
    assert out == ""
    assert accepted in (None, want != 2)
    got, out = outcome(cli.parse_args, argv, capsys)
    assert out == ""
    if want != 2 and got[0] == "present":
        got = got[0], {"bound": 2, **got[1]}  # main's default; argparse sets it
    assert got == want


def test_no_flag_a_command_reads_is_a_prefix_of_another():
    # so that a flag's full name is always its own unique prefix
    for reads in cli.COMMANDS.values():
        assert [f for f in reads for g in reads if f != g and g.startswith(f)] == []
        assert set(reads) <= set(cli.FLAGS)


def test_help_prints_the_readme_synopsis(capsys):
    synopsis = read("README.md").split("## Command line\n\n```\n")[1].split("```")[0]
    assert synopsis in cli.__doc__
    for argv in (["--help"], ["-h"], ["--he"], ["verify", "--help"],
                 ["present", "--prime", "2", "-h"]):
        assert outcome(cli.main, argv, capsys) == (0, synopsis)


def test_a_usage_error_prints_the_synopsis_and_the_reason(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["dims", "--prime", "2", "--dmax", "x"])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == cli._USAGE + "motsteen: error: --dmax: invalid int value 'x'\n"
