"""Command line front end.

motsteen dims    --prime P --scheme S [--q Q] [--dmax D] [--wmax W]
                 [--format json|tsv|pretty] [--cache DIR]
motsteen verify SUITE --prime P --scheme S [--q Q] [--dmax D] [--wmax W]
                 [--format json|tsv|pretty] [--w-table FILE] [--strict]
motsteen present --prime P --scheme S [--q Q] [--bound N] [--w-table FILE]

Each command takes only the flags it reads, and --q only the finite-field
scheme; -h or --help prints these lines.  present always prints JSON, where
the additive order "free" marks an integral generator of infinite order.  Only
dims reads the cache: one file per configuration keeps, per bidegree, the
four numbers of split_ranks that the row is read from (see motsteen.cache).
The environment variable MOTSTEEN_CACHE overrides the cache directory.
Verification suites exit 0 when every check passes or only the documented
index discrepancies surface (reported as WARN); --strict turns WARN into
failure.  All outputs are deterministic under a fixed configuration, and
warm-cache runs are byte-identical to cold runs.
"""

from __future__ import annotations

import os
import sys

from .grading import BETA_SHIFT, tau_degree, xi_degree
from .elements import algebra, mono_degree
from .schemes import SchemeError, make_scheme
from .steenrod import basis_table, populated_bidegrees
from .bockstein import beta_report
from .verify import SUITES, run_suite

SCHEME_ALIASES = {"finite": "finite-field", "zhalf": "z-half"}  # the other names are ids


class ConfigError(ValueError):
    pass


class Config:
    def __init__(
        self, p, scheme, q=None, dmax=12, wmax=12,
        w_table_path=None, cache_dir=None, fmt="pretty", strict=False,
    ):
        if dmax < 0 or wmax < 0:
            raise ConfigError("degree bounds must be nonnegative")
        if fmt not in ("json", "tsv", "pretty"):
            raise ConfigError(f"unknown format {fmt!r}")
        try:
            scheme = make_scheme(SCHEME_ALIASES.get(scheme, scheme), p, q).id  # the resolved id
        except SchemeError as e:
            raise ConfigError(str(e))
        self.p, self.scheme, self.q = p, scheme, q
        self.dmax, self.wmax = dmax, wmax
        self.w_table_path, self.cache_dir = w_table_path, cache_dir
        self.fmt, self.strict = fmt, strict
        self.w_fn = None
        if w_table_path:
            import json

            with open(w_table_path, encoding="utf-8") as fh:
                raw = json.load(fh)
            # bool is an int subclass, and int() would truncate a float
            if not isinstance(raw, dict) or not all(
                k.removeprefix("-").isdecimal() and type(v) is int for k, v in raw.items()
            ):
                raise ConfigError('the w table must be a JSON object {"k": w(k)} of integers')
            table = {int(k): v for k, v in raw.items()}
            for k, v in table.items():
                if v < 1 or v & (v - 1):
                    raise ConfigError(f"w({k}) = {v} is not a positive power of two")

            def w_fn(k, _table=table):
                from .integral import default_w

                return _table.get(k, default_w(k))

            self.w_fn = w_fn

    def handle(self):
        return algebra(self.scheme, self.p, self.q)

    def cache(self):
        """The dims table of the configured cache directory, or None without one."""
        directory = os.environ.get("MOTSTEEN_CACHE") or self.cache_dir
        if not directory:
            return None
        from .cache import RanksTable

        return RanksTable(directory, self.handle())

    def key_base(self):
        return {"p": self.p, "scheme": self.scheme, "q": self.q}


# ---------------------------------------------------------------------------
# Commands


def cmd_dims(config):
    """Per-bidegree table of dim, rank, kernel, image, and homology."""
    h = config.handle()
    table = config.cache()
    basis_table(h, config.dmax + 1, config.wmax)  # beta_report also reads bd + (1, 0)
    bidegrees = populated_bidegrees(h, config.dmax, config.wmax)
    if table is None:
        return beta_report(bidegrees, h)
    rows = beta_report(bidegrees, h, table.ranks)
    table.save()
    return rows


def format_dims(rows, config):
    if config.fmt == "json":
        import json

        doc = {
            "schema": "motsteen.dims/1",
            **config.key_base(),
            "dmax": config.dmax,
            "wmax": config.wmax,
            "rows": rows,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    header = ["d", "w", "dim", "rank", "ker", "im", "homology", "notes"]
    lines = []
    for row in rows:
        lines.append(
            [
                str(row["bidegree"][0]),
                str(row["bidegree"][1]),
                str(row["dim"]),
                str(row["rank"]),
                str(row["ker"]),
                str(row["im"]),
                str(row["homology"]),
                ";".join(row["notes"]),
            ]
        )
    if config.fmt == "tsv":
        return "\n".join("\t".join(r) for r in [header] + lines) + "\n"
    widths = [max(len(r[i]) for r in [header] + lines) for i in range(len(header))]
    out = []
    for r in [header] + lines:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(out) + "\n"


def cmd_verify(config, suite):
    """Run one verification suite; returns (exit_code, results)."""
    results = run_suite(suite, config)
    worst = 0
    for _, status, _ in results:
        if status == "FAIL":
            worst = 1
        elif status == "WARN" and config.strict:
            worst = max(worst, 1)
    return worst, results


def format_verify(results, config, suite):
    if config.fmt == "json":
        import json

        doc = {
            "schema": "motsteen.verify/1",
            **config.key_base(),
            "suite": suite,
            "checks": [
                {"name": n, "status": s, "detail": d} for n, s, d in results
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = [f"{s:4}  {n}" + (f" — {d}" if d else "") for n, s, d in results]
    if config.fmt == "tsv":
        lines = [f"{s}\t{n}\t{d}" for n, s, d in results]
    return "\n".join(lines) + "\n"


def cmd_present(config, bound):
    """Machine-readable presentation of the algebras, truncated at an index bound."""
    if bound < 0:
        raise ConfigError("index bound must be nonnegative")
    from .integral import IntCoeffRing

    h = config.handle()
    p = config.p
    scheme = h.scheme
    ring = IntCoeffRing(scheme, config.w_fn)
    int_gen_monos, int_relations = ring.presentation()

    def gen_entry(name, bd, order=None):
        e = {"name": name, "bidegree": [bd.d, bd.w]}
        if order is not None:
            e["order"] = order
        return e

    full_gens = [gen_entry("tau_0", tau_degree(p, 0))]
    mz_gens = []
    for i in range(1, bound + 1):
        full_gens.append(gen_entry(f"xi_{i}", xi_degree(p, i)))
        full_gens.append(gen_entry(f"tau_{i}", tau_degree(p, i)))
        mz_gens.append(gen_entry(f"xi_{i}", xi_degree(p, i)))
        mz_gens.append(gen_entry(f"tau_{i}", tau_degree(p, i)))

    rho = scheme.rho_element

    def quad_relation(i, with_tau0):
        if p != 2:
            return f"tau_{i}^2"
        bits = [f"tau_{i}^2", f"xi_{i+1}*tau"]
        if rho is not None:
            if with_tau0:
                bits.append(f"xi_{i+1}*tau_0*{rho}")
            bits.append(f"tau_{i+1}*{rho}")
        return " + ".join(bits)

    full_rel = [quad_relation(i, True) for i in range(bound)]
    mz_rel = [quad_relation(i, False) for i in range(1, bound)]

    # a generator of order 1 is zero, so it is not listed
    int_gens = [
        gen_entry(name, ring.mono_degree(mono), order or "free")
        for name, mono in int_gen_monos
        for order in (ring.mono_order(mono),)
        if order != 1
    ]

    y_gens = []
    if bound >= 1:
        from .steenrod import basis_index, u_maximal
        from itertools import combinations

        idxs = list(range(1, bound + 1))
        subsets = [
            c for r in range(1, bound + 1) for c in combinations(idxs, r)
        ]
        from .relations import _exponent_vectors

        for a in _exponent_vectors(idxs, bound):
            for U in subsets:
                idx = basis_index(a, U)
                if not u_maximal(idx):
                    continue
                bd = mono_degree(idx, p) + BETA_SHIFT
                y_gens.append(
                    {
                        "a": sorted(a.items()),
                        "U": list(U),
                        "bidegree": [bd.d, bd.w],
                    }
                )
        y_gens.sort(key=lambda g: (g["bidegree"], g["a"], g["U"]))

    doc = {
        "schema": "motsteen.present/1",
        "coefficients": scheme.describe(),
        "dual_steenrod_full": {"generators": full_gens, "relations": full_rel},
        "dual_steenrod_integral_form": {"generators": mz_gens, "relations": mz_rel},
        "integral_coefficients": {
            "generators": int_gens,
            "relations": int_relations,
        },
        "pullback": {
            "description": "pairs (z, k) with q(z) = augment(k), k a Bockstein cycle",
            "torsion_generators": y_gens,
            "ideal": [
                "p * y[a,U]",
                "signed (j+1)-subset linear relations (Koszul signs)",
                "closed product formula (subscript-indexed deltas)",
            ],
        },
        "index_bound": bound,
    }
    return doc


# ---------------------------------------------------------------------------


# Each flag's parameter and kind: int, str, bool (a switch) or a tuple of choices.
# A flag left out sets nothing, so Config's default applies; present's bound is 2.
FLAGS = {
    "-h": ("help", bool),
    "--help": ("help", bool),
    "--prime": ("p", int),
    "--scheme": ("scheme", ("algclosed", "finite", "finite-field", "real", "real-odd",
                            "real-p2", "z-half", "zhalf")),
    "--q": ("q", int),
    "--dmax": ("dmax", int),
    "--wmax": ("wmax", int),
    "--format": ("fmt", ("json", "tsv", "pretty")),
    "--cache": ("cache_dir", str),
    "--w-table": ("w_table_path", str),
    "--strict": ("strict", bool),
    "--bound": ("bound", int),
}
# The flags each command reads, none a prefix of another, and verify's SUITE.
COMMON = ("-h", "--help", "--prime", "--scheme", "--q")
COMMANDS = {
    "dims": (*COMMON, "--dmax", "--wmax", "--format", "--cache"),
    "verify": (*COMMON, "--dmax", "--wmax", "--format", "--w-table", "--strict"),
    "present": (*COMMON, "--bound", "--w-table"),
}
_USAGE = (__doc__ or "\n\n").split("\n\n")[1] + "\n"  # the synopsis above


def _refuse(reason):
    """End a refused line as argparse does: usage and reason on stderr, exit 2."""
    sys.stderr.write(f"{_USAGE}motsteen: error: {reason}\n")
    raise SystemExit(2)


def _is_value(arg):
    """Whether arg is no option: one that starts with "-" is "-" or a number."""
    head, dot, tail = arg[1:].partition(".")
    number = tail.isdecimal() and (head + "0").isdecimal() if dot else head.isdecimal()
    return arg[:1] != "-" or arg == "-" or number


def parse_args(argv):
    """The command of the line argv and {parameter: value} of the flags it
    gives (by name or unique prefix) and of verify's "suite".  A refused line
    ends in SystemExit(2); -h or --help prints the usage, SystemExit(0)."""
    command, values, reads, rest = None, {}, ("-h", "--help"), iter(argv)
    for arg in rest:
        if _is_value(arg):  # the command, then verify's suite
            if command is None and arg in COMMANDS:
                command, reads = arg, COMMANDS[arg]
            elif command == "verify" and "suite" not in values and arg in SUITES:
                values["suite"] = arg
            else:
                _refuse(f"invalid or unrecognized argument {arg!r}")
            continue
        name, eq, value = arg.partition("=")
        hits = [f for f in reads if f.startswith(name) and name != "--"]
        if len(hits) != 1:
            _refuse(f"ambiguous option {name}" if hits else f"unrecognized argument {arg!r}")
        dest, kind = FLAGS[hits[0]]
        if kind is bool and eq:
            _refuse(f"{name} takes no value")
        if dest == "help":
            sys.stdout.write(_USAGE)
            raise SystemExit(0)
        if kind is not bool and not eq:
            value = next(rest, None)
            if value is None or not _is_value(value):
                _refuse(f"{name} expects a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _refuse(f"{name}: invalid int value {value!r}")
        elif kind not in (str, bool) and value not in kind:
            _refuse(f"{name}: invalid choice {value!r} (choose from {', '.join(kind)})")
        values[dest] = True if kind is bool else value
    missing = [f for f in ("--prime", "--scheme") if FLAGS[f][0] not in values]
    if command is None or missing or command == "verify" and "suite" not in values:
        _refuse(f"missing {', '.join(missing or ['SUITE']) if command else 'the command'}")
    return command, values


def main(argv=None):
    command, values = parse_args(sys.argv[1:] if argv is None else argv)
    suite, bound = values.pop("suite", None), values.pop("bound", 2)
    try:
        config = Config(**values)
        if command == "dims":
            rows = cmd_dims(config)
            sys.stdout.write(format_dims(rows, config))
            return 0
        if command == "verify":
            code, results = cmd_verify(config, suite)
            sys.stdout.write(format_verify(results, config, suite))
            return code
        import json  # present

        doc = cmd_present(config, bound)
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return 0
    except (ConfigError, SchemeError, OSError, ValueError) as e:
        print(f"motsteen: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
