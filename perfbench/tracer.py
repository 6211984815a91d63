"""Outside-in tracer: runs the motsteen CLI with its public functions wrapped.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.jsonl dims --prime 2 ...

Nothing under src/ knows about it.  After importing motsteen.cli, every
function in TRACED is replaced by a timing wrapper in every motsteen.*
namespace that holds it.  The match is by identity, because
`from .x import f` copies the binding into the importing module, and a
wrapper installed only in the defining module would miss those callers.

Every wrapped call feeds an aggregate per group: calls, inclusive time
(outermost frame of a recursion only) and self time (duration minus what
traced children cover).  Groups marked as spans also keep one record per
call, with its parent span and its bidegree or name argument.  Hot leaves
such as `beta` (10^5 to 10^6 calls) are aggregates only.  Everything stays
in memory and is written as JSON lines when the command returns; the CLI's
stdout is left untouched.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute, group, keep one span per call)
TRACED = (
    ("steenrod", "steenrod_monomials", "steenrod.enumerate", False),
    ("steenrod", "steenrod_monomials_by_degree", "steenrod.enumerate", False),
    ("steenrod", "bidegree_basis", "steenrod.bidegree_basis", True),
    ("steenrod", "coeff_monomials", "steenrod.coeff_monomials", False),
    ("steenrod", "populated_bidegrees", "steenrod.populated_bidegrees", True),
    ("steenrod", "conjugate", "steenrod.conjugate", False),
    ("steenrod", "chi_generator", "steenrod.chi_generator", False),
    ("steenrod", "mz_image_in_a", "steenrod.mz_image_in_a", False),
    ("bockstein", "beta", "bockstein.beta", False),
    ("bockstein", "beta_matrix", "bockstein.beta_matrix", True),
    ("bockstein", "_ideal_rank", "bockstein.ideal_rank", True),
    ("bockstein", "coeff_homology_dim", "bockstein.coeff_homology_dim", False),
    ("bockstein", "ker_beta_basis", "bockstein.ker_beta_basis", True),
    ("bockstein", "constructive_kernel", "bockstein.constructive_kernel", True),
    ("bockstein", "free_bbeta_generators", "bockstein.free_bbeta_generators", True),
    ("elements", "normalize", "elements.normalize", False),
    ("elements", "Element.homogeneous_bidegree", "elements.homogeneous_bidegree", False),
    ("elements", "mul", "elements.mul", False),
    ("elements", "coeff_scale", "elements.coeff_scale", False),
    ("linalg", "kernel_basis", "linalg.kernel_basis", True),
    ("linalg", "rank_of_columns", "linalg.rank_of_columns", False),
    ("linalg", "rank", "linalg.rank", False),
    ("verify", "run_suite", "verify.suite", True),
    ("cli", "cmd_dims", "cli.cmd", True),
    ("cli", "cmd_verify", "cli.cmd", True),
    ("cli", "format_dims", "cli.format", False),
    ("cli", "format_verify", "cli.format", False),
)


def _span_arg(args):
    """The bidegree (as [d, w]) or the name a coarse call was made with."""
    for a in args:
        if isinstance(a, str):
            return a
        if isinstance(a, tuple) and len(a) == 2 and all(type(v) is int for v in a):
            return list(a)
    return None


class Tracer:
    def __init__(self):
        self.stack = []      # one [child_time] cell per active traced call
        self.open_spans = [] # ids of the active span-keeping calls
        self.stats = {}      # group -> [calls, inclusive_s, self_s, active]
        self.spans = []
        self.counters = {
            "bidegree_basis.distinct": 0,
            "bidegree_basis.monomials": 0,
            "beta_matrix.nnz": 0,
            "kernel_basis.nullity": 0,
            "constructive_kernel.elements": 0,
        }
        self._bases_seen = set()
        self._observers = {
            "steenrod.bidegree_basis": self._saw_basis,
            "bockstein.beta_matrix": self._saw_matrix,
            "linalg.kernel_basis": self._saw_kernel,
            "bockstein.constructive_kernel": self._saw_constructive,
        }

    # -- counters derived from arguments and return values only -------------

    def _saw_basis(self, args, result):
        bd, h = args[0], args[1]
        key = (h.scheme.id, h.p, h.scheme.q, h.ambient, tuple(bd))
        if key not in self._bases_seen:
            self._bases_seen.add(key)
            self.counters["bidegree_basis.distinct"] += 1
            self.counters["bidegree_basis.monomials"] += len(result)

    def _saw_matrix(self, args, result):
        self.counters["beta_matrix.nnz"] += len(result.entries)

    def _saw_kernel(self, args, result):
        self.counters["kernel_basis.nullity"] += len(result.vectors)

    def _saw_constructive(self, args, result):
        self.counters["constructive_kernel.elements"] += len(result)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, group, keep_spans, attr):
        stat = self.stats.setdefault(group, [0, 0.0, 0.0, 0])
        stack = self.stack
        observe = self._observers.get(group)
        clock = time.perf_counter

        if not keep_spans:
            def traced(*args, **kwargs):
                cell = [0.0]
                stack.append(cell)
                stat[3] += 1
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    stat[3] -= 1
                    stat[0] += 1
                    stat[2] += dur - cell[0]
                    if not stat[3]:
                        stat[1] += dur
                    if stack:
                        stack[-1][0] += dur
                if observe is not None:
                    observe(args, result)
                return result

            return traced

        spans = self.spans
        open_spans = self.open_spans

        def traced(*args, **kwargs):
            cell = [0.0]
            span_id = len(spans)
            record = {
                "id": span_id,
                "parent": open_spans[-1] if open_spans else None,
                "name": group,
                "fn": attr,
                "arg": _span_arg(args),
            }
            spans.append(record)
            open_spans.append(span_id)
            stack.append(cell)
            stat[3] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                open_spans.pop()
                stat[3] -= 1
                stat[0] += 1
                stat[2] += dur - cell[0]
                if not stat[3]:
                    stat[1] += dur
                if stack:
                    stack[-1][0] += dur
                record["start"] = t0
                record["end"] = t1
                record["self_s"] = dur - cell[0]
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self):
        """Replace every TRACED function in every motsteen namespace holding it.

        A function the program no longer has is reported on stderr and its
        group stays at zero, so renaming one does not break traced runs.
        """
        namespaces = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "motsteen" or name.startswith("motsteen."))
        ]
        for mod_name, attr, group, keep_spans in TRACED:
            self.stats.setdefault(group, [0, 0.0, 0.0, 0])
            owner = sys.modules.get(f"motsteen.{mod_name}")
            name = attr
            if "." in attr:  # a method: one class attribute to replace
                cls_name, name = attr.split(".")
                owner = getattr(owner, cls_name, None)
            original = vars(owner).get(name) if owner is not None else None
            if not callable(original):
                print(f"tracer: motsteen.{mod_name}.{attr} not found", file=sys.stderr)
                continue
            wrapper = self.wrap(original, group, keep_spans, attr)
            if isinstance(owner, type):
                setattr(owner, name, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for group, (calls, incl, self_s, _) in sorted(self.stats.items()):
                fh.write(json.dumps({
                    "type": "stat", "name": group, "calls": calls,
                    "incl_s": incl, "self_s": self_s,
                }) + "\n")
            for name, value in sorted(self.counters.items()):
                fh.write(json.dumps({"type": "counter", "name": name, "value": value}) + "\n")
            for record in self.spans:
                fh.write(json.dumps({"type": "span", **record}) + "\n")


def main(argv):
    if len(argv) < 2:
        print("usage: tracer.py SPANS.jsonl CLI-ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    import motsteen.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = motsteen.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.write(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
