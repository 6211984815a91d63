"""Disk cache of the dims table: one JSON file per configuration.

The file of one (p, scheme, q) maps "d,w" to the four numbers of
split_ranks at that bidegree.  It is tagged with the package version and a
digest of the package's own sources, so a file written by other code reads
as empty, and so does a file that is not a table; reading never raises.  An
entry is served only if it fits the basis built now; any other entry is
recomputed and overwritten.  The file is read once, and written once, by
create-then-rename, only when the run computed an entry: concurrent runs
never see a partial file, the last writer wins, and the next run recomputes
any entry it lost.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from . import __version__
from .bockstein import split_ranks
from .steenrod import bidegree_basis, coeff_monomials


def _source_digest():
    """SHA-256 of the package's .py sources, read once at import."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


CACHE_VERSION = f"1+{__version__}+{_source_digest()}"


def _read(path):
    """The entries of the table file at path; {} for anything else."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError):  # json recurses on deep nesting
        return {}
    if not isinstance(doc, dict) or doc.get("version") != CACHE_VERSION:
        return {}
    entries = doc.get("entries")
    return entries if isinstance(entries, dict) else {}


class RanksTable:
    """The split_ranks of one algebra handle, kept in one file of the cache directory."""

    def __init__(self, directory, h):
        s = h.scheme
        name = f"dims-{s.p}-{s.id}" + ("" if s.q is None else f"-{s.q}")
        self.path, self.h = os.path.join(directory, name + ".json"), h
        self.entries = _read(self.path)
        self.computed = False

    def ranks(self, bd):
        """split_ranks at bd, from the file when its entry fits the basis.

        An entry fits as four ints whose two dims are those of the bd basis
        built now and whose two ranks lie inside them.
        """
        key = f"{bd.d},{bd.w}"
        entry = self.entries.get(key)
        dim = len(bidegree_basis(bd, self.h))
        coeff_dim = len(coeff_monomials(bd, self.h.scheme))
        if (
            type(entry) is list and len(entry) == 4
            and all(type(v) is int for v in entry)
            and entry[:2] == [dim, coeff_dim]
            and 0 <= entry[2] <= coeff_dim and 0 <= entry[3] <= dim - coeff_dim
        ):
            return tuple(entry)
        ranks = split_ranks(bd, self.h)
        self.entries[key] = list(ranks)
        self.computed = True
        return ranks

    def save(self):
        """Publish the table by create-then-rename, if this run computed an entry."""
        if not self.computed:
            return
        doc = {"version": CACHE_VERSION, "entries": self.entries}
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        directory = os.path.dirname(self.path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(blob)
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
