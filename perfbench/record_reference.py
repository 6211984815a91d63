#!/usr/bin/env python3
"""Write reference.json: the stdout SHA-256 of every benchmark command line.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known good; the benchmark then
holds every later commit to these bytes.  A command that exits non-zero or
prints a FAIL check is refused rather than recorded.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import run as bench


def main():
    box = bench.Box(time.monotonic() + 3600)
    digests = {}
    try:
        for name in bench.WORKLOADS:
            for argv in bench.variants(name):
                result = box.invoke(argv)
                line = " ".join(argv)
                if result.code != 0 or (argv[0] == "verify" and b"FAIL" in result.stdout):
                    print(f"refusing to record {line}: exit {result.code}", file=sys.stderr)
                    return 1
                digests[line] = hashlib.sha256(result.stdout).hexdigest()
                print(f"{result.wall_s:7.3f} s  {digests[line][:12]}  {line}")
    finally:
        box.close()
    with open(bench.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
