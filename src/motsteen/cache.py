"""Result cache: one JSON file per entry, named by a stable key hash.

Entries are versioned with the package version and a digest of the
package's own sources, so an entry written by other code is recomputed; a
version mismatch, or a file that is not an entry, reads as a miss.  Writers
publish via create-then-rename in the cache directory, so concurrent
processes never see a partial file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from . import __version__


def _source_digest():
    """SHA-256 of the package's .py sources, read once at import."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


CACHE_VERSION = f"1+{__version__}+{_source_digest()}"


def cache_key(parts):
    """Stable hash of a key mapping (sorted-key JSON, sha256)."""
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


class ResultCache:
    def __init__(self, directory):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, key_parts):
        return os.path.join(self.directory, cache_key(key_parts) + ".json")

    def load(self, key_parts):
        path = self._path(key_parts)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(entry, dict) or entry.get("version") != CACHE_VERSION:
            return None
        return entry.get("payload") if entry.get("key") == key_parts else None

    def store(self, key_parts, payload):
        entry = {"version": CACHE_VERSION, "key": key_parts, "payload": payload}
        blob = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(blob)
            os.replace(tmp, self._path(key_parts))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
