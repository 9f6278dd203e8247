"""On-disk JSON cache for computed tables.

One file per (artifact, key), named `<artifact>-<key>.json` with the key
spelled as the hex of its UTF-8 bytes.  Keys are short group names, so the
name is collision-free and reversible, and no hash is needed: `hashlib`
would load OpenSSL into every CLI process.  Every file carries a
schema_version field; entries written under a different version are
treated as absent, so bumping SCHEMA_VERSION invalidates the whole cache at
once.  Writes go through a temporary file and an atomic replace, a
half-written entry is never read back.
"""

import json
import sys
from pathlib import Path

SCHEMA_VERSION = 1


class Cache:
    """A directory of JSON entries, made if missing; disabled with a warning
    when it cannot be made.  Opening writes nothing else: a failed write
    warns in `put`."""

    def __init__(self, root):
        self.root = Path(root)
        self.enabled = False
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self.enabled = True
        except OSError as exc:
            print(f"warning: caching disabled, {exc}", file=sys.stderr)

    def _path(self, artifact: str, key: str) -> Path:
        return self.root / f"{artifact}-{key.encode().hex()}.json"

    def get(self, artifact: str, key: str):
        """The stored payload, or None on miss, version skew, or bad file."""
        if not self.enabled:
            return None
        try:
            obj = json.loads(self._path(artifact, key).read_text())
        except (OSError, ValueError):
            return None
        if obj.get("schema_version") != SCHEMA_VERSION or obj.get("key") != key:
            return None
        return obj.get("payload")

    def put(self, artifact: str, key: str, payload) -> None:
        if not self.enabled:
            return
        blob = json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "artifact": artifact,
                "key": key,
                "payload": payload,
            },
            sort_keys=True,
        )
        path = self._path(artifact, key)
        tmp = path.with_name(path.name + ".tmp")
        try:
            tmp.write_text(blob)
            tmp.replace(path)
        except OSError as exc:
            print(f"warning: cache write failed, {exc}", file=sys.stderr)
