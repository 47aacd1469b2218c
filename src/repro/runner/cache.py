"""Content-addressed on-disk cache for sweep-cell results.

Every sweep cell is a pure function of its inputs: the experiment
sizing (scale / length / seed), the workload name, the mechanism kind
and parameters, the machine geometry, and the code itself.  The cache
therefore keys each result by a SHA-256 fingerprint over exactly those
inputs — one JSON file per cell under ``REPRO_CACHE_DIR`` (default
``~/.cache/repro``) — and rehydrates the stored dataclass on a hit.

Invalidation is purely key-based: change *any* fingerprint input and
the old entry is simply never looked up again.  The code-version token
is a digest over every ``.py`` file in the :mod:`repro` package, so
editing any source file cold-starts the cache rather than serving
results computed by different code.  Corrupt or truncated entries read
as misses, counted apart from absent ones so the CLI summary can name
them.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..system.stats import SimulationResult
from ..tracking.oracle import OracleResult

CACHE_ENV_VAR = "REPRO_CACHE_DIR"

#: result dataclasses the cache knows how to store and rehydrate
RESULT_TYPES = {
    "simulation": SimulationResult,
    "oracle": OracleResult,
}

CacheableResult = Union[SimulationResult, OracleResult]


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


@lru_cache(maxsize=1)
def code_version_token() -> str:
    """Digest of every source file in the :mod:`repro` package.

    Part of every cache key: any source edit (new mechanism behaviour,
    timing tweak, bugfix) yields a new token, so stale results computed
    by older code are never served.  Computed once per process.
    """
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(payload: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON rendering of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def result_type_name(result: CacheableResult) -> str:
    """The registry tag for a result instance."""
    for name, cls in RESULT_TYPES.items():
        if isinstance(result, cls):
            return name
    raise TypeError(f"uncacheable result type: {type(result).__name__}")


class ResultCache:
    """One JSON file per cell, addressed by fingerprint.

    Writes are atomic (write-then-rename), so concurrent workers and
    concurrent sweep processes sharing one cache directory can only
    ever race to write identical bytes.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        #: entries that existed but could not be read back (recomputed)
        self.corrupt_entries = 0

    def path_for(self, key: str) -> Path:
        """Where entry ``key`` lives (two-level fan-out keeps dirs small)."""
        return self.root / key[:2] / f"{key[2:]}.json"

    def load(self, key: str) -> Optional[CacheableResult]:
        """Rehydrate the stored result, or ``None`` on any kind of miss.

        An entry that exists but cannot be read back (truncated,
        garbage, foreign schema) is a miss too, and is counted in
        :attr:`corrupt_entries`.
        """
        try:
            payload = json.loads(self.path_for(key).read_text(encoding="utf-8"))
            cls = RESULT_TYPES[payload["type"]]
            return cls(**payload["result"])
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self.corrupt_entries += 1
            return None

    def store(self, key: str, result: CacheableResult) -> None:
        """Persist ``result`` under ``key`` atomically."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"type": result_type_name(result), "result": asdict(result)}
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
        finally:
            # After a successful replace the temp name is gone; on any
            # failure this reclaims it.  Either way nothing is swallowed.
            try:
                os.unlink(tmp)
            except OSError:
                pass
