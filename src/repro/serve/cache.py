"""The sharded content-addressed result cache.

Served results are immutable (the job key covers the source, the options
and the pipeline code digest), so the cache is a plain write-once layout::

    <root>/<shard>/<key>.json        canonical result bytes per job key

where ``shard = key[:width]`` (``REPRO_CACHE_SHARDS`` hex characters,
default 2 — 256 shards).  Sharding keeps concurrent tenants from
contending on one directory's inode lock and keeps per-directory entry
counts small; the width is part of the lookup path only, so changing it
simply starts a fresh namespace.

Writes are atomic (``os.replace`` of a same-directory temp file) and
races are benign: two writers of one key write identical bytes by
content-addressing.  Hit/miss/write/bytes counters flow through
``repro.obs`` as ``serve.cache.*``.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Optional

from repro.artifacts.store import SHARD_ENV_VAR, shard_width_from_env
from repro.obs import OBS, env_flag

#: An off word disables the serve result cache specifically.
SERVE_CACHE_ENV_VAR = "REPRO_SERVE_CACHE"

__all__ = [
    "ResultCache",
    "SERVE_CACHE_ENV_VAR",
    "SHARD_ENV_VAR",
    "default_result_cache",
    "shard_width_from_env",
]


def default_result_cache() -> "Optional[ResultCache]":
    """The environment-selected result cache.

    Lives under the artifact cache root (``REPRO_CACHE_DIR``) in its own
    ``serve/`` namespace; ``REPRO_SERVE_CACHE=0`` (or ``REPRO_CACHE=0``)
    disables result caching without touching the artifact store.
    """
    if not (env_flag("REPRO_CACHE", True)
            and env_flag(SERVE_CACHE_ENV_VAR, True)):
        return None
    root = Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache")) / "serve"
    return ResultCache(root)


class ResultCache:
    """Sharded write-once store of canonical result bytes."""

    def __init__(self, root, shard_width: Optional[int] = None) -> None:
        self.root = Path(root)
        self.shard_width = (
            shard_width_from_env() if shard_width is None else shard_width
        )

    def shard_of(self, key: str) -> str:
        return key[: self.shard_width] if self.shard_width else "_"

    def _path(self, key: str) -> Path:
        return self.root / self.shard_of(key) / f"{key}.json"

    def get(self, key: str) -> Optional[bytes]:
        """Canonical result bytes for ``key``, or None on a miss."""
        try:
            blob = self._path(key).read_bytes()
        except OSError:
            if OBS.enabled:
                OBS.counter("serve.cache.misses")
            return None
        if OBS.enabled:
            OBS.counter("serve.cache.hits")
            OBS.counter("serve.cache.bytes_read", len(blob))
        return blob

    def put(self, key: str, blob: bytes) -> None:
        """Store ``blob`` under ``key`` atomically (racing writes benign)."""
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, staging = tempfile.mkstemp(
                dir=path.parent, prefix=".staging-"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(staging, path)
            except OSError:
                try:
                    os.unlink(staging)
                except OSError:
                    pass
                raise
        except OSError:
            # Unwritable cache: serving continues, only dedup is lost.
            return
        if OBS.enabled:
            OBS.counter("serve.cache.writes")
            OBS.counter("serve.cache.bytes_written", len(blob))

    def stats(self) -> dict:
        """Entry counts per shard (diagnostics and the /v1/stats payload)."""
        shards: dict[str, int] = {}
        entries = 0
        if self.root.is_dir():
            for shard in sorted(self.root.iterdir()):
                if not shard.is_dir() or shard.name.startswith("."):
                    continue
                count = sum(
                    1 for p in shard.iterdir() if p.suffix == ".json"
                )
                if count:
                    shards[shard.name] = count
                    entries += count
        return {
            "entries": entries,
            "shards": len(shards),
            "shard_width": self.shard_width,
            "hottest_shard": (
                max(shards.items(), key=lambda kv: kv[1])[0] if shards else None
            ),
            "per_shard": shards,
        }
