"""The on-disk content-addressed artifact store.

Layout, under the cache root (default ``.repro-cache/``)::

    <key[:2]>/<key>/meta.json      name, entry, stats, timings, variant list
    <key[:2]>/<key>/<variant>.ir   printed IR, one file per variant

Writes are atomic: a build lands in a temp directory that is ``os.replace``d
into place, so a reader never observes a half-written entry and concurrent
writers of the same key race benignly (content-addressing makes their
payloads identical).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Optional

from repro.artifacts.build import BuiltArtifacts
from repro.obs import OBS, env_flag, env_int

_META = "meta.json"

#: Hex characters of the key used as the shard directory (0 disables
#: sharding; the default 2 gives 256 shards).  Shared with the serve
#: result cache — concurrent tenants spread across shard directories
#: instead of contending on one directory's entry list.
SHARD_ENV_VAR = "REPRO_CACHE_SHARDS"
DEFAULT_SHARD_WIDTH = 2
#: An off word (``0``/``no``/``false``/``off``) disables caching.
CACHE_ENV_VAR = "REPRO_CACHE"


def shard_width_from_env() -> int:
    return env_int(SHARD_ENV_VAR, DEFAULT_SHARD_WIDTH, 0, 8)


def default_store() -> "Optional[ArtifactStore]":
    """The store selected by the environment.

    ``REPRO_CACHE=0`` disables caching entirely; ``REPRO_CACHE_DIR``
    relocates the root (default ``.repro-cache`` in the working directory);
    ``REPRO_CACHE_SHARDS`` controls the key-prefix shard width.
    """
    if not env_flag(CACHE_ENV_VAR, True):
        return None
    return ArtifactStore(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))


class BlobStore:
    """A flat content-addressed blob directory (sha256-keyed, write-once).

    The fuzz campaign's corpus dedup sits on this: a blob's key *is* the
    sha256 of its bytes, so storing the same rendered program twice is a
    no-op and "have I seen this sample" is one ``is_file`` check.  Writes
    go through a temp file + ``os.replace`` like the artifact entries, so
    concurrent shard processes race benignly.  Sharding reuses the
    ``REPRO_CACHE_SHARDS`` width of :class:`ArtifactStore`.
    """

    def __init__(self, root, shard_width: Optional[int] = None) -> None:
        self.root = Path(root)
        self.shard_width = (
            shard_width_from_env() if shard_width is None else shard_width
        )

    @staticmethod
    def key_of(data: bytes) -> str:
        import hashlib

        return hashlib.sha256(data).hexdigest()

    def _path(self, key: str) -> Path:
        shard = key[: self.shard_width] if self.shard_width else "_"
        return self.root / shard / f"{key}.blob"

    def has(self, key: str) -> bool:
        return self._path(key).is_file()

    def put(self, data: bytes) -> tuple[str, bool]:
        """Store ``data``; return ``(key, was_new)``."""
        key = self.key_of(data)
        path = self._path(key)
        if path.is_file():
            if OBS.enabled:
                OBS.counter("fuzz.corpus.dedup_hits")
            return key, False
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, staging = tempfile.mkstemp(dir=path.parent, prefix=".blob-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(staging, path)
        except OSError:
            try:
                os.unlink(staging)
            except OSError:
                pass
            return key, False
        if OBS.enabled:
            OBS.counter("fuzz.corpus.blobs_written")
            OBS.counter("fuzz.corpus.bytes_written", len(data))
        return key, True

    def get(self, key: str) -> Optional[bytes]:
        try:
            return self._path(key).read_bytes()
        except OSError:
            return None

    def known_keys(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name[: -len(".blob")]
            for shard in self.root.iterdir()
            if shard.is_dir() and not shard.name.startswith(".")
            for entry in shard.iterdir()
            if entry.name.endswith(".blob")
        )


class ArtifactStore:
    """Content-addressed artifact directory, sharded by key prefix."""

    def __init__(self, root, shard_width: Optional[int] = None) -> None:
        self.root = Path(root)
        self.shard_width = (
            shard_width_from_env() if shard_width is None else shard_width
        )

    def shard_of(self, key: str) -> str:
        return key[: self.shard_width] if self.shard_width else "_"

    def _entry_dir(self, key: str) -> Path:
        return self.root / self.shard_of(key) / key

    def has(self, key: str) -> bool:
        """Cheap existence check (meta present, IR not read)."""
        return (self._entry_dir(key) / _META).is_file()

    def load(self, key: str, observe: bool = True) -> Optional[BuiltArtifacts]:
        """Return the cached build for ``key``, or None on any miss.

        ``observe=False`` suppresses the hit/miss metrics — used for
        internal re-reads (parent-side rehydration after a worker already
        recorded the logical cache outcome).
        """
        entry = self._entry_dir(key)
        try:
            meta_text = (entry / _META).read_text()
            meta = json.loads(meta_text)
            ir = {
                variant: (entry / f"{variant}.ir").read_text()
                for variant in meta["variants"]
            }
        except (OSError, ValueError, KeyError):
            if OBS.enabled and observe:
                OBS.counter("artifacts.store.misses")
            return None
        if OBS.enabled and observe:
            OBS.counter("artifacts.store.hits")
            OBS.counter(
                "artifacts.store.bytes_read",
                len(meta_text) + sum(len(text) for text in ir.values()),
            )
            OBS.event("artifacts.store.hit", key=key, name=meta["name"])
        return BuiltArtifacts(
            name=meta["name"],
            key=key,
            entry=meta["entry"],
            ir=ir,
            module_names=meta["module_names"],
            repair_stats=meta["repair_stats"],
            sce_stats=meta["sce_stats"],
            sce_error=meta["sce_error"],
            sce_correct=meta["sce_correct"],
            timings=meta["timings"],
            instruction_counts=meta["instruction_counts"],
            opt_pass_stats=meta.get("opt_pass_stats", {}),
            certification=meta.get("certification", {}),
            certification_matrix=meta.get("certification_matrix", {}),
            cache_hit=True,
        )

    def save(self, built: BuiltArtifacts) -> None:
        entry = self._entry_dir(built.key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(dir=entry.parent, prefix=".staging-"))
        try:
            meta = {
                "name": built.name,
                "entry": built.entry,
                "variants": sorted(built.ir),
                "module_names": built.module_names,
                "repair_stats": built.repair_stats,
                "sce_stats": built.sce_stats,
                "sce_error": built.sce_error,
                "sce_correct": built.sce_correct,
                "timings": built.timings,
                "instruction_counts": built.instruction_counts,
                "opt_pass_stats": built.opt_pass_stats,
                "certification": built.certification,
                "certification_matrix": built.certification_matrix,
            }
            for variant, text in built.ir.items():
                (staging / f"{variant}.ir").write_text(text)
            meta_text = json.dumps(meta, indent=1, sort_keys=True)
            (staging / _META).write_text(meta_text)
            if OBS.enabled:
                OBS.counter("artifacts.store.writes")
                OBS.counter(
                    "artifacts.store.bytes_written",
                    len(meta_text) + sum(len(t) for t in built.ir.values()),
                )
            try:
                os.replace(staging, entry)
            except OSError:
                # The entry already exists.  If it is readable another
                # writer won a benign race (identical content); otherwise
                # it is a corrupt leftover — clear it and try once more.
                if self.load(built.key, observe=False) is None:
                    shutil.rmtree(entry, ignore_errors=True)
                    os.replace(staging, entry)
                else:
                    shutil.rmtree(staging, ignore_errors=True)
        except OSError:
            # Unwritable cache dir or a second lost race: the build itself
            # still succeeded, so drop the staging copy and go on.
            shutil.rmtree(staging, ignore_errors=True)

    def known_keys(self) -> list[str]:
        """Keys with a complete entry on disk (for tests and diagnostics)."""
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for shard in self.root.iterdir()
            if shard.is_dir() and not shard.name.startswith(".")
            for entry in shard.iterdir()
            if (entry / _META).is_file()
        )

    def shard_stats(self) -> dict:
        """Entry counts per shard directory (``lif serve`` diagnostics)."""
        shards: dict[str, int] = {}
        entries = 0
        if self.root.is_dir():
            for shard in sorted(self.root.iterdir()):
                if not shard.is_dir() or shard.name.startswith("."):
                    continue
                count = sum(
                    1
                    for entry in shard.iterdir()
                    if (entry / _META).is_file()
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
