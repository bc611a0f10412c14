"""Content-addressed result cache for experiment cells.

A cell's cache key is the SHA-256 of its canonicalised
:class:`~repro.experiments.config.ExperimentConfig` (the same JSON-safe
rendering that goes into ``repro.run_manifest/v1`` manifests, serialised
with sorted keys), so any change to any config field — queue parameters,
seed, scale, transport — yields a different key. Entries are one JSON
file per cell under the cache directory, which makes resume-after-
interrupt a directory scan and lets concurrent sweeps share a cache.

Fidelity: entries round-trip :class:`~repro.stats.collect.RunMetrics`
(including the private occupancy-integral accumulators of
:class:`~repro.core.qdisc.QueueStats`) and every
:class:`~repro.core.monitor.QueueSnapshot` exactly — Python's JSON float
serialisation is ``repr``-based and round-trips bit-identically — so a
cache hit compares equal to a fresh run of the same config.

Caveat (documented in EXPERIMENTS.md): the key covers the *config*, not
the code. After editing simulator behaviour, point sweeps at a fresh
``--cache-dir`` (or delete the old one); a stale entry for an unchanged
config would otherwise be served as-is. Entries embed the package
version and ``git describe`` to make such audits possible.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time as _time
from itertools import count as _count
from typing import Any, Dict, List, Optional

from repro.core.monitor import QueueSnapshot
from repro.core.qdisc import QueueStats
from repro.errors import ExperimentError
from repro.experiments.config import CellResult, ExperimentConfig
from repro.stats.collect import RunMetrics
from repro.telemetry.manifest import config_to_dict, git_describe

__all__ = ["CACHE_SCHEMA", "canonical_config_json", "config_cache_key",
           "result_to_entry", "result_from_entry", "CacheEntryInfo",
           "ResultCache"]

CACHE_SCHEMA = "repro.cell_cache/v1"


def canonical_config_json(config: ExperimentConfig) -> str:
    """Canonical JSON rendering of a config (sorted keys, no whitespace)."""
    return json.dumps(config_to_dict(config), sort_keys=True,
                      separators=(",", ":"))


def config_cache_key(config: ExperimentConfig) -> str:
    """Content address of one cell: SHA-256 over the canonical config."""
    return hashlib.sha256(canonical_config_json(config).encode()).hexdigest()


def _metrics_to_entry(metrics: RunMetrics) -> Dict[str, Any]:
    """Exact (private-fields-included) dict rendering of RunMetrics."""
    return dataclasses.asdict(metrics)


def _metrics_from_entry(d: Dict[str, Any]) -> RunMetrics:
    d = dict(d)
    d["queue"] = QueueStats(**d["queue"])
    return RunMetrics(**d)


def result_to_entry(result: CellResult) -> Dict[str, Any]:
    """One finished cell as the JSON-safe cache-entry document.

    This is the on-disk cache format *and* the farm's wire format for
    shipping results between processes — both sides round-trip through
    the same codec, so a farm-served result compares equal to a
    cache-served one.
    """
    return {
        "schema": CACHE_SCHEMA,
        "key": config_cache_key(result.config),
        "label": result.config.label(),
        "config": config_to_dict(result.config),
        "version": _package_version(),
        "git": git_describe(),
        "metrics": _metrics_to_entry(result.metrics),
        "snapshots": [dataclasses.asdict(s) for s in result.snapshots],
        "manifest": result.manifest,
    }


def result_from_entry(entry: Dict[str, Any],
                      config: ExperimentConfig) -> CellResult:
    """Rebuild the :class:`CellResult` for ``config`` from an entry doc."""
    return CellResult(
        config=config,
        metrics=_metrics_from_entry(entry["metrics"]),
        snapshots=[QueueSnapshot(**row) for row in entry["snapshots"]],
        manifest=entry.get("manifest"),
    )


@dataclasses.dataclass
class CacheEntryInfo:
    """One on-disk entry as seen by ``repro cache`` (no metrics parsed)."""

    key: str
    label: Optional[str]  #: None when the entry is unreadable/corrupt
    bytes: int
    age_s: float
    path: str

    @property
    def ok(self) -> bool:
        """False for corrupt entries (unreadable JSON / wrong schema)."""
        return self.label is not None


class ResultCache:
    """Directory of completed cells, one ``<sha256>.json`` file each.

    Parameters
    ----------
    root:
        Cache directory; created (with parents) if missing.

    Attributes
    ----------
    hits, misses, writes:
        Lookup/store counters for this instance (diagnostics and tests).
    """

    def __init__(self, root: str):
        if os.path.exists(root) and not os.path.isdir(root):
            raise ExperimentError(
                f"cache path {root!r} exists and is not a directory")
        os.makedirs(root, exist_ok=True)
        self.root = root
        self.hits = 0
        self.misses = 0
        self.writes = 0
        # Per-instance temp-name counter: with the pid it makes every
        # in-flight write target a distinct file.
        self._tmp_ids = _count()

    # -- addressing ---------------------------------------------------------

    def path_for(self, config: ExperimentConfig) -> str:
        """Entry file for ``config`` (whether or not it exists yet)."""
        return os.path.join(self.root, config_cache_key(config) + ".json")

    def keys(self) -> List[str]:
        """Cache keys present on disk (the resume scan)."""
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(self.root)
            if name.endswith(".json")
        )

    def __len__(self) -> int:
        return len(self.keys())

    # -- lookup / store -----------------------------------------------------

    def get(self, config: ExperimentConfig) -> Optional[CellResult]:
        """Return the cached :class:`CellResult` for ``config``, or None.

        A corrupt or mismatched entry (hash collision, truncated write,
        schema drift) counts as a miss rather than an error: the cell is
        simply re-run and the entry overwritten.
        """
        path = self.path_for(config)
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        if (entry.get("schema") != CACHE_SCHEMA
                or entry.get("config") != config_to_dict(config)):
            self.misses += 1
            return None
        self.hits += 1
        return result_from_entry(entry, config)

    def put(self, result: CellResult) -> str:
        """Store one finished cell; returns the entry path.

        Atomic against any interruption a filesystem can survive: the
        entry is written to a same-directory temp file (named uniquely
        per process *and* per call, so two writers of the same key never
        stomp each other's partial file), fsynced, then ``os.replace``\\ d
        over the final name. A worker killed — even ``SIGKILL``\\ ed —
        mid-write leaves at worst a stale ``*.tmp`` file (collected by
        :meth:`prune`), never a truncated entry that would poison resume.
        """
        return self.put_entry(result_to_entry(result))

    def put_entry(self, entry: Dict[str, Any]) -> str:
        """Store a pre-encoded entry document (the farm scheduler path,
        and :meth:`put`'s body).

        The document must carry its own ``key`` (as produced by
        :func:`result_to_entry`).
        """
        key = entry.get("key")
        if not key or entry.get("schema") != CACHE_SCHEMA:
            raise ExperimentError("not a cache entry document")
        path = os.path.join(self.root, key + ".json")
        tmp = f"{path}.{os.getpid()}.{next(self._tmp_ids)}.tmp"
        with open(tmp, "w") as fh:
            json.dump(entry, fh, indent=2)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self.writes += 1
        return path

    # -- inspection / hygiene (the `repro cache` verb) -----------------------

    def entries(self) -> List[CacheEntryInfo]:
        """Scan the directory: one :class:`CacheEntryInfo` per entry.

        Corrupt entries (truncated JSON, wrong schema) appear with
        ``label=None`` rather than raising, so hygiene tooling can see —
        and prune — exactly what resume would skip.
        """
        now = _time.time()
        out: List[CacheEntryInfo] = []
        for key in self.keys():
            path = os.path.join(self.root, key + ".json")
            try:
                st = os.stat(path)
            except OSError:
                continue  # raced with a concurrent prune
            label: Optional[str] = None
            try:
                with open(path) as fh:
                    doc = json.load(fh)
                if doc.get("schema") == CACHE_SCHEMA:
                    label = doc.get("label") or "?"
            except (OSError, json.JSONDecodeError):
                pass
            out.append(CacheEntryInfo(
                key=key, label=label, bytes=st.st_size,
                age_s=max(0.0, now - st.st_mtime), path=path,
            ))
        return out

    def stale_tmp_files(self) -> List[str]:
        """Leftover ``*.tmp`` files from writers that died mid-put."""
        return sorted(
            os.path.join(self.root, name)
            for name in os.listdir(self.root)
            if name.endswith(".tmp")
        )

    def stats(self) -> Dict[str, Any]:
        """Summary for ``repro cache --stats`` (JSON-safe)."""
        infos = self.entries()
        ages = [e.age_s for e in infos]
        return {
            "root": self.root,
            "entries": len(infos),
            "corrupt": sum(1 for e in infos if not e.ok),
            "bytes": sum(e.bytes for e in infos),
            "oldest_age_s": max(ages) if ages else 0.0,
            "newest_age_s": min(ages) if ages else 0.0,
            "stale_tmp_files": len(self.stale_tmp_files()),
        }

    def prune(
        self,
        max_age_s: Optional[float] = None,
        keep_keys: Optional[set] = None,
        corrupt: bool = True,
        dry_run: bool = False,
    ) -> List[str]:
        """Delete entries by age and/or grid membership; returns pruned keys.

        Parameters
        ----------
        max_age_s:
            Remove entries older than this (mtime-based). None = no age
            criterion.
        keep_keys:
            When given, remove entries whose key is *not* in this set
            (grid-membership pruning: pass the keys of a current grid and
            everything orphaned by config changes goes away).
        corrupt:
            Also remove unreadable/wrong-schema entries (resume would
            re-run them anyway). Stale ``*.tmp`` files are always
            collected unless ``dry_run``.
        dry_run:
            Report what would be pruned without deleting anything.
        """
        doomed: List[str] = []
        for info in self.entries():
            if not info.ok:
                if corrupt:
                    doomed.append(info.key)
                continue
            if max_age_s is not None and info.age_s > max_age_s:
                doomed.append(info.key)
            elif keep_keys is not None and info.key not in keep_keys:
                doomed.append(info.key)
        if not dry_run:
            for key in doomed:
                try:
                    os.remove(os.path.join(self.root, key + ".json"))
                except OSError:
                    pass  # already gone
            for tmp in self.stale_tmp_files():
                try:
                    os.remove(tmp)
                except OSError:
                    pass
        return doomed


def _package_version() -> str:
    from repro import __version__

    return __version__
