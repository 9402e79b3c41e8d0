"""Content-addressed, versioned store of fitted BST models.

A registry maps a :class:`ModelKey` -- ``(city, isp, config_hash)``,
where the hash is :func:`repro.obs.runs.config_fingerprint` over the
:class:`~repro.core.config.BSTConfig` that produced the fit -- to a
fitted :class:`~repro.core.bst.BSTResult` stored on disk:

- ``<root>/objects/<digest>.json`` -- the serialized fit
  (:func:`repro.core.serialize.bst_result_to_dict`), named by the
  SHA-256 of its canonical JSON bytes.  Registering the same fit twice
  writes one object (content addressing makes registration idempotent).
- ``<root>/index.json`` -- the key -> record mapping, where a
  :class:`ModelRecord` carries the digest plus staleness metadata
  (creation time, training-set size, schema version) and the training
  distribution summary the serving drift check compares against.

All writes are atomic (temp file + ``os.replace``), so a crashed
registration never leaves a half-written object or index.  Loads go
through a bounded in-process LRU cache; ``serve.registry.*`` counters
report hit/miss/load traffic.  Registries written by older builds keep
loading: a ``"lookup"`` key in an index entry and ``<digest>.arrays``
files next to the objects are ignored.

:func:`shard_for` is the one place the ``(city, isp) -> shard`` hash
lives: the router and the sharded workers must agree on it byte for
byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.bst import BSTResult
from repro.core.config import BSTConfig
from repro.core.serialize import (
    SCHEMA_VERSION,
    bst_result_from_dict,
    bst_result_to_dict,
)
from repro.market.plans import PlanCatalog
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger, kv
from repro.obs.runs import config_fingerprint
from repro.obs.trace import span

log = get_logger("serve.registry")

__all__ = ["ModelKey", "ModelRecord", "ModelRegistry", "shard_for"]

INDEX_SCHEMA = 1

DEFAULT_CACHE_SIZE = 8


def shard_for(city: str, isp: str, n_shards: int) -> int:
    """The worker shard owning ``(city, isp)`` models.

    Deterministic (crc32, no ``PYTHONHASHSEED`` dependence) and shared
    by the router and every worker -- both sides must route a model to
    the same process.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    return zlib.crc32(f"{city}|{isp}".encode("utf-8")) % int(n_shards)


@dataclass(frozen=True)
class ModelKey:
    """Identity of one registered model: city, ISP, and config hash."""

    city: str
    isp: str
    config_hash: str

    @property
    def slug(self) -> str:
        return f"{self.city}|{self.isp}|{self.config_hash}"

    @classmethod
    def from_slug(cls, slug: str) -> "ModelKey":
        parts = slug.split("|")
        if len(parts) != 3:
            raise ValueError(f"malformed model key slug {slug!r}")
        return cls(city=parts[0], isp=parts[1], config_hash=parts[2])


@dataclass
class ModelRecord:
    """Index entry for one registered model (JSON-able)."""

    key: ModelKey
    digest: str
    created_utc: str
    created_s: float  # epoch seconds, for staleness arithmetic
    train_size: int
    schema_version: int = SCHEMA_VERSION
    training_stats: dict[str, dict[str, float]] = field(default_factory=dict)

    def age_s(self, now: float | None = None) -> float:
        """Seconds since registration."""
        # lint: allow[DET002] age compares against the stored epoch stamp
        now = time.time() if now is None else now
        return max(now - self.created_s, 0.0)

    def is_stale(self, max_age_s: float, now: float | None = None) -> bool:
        """Whether the model is older than ``max_age_s``."""
        return self.age_s(now) > max_age_s

    def to_dict(self) -> dict[str, Any]:
        return {
            "city": self.key.city,
            "isp": self.key.isp,
            "config_hash": self.key.config_hash,
            "digest": self.digest,
            "created_utc": self.created_utc,
            "created_s": self.created_s,
            "train_size": self.train_size,
            "schema_version": self.schema_version,
            "training_stats": self.training_stats,
        }

    @classmethod
    def from_dict(cls, row: dict[str, Any]) -> "ModelRecord":
        try:
            return cls(
                key=ModelKey(
                    city=row["city"],
                    isp=row["isp"],
                    config_hash=row["config_hash"],
                ),
                digest=row["digest"],
                created_utc=row.get("created_utc", ""),
                created_s=float(row.get("created_s", 0.0)),
                train_size=int(row.get("train_size", 0)),
                schema_version=int(row.get("schema_version", 1)),
                training_stats=dict(row.get("training_stats", {})),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"truncated model record: missing field ({exc})"
            ) from exc


def _direction_stats(values: np.ndarray) -> dict[str, float]:
    """Training-distribution summary one direction's drift check uses."""
    values = np.asarray(values, dtype=float)
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return {}
    return {
        "n": int(finite.size),
        "mean": float(finite.mean()),
        "std": float(finite.std()),
        "p50": float(np.quantile(finite, 0.50)),
        "p95": float(np.quantile(finite, 0.95)),
    }


def _atomic_write(path: Path, data: bytes) -> None:
    """Write-then-rename so readers never observe a partial file."""
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class ModelRegistry:
    """Directory-backed model store with an in-process LRU cache.

    Thread-safe: index read-modify-write and cache mutation run under
    one lock.  Multiple registries may point at the same root (e.g. a
    server and a batch CLI); content addressing keeps concurrent
    registration of identical fits idempotent.
    """

    def __init__(
        self,
        root: str | Path,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self.root = Path(root)
        self.cache_size = int(cache_size)
        self._lock = threading.RLock()
        self._cache: OrderedDict[str, BSTResult] = OrderedDict()

    # ------------------------------------------------------------------
    @property
    def index_path(self) -> Path:
        return self.root / "index.json"

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    def object_path(self, digest: str) -> Path:
        return self.objects_dir / f"{digest}.json"

    def key_for(
        self,
        city: str,
        catalog: PlanCatalog,
        config: BSTConfig | None = None,
    ) -> ModelKey:
        """The registry key for a (city, catalog, config) combination.

        ``jobs`` never changes a fit, so it is fingerprinted at its default.
        """
        config = replace(config or BSTConfig(), jobs=BSTConfig.jobs)
        return ModelKey(
            city=str(city),
            isp=catalog.isp_name,
            config_hash=config_fingerprint(config),
        )

    # ------------------------------------------------------------------
    def register(
        self,
        key: ModelKey,
        result: BSTResult,
        downloads=None,
        uploads=None,
    ) -> ModelRecord:
        """Store a fitted model under ``key``; returns its record.

        ``downloads``/``uploads`` (the training sample, optional) feed
        the record's ``training_stats`` -- the baseline the serving
        drift check compares live traffic against.
        """
        blob = json.dumps(
            bst_result_to_dict(result), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        digest = hashlib.sha256(blob).hexdigest()
        training_stats: dict[str, dict[str, float]] = {}
        if downloads is not None:
            training_stats["download_mbps"] = _direction_stats(downloads)
        if uploads is not None:
            training_stats["upload_mbps"] = _direction_stats(uploads)
        record = ModelRecord(
            key=key,
            digest=digest,
            # lint: allow[DET002] registration timestamp is provenance
            created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            created_s=time.time(),  # lint: allow[DET002] provenance
            train_size=len(result),
            schema_version=SCHEMA_VERSION,
            training_stats=training_stats,
        )
        with span("serve.registry.register", key=key.slug) as sp:
            with self._lock:
                self.objects_dir.mkdir(parents=True, exist_ok=True)
                obj_path = self.object_path(digest)
                if not obj_path.exists():
                    _atomic_write(obj_path, blob)
                index = self._read_index()
                index[key.slug] = record.to_dict()
                self._write_index(index)
                self._cache_put(digest, result)
            sp.set(digest=digest[:16], train_size=record.train_size)
        obs_metrics.counter("serve.registry.registered").inc()
        log.info(
            "registered model",
            extra=kv(
                key=key.slug,
                digest=digest[:16],
                train_size=record.train_size,
            ),
        )
        return record

    def lookup(self, key: ModelKey) -> ModelRecord | None:
        """The record registered under ``key``, or None."""
        with self._lock:
            row = self._read_index().get(key.slug)
        return ModelRecord.from_dict(row) if row is not None else None

    def load(self, key: ModelKey) -> tuple[BSTResult, ModelRecord]:
        """Load the model registered under ``key`` (LRU-cached).

        Raises ``KeyError`` when the key is unregistered and
        ``ValueError`` when the stored object is corrupt.
        """
        record = self.lookup(key)
        if record is None:
            obs_metrics.counter("serve.registry.misses").inc()
            raise KeyError(f"no model registered for {key.slug!r}")
        with self._lock:
            cached = self._cache.get(record.digest)
            if cached is not None:
                self._cache.move_to_end(record.digest)
                obs_metrics.counter("serve.registry.hits").inc()
                return cached, record
        with span("serve.registry.load", key=key.slug):
            obj_path = self.object_path(record.digest)
            try:
                text = obj_path.read_text(encoding="utf-8")
            except FileNotFoundError:
                raise ValueError(
                    f"registry index references missing object "
                    f"{record.digest[:16]} for {key.slug!r}"
                ) from None
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"corrupt model object {obj_path}: {exc}"
                ) from exc
            result = bst_result_from_dict(data)
        with self._lock:
            self._cache_put(record.digest, result)
        obs_metrics.counter("serve.registry.loads").inc()
        return result, record

    def records(self) -> list[ModelRecord]:
        """Every registered model's record, sorted by key slug."""
        with self._lock:
            index = self._read_index()
        return [
            ModelRecord.from_dict(index[slug]) for slug in sorted(index)
        ]

    def evict_cache(self) -> None:
        """Drop every cached model (records and objects stay on disk)."""
        with self._lock:
            self._cache.clear()

    @property
    def cached_digests(self) -> list[str]:
        """Digests currently in the LRU cache, oldest first."""
        with self._lock:
            return list(self._cache)

    # ------------------------------------------------------------------
    def _cache_put(self, digest: str, result: BSTResult) -> None:
        self._cache[digest] = result
        self._cache.move_to_end(digest)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def _read_index(self) -> dict[str, Any]:
        try:
            text = self.index_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return {}
        if not text.strip():
            return {}
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"corrupt registry index {self.index_path}: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ValueError(
                f"corrupt registry index {self.index_path}: expected a "
                "JSON object"
            )
        schema = data.get("index_schema", INDEX_SCHEMA)
        if schema != INDEX_SCHEMA:
            raise ValueError(
                f"unknown registry index schema {schema!r} in "
                f"{self.index_path}; this build reads {INDEX_SCHEMA}"
            )
        entries = data.get("entries", {})
        if not isinstance(entries, dict):
            raise ValueError(
                f"corrupt registry index {self.index_path}: 'entries' "
                "must be an object"
            )
        return entries

    def _write_index(self, entries: dict[str, Any]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "index_schema": INDEX_SCHEMA,
            "entries": entries,
        }
        _atomic_write(
            self.index_path,
            json.dumps(payload, sort_keys=True, indent=2).encode("utf-8"),
        )
