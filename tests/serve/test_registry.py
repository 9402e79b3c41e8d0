"""Tests for the content-addressed model registry."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.bst import BSTModel
from repro.core.config import BSTConfig
from repro.obs.runs import config_fingerprint
from repro.serve.registry import ModelKey, ModelRecord, ModelRegistry


@pytest.fixture
def registry(tmp_path):
    return ModelRegistry(tmp_path / "models", cache_size=2)


def test_round_trip(registry, fitted_a, catalog_a):
    key = registry.key_for("A", catalog_a)
    record = registry.register(key, fitted_a)
    loaded, loaded_record = registry.load(key)
    assert np.array_equal(loaded.tiers, fitted_a.tiers)
    assert loaded_record.digest == record.digest
    assert loaded_record.train_size == len(fitted_a)


def test_key_includes_config_fingerprint(registry, catalog_a):
    default = registry.key_for("A", catalog_a)
    binned = registry.key_for("A", catalog_a, BSTConfig(kde_method="binned"))
    assert default.config_hash != binned.config_hash
    assert default.slug != binned.slug
    assert ModelKey.from_slug(default.slug) == default


def test_key_ignores_jobs(registry, catalog_a):
    # jobs parallelises the fit without changing it: same key, and the
    # default config's hash is the one registries already hold.
    default = registry.key_for("A", catalog_a)
    assert registry.key_for("A", catalog_a, BSTConfig(jobs=2)) == default
    assert default.config_hash == config_fingerprint(BSTConfig())
    binned = registry.key_for("A", catalog_a, BSTConfig(kde_method="binned"))
    assert (
        registry.key_for(
            "A", catalog_a, BSTConfig(kde_method="binned", jobs=4)
        )
        == binned
    )


def test_registration_is_content_addressed(registry, fitted_a, catalog_a):
    key_a = registry.key_for("A", catalog_a)
    key_b = registry.key_for("B", catalog_a)  # same fit, different city
    rec_a = registry.register(key_a, fitted_a)
    rec_b = registry.register(key_b, fitted_a)
    assert rec_a.digest == rec_b.digest
    objects = list(registry.objects_dir.glob("*.json"))
    assert len(objects) == 1  # one object, two index entries
    assert len(registry.records()) == 2


def test_reregistration_updates_record(registry, fitted_a, catalog_a):
    key = registry.key_for("A", catalog_a)
    first = registry.register(key, fitted_a)
    second = registry.register(key, fitted_a)
    assert second.digest == first.digest
    assert len(registry.records()) == 1
    assert second.created_s >= first.created_s


def test_lookup_miss_returns_none_load_raises(registry, catalog_a):
    key = registry.key_for("Z", catalog_a)
    assert registry.lookup(key) is None
    with pytest.raises(KeyError, match="no model registered"):
        registry.load(key)


def test_training_stats_recorded(registry, fitted_a, catalog_a, ookla_a):
    downs = np.asarray(ookla_a["download_mbps"], dtype=float)
    ups = np.asarray(ookla_a["upload_mbps"], dtype=float)
    key = registry.key_for("A", catalog_a)
    record = registry.register(key, fitted_a, downloads=downs, uploads=ups)
    stats = record.training_stats["download_mbps"]
    finite = downs[np.isfinite(downs)]
    assert stats["n"] == finite.size
    assert stats["mean"] == pytest.approx(finite.mean())
    assert "p95" in stats
    assert "upload_mbps" in record.training_stats


def test_staleness_metadata(registry, fitted_a, catalog_a):
    key = registry.key_for("A", catalog_a)
    record = registry.register(key, fitted_a)
    assert record.age_s() < 60.0
    assert not record.is_stale(max_age_s=3600.0)
    assert record.is_stale(max_age_s=0.0, now=record.created_s + 1.0)
    assert record.created_utc.endswith("Z")


def test_lru_cache_bounded_and_hit(registry, fitted_a, catalog_a):
    keys = [registry.key_for(city, catalog_a) for city in ("A", "B", "C")]
    # Same result object -> same digest -> one cache slot for all three.
    for key in keys:
        registry.register(key, fitted_a)
    assert len(registry.cached_digests) == 1
    registry.evict_cache()
    assert registry.cached_digests == []
    loaded, _ = registry.load(keys[0])
    again, _ = registry.load(keys[0])
    assert again is loaded  # second load served from cache


def test_index_survives_new_registry_instance(
    tmp_path, fitted_a, catalog_a
):
    root = tmp_path / "models"
    first = ModelRegistry(root)
    key = first.key_for("A", catalog_a)
    first.register(key, fitted_a)
    second = ModelRegistry(root)
    loaded, record = second.load(key)
    assert np.array_equal(loaded.tiers, fitted_a.tiers)
    assert record.key == key


def test_corrupt_index_raises_value_error(registry, fitted_a, catalog_a):
    key = registry.key_for("A", catalog_a)
    registry.register(key, fitted_a)
    registry.index_path.write_text("{not json")
    with pytest.raises(ValueError, match="corrupt registry index"):
        registry.lookup(key)


def test_unknown_index_schema_raises(registry):
    registry.root.mkdir(parents=True, exist_ok=True)
    registry.index_path.write_text(
        json.dumps({"index_schema": 99, "entries": {}})
    )
    with pytest.raises(ValueError, match="index schema"):
        registry.records()


def test_missing_object_raises_value_error(registry, fitted_a, catalog_a):
    key = registry.key_for("A", catalog_a)
    record = registry.register(key, fitted_a)
    registry.evict_cache()
    registry.object_path(record.digest).unlink()
    with pytest.raises(ValueError, match="missing object"):
        registry.load(key)


def test_corrupt_object_raises_value_error(registry, fitted_a, catalog_a):
    key = registry.key_for("A", catalog_a)
    record = registry.register(key, fitted_a)
    registry.evict_cache()
    registry.object_path(record.digest).write_text("{truncated")
    with pytest.raises(ValueError, match="corrupt model object"):
        registry.load(key)


def test_record_round_trips_through_dict(registry, fitted_a, catalog_a):
    key = registry.key_for("A", catalog_a)
    record = registry.register(key, fitted_a)
    assert ModelRecord.from_dict(record.to_dict()) == record
    with pytest.raises(ValueError, match="truncated model record"):
        ModelRecord.from_dict({"city": "A"})


def test_no_tmp_files_left_behind(registry, fitted_a, catalog_a):
    registry.register(registry.key_for("A", catalog_a), fitted_a)
    leftovers = [
        p for p in registry.root.rglob("*") if ".tmp." in p.name
    ]
    assert leftovers == []


# ---------------------------------------------------------------------------
# Registries written by older builds + shard hashing
# ---------------------------------------------------------------------------
def _write_old_layout(registry, key, result, downloads, uploads):
    """Register ``result``, then rewrite it the way older builds did.

    Older builds stored a threshold table under ``"lookup"`` in every
    index entry and wrote a binary ``<digest>.arrays`` file next to each
    object.  Both are planted *poisoned* here -- a table that sends
    every tuple to upload group 0 / the first tier, and a file of
    garbage bytes -- so any code path that still read them would
    change the answers or fail.
    """
    record = registry.register(key, result, downloads, uploads)
    index = json.loads(registry.index_path.read_text())
    index["entries"][key.slug]["lookup"] = {
        "lookup_schema": 1,
        "upload_cuts": [],
        "upload_labels": [0],
        "download_tables": {"0": {"cuts": [], "labels": [0]}},
        "verified_n": int(downloads.size),
    }
    registry.index_path.write_text(json.dumps(index, indent=2))
    arrays = registry.objects_dir / f"{record.digest}.arrays"
    arrays.write_bytes(b"\xff" * 256)
    registry.evict_cache()
    return record


def test_old_registry_layout_serves_exact_answers(
    tmp_path, fitted_a, catalog_a, ookla_a, fresh_sample
):
    from repro.serve.engine import TierAssigner
    from repro.serve.server import AssignmentService, ServeConfig

    root = tmp_path / "models"
    downs = np.asarray(ookla_a["download_mbps"], dtype=float)
    ups = np.asarray(ookla_a["upload_mbps"], dtype=float)
    key = ModelRegistry(root).key_for("A", catalog_a)
    old = _write_old_layout(ModelRegistry(root), key, fitted_a, downs, ups)

    # A fresh process's view: records and objects load, lookup ignored.
    registry = ModelRegistry(root)
    record = registry.lookup(key)
    assert record.digest == old.digest
    assert "lookup" not in record.to_dict()
    loaded, _ = registry.load(key)
    assert np.array_equal(loaded.tiers, fitted_a.tiers)

    fresh_downs, fresh_ups = fresh_sample
    exact = TierAssigner(fitted_a).assign(fresh_downs, fresh_ups)
    service = AssignmentService(registry, ServeConfig(alert_interval_s=0))
    try:
        assert service.resolve(city="A").key == key
        out = service.assign_payload(
            {"downloads": fresh_downs.tolist(), "uploads": fresh_ups.tolist()}
        )
        streamed = service.assign_payload(
            {"downloads": [110.0], "uploads": [5.5], "stream": True}
        )
    finally:
        service.close()
    assert json.dumps(out["tiers"]) == json.dumps(exact.tiers.tolist())
    assert json.dumps(out["group_indices"]) == json.dumps(
        exact.group_indices.tolist()
    )
    assert (streamed["tiers"][0], streamed["group_indices"][0]) == (
        TierAssigner(fitted_a).assign_one(110.0, 5.5)
    )


def test_register_into_old_registry_writes_current_layout(
    tmp_path, fitted_a, catalog_a, ookla_a
):
    root = tmp_path / "models"
    downs = np.asarray(ookla_a["download_mbps"], dtype=float)
    ups = np.asarray(ookla_a["upload_mbps"], dtype=float)
    registry = ModelRegistry(root)
    old_key = registry.key_for("A", catalog_a)
    _write_old_layout(registry, old_key, fitted_a, downs, ups)
    before = {p.name for p in registry.objects_dir.iterdir()}

    refit = BSTModel(catalog_a).fit(downs[:1500], ups[:1500])
    new_key = registry.key_for("A", catalog_a, BSTConfig(kde_method="binned"))
    record = registry.register(new_key, refit, downs[:1500], ups[:1500])

    added = {p.name for p in registry.objects_dir.iterdir()} - before
    assert added == {f"{record.digest}.json"}
    entries = json.loads(registry.index_path.read_text())["entries"]
    assert "lookup" not in entries[new_key.slug]
    # The older entry still loads next to the new one.
    registry.evict_cache()
    loaded, _ = registry.load(old_key)
    assert np.array_equal(loaded.tiers, fitted_a.tiers)


def test_shard_for_is_deterministic_and_total():
    from repro.serve.registry import shard_for

    assert shard_for("A", "MetroNet", 4) == shard_for("A", "MetroNet", 4)
    for n in (1, 2, 3, 8):
        assert 0 <= shard_for("A", "MetroNet", n) < n
    assert shard_for("A", "MetroNet", 1) == 0
    with pytest.raises(ValueError, match="n_shards"):
        shard_for("A", "MetroNet", 0)
