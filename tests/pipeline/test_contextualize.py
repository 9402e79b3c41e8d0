"""Tests for BST contextualisation of measurement tables."""

import numpy as np
import pytest

from repro.core import upload_group_accuracy
from repro.frame import ColumnTable
from repro.pipeline import contextualize
from repro.pipeline.contextualize import CONTEXT_COLUMNS


class TestAugmentation:
    def test_context_columns_added(self, ookla_ctx_a):
        for column in CONTEXT_COLUMNS:
            assert column in ookla_ctx_a.table

    def test_row_count_preserved(self, ookla_a, ookla_ctx_a):
        assert len(ookla_ctx_a) == len(ookla_a)

    def test_tiers_in_catalog(self, ookla_ctx_a, catalog_a):
        tiers = set(
            np.asarray(ookla_ctx_a.table["bst_tier"], dtype=int).tolist()
        )
        assert tiers <= set(catalog_a.tiers)

    def test_plan_speeds_consistent_with_tier(self, ookla_ctx_a, catalog_a):
        table = ookla_ctx_a.table
        for tier in set(table["bst_tier"].tolist()):
            rows = ookla_ctx_a.rows_for_tier(int(tier))
            plan = catalog_a.plan_for_tier(int(tier))
            assert set(rows["plan_download_mbps"].tolist()) == {
                plan.download_mbps
            }

    def test_normalized_download_definition(self, ookla_ctx_a):
        table = ookla_ctx_a.table
        expected = np.asarray(table["download_mbps"]) / np.asarray(
            table["plan_download_mbps"]
        )
        assert np.allclose(
            np.asarray(table["normalized_download"]), expected
        )

    def test_group_labels_match_catalog(self, ookla_ctx_a):
        assert ookla_ctx_a.group_labels == [
            "Tier 1-3", "Tier 4", "Tier 5", "Tier 6",
        ]

    def test_rows_for_group(self, ookla_ctx_a):
        total = sum(
            len(ookla_ctx_a.rows_for_group(g))
            for g in ookla_ctx_a.group_labels
        )
        assert total == len(ookla_ctx_a)

    def test_assignment_accuracy_against_simulation_truth(
        self, ookla_ctx_a
    ):
        accuracy = upload_group_accuracy(
            ookla_ctx_a.bst_result, ookla_ctx_a.table["true_tier"]
        )
        assert accuracy > 0.85  # crowdsourced WiFi data is noisy

    def test_mlab_contextualization(self, mlab_ctx_a):
        assert "bst_tier" in mlab_ctx_a.table
        assert len(mlab_ctx_a) > 0


class TestEdgeCases:
    def test_nan_rows_dropped(self, catalog_a):
        table = ColumnTable(
            {
                "download_mbps": [110.0, np.nan] + [110.0] * 50,
                "upload_mbps": [5.5] * 51 + [np.nan],
            }
        )
        ctx = contextualize(table, catalog_a)
        assert len(ctx) == 50

    def test_all_nan_rejected(self, catalog_a):
        table = ColumnTable(
            {
                "download_mbps": [np.nan, np.nan],
                "upload_mbps": [1.0, 2.0],
            }
        )
        with pytest.raises(ValueError, match="no finite"):
            contextualize(table, catalog_a)

    def test_custom_column_names(self, catalog_a):
        rng = np.random.default_rng(0)
        table = ColumnTable(
            {
                "down": rng.normal(110, 8, 100),
                "up": rng.normal(5.5, 0.3, 100),
            }
        )
        ctx = contextualize(
            table, catalog_a, download_column="down", upload_column="up"
        )
        assert set(ctx.table["bst_tier"].tolist()) <= {1, 2, 3}


class TestReusePrefittedModel:
    """contextualize() with bst_result= / registry= skips the fit."""

    def test_prefitted_result_parity(self, ookla_a, catalog_a, ookla_ctx_a):
        reused = contextualize(
            ookla_a, catalog_a, bst_result=ookla_ctx_a.bst_result
        )
        for column in CONTEXT_COLUMNS:
            fresh = np.asarray(ookla_ctx_a.table[column])
            replay = np.asarray(reused.table[column])
            if fresh.dtype.kind == "f":
                assert np.array_equal(fresh, replay, equal_nan=True), column
            else:
                assert np.array_equal(fresh, replay), column

    def test_prefitted_result_on_fresh_data(
        self, ookla_a, catalog_a, ookla_ctx_a
    ):
        fresh = ookla_a.head(500)
        reused = contextualize(
            fresh, catalog_a, bst_result=ookla_ctx_a.bst_result
        )
        assert len(reused) == 500
        head = np.asarray(ookla_ctx_a.table["bst_tier"])[:500]
        assert np.array_equal(
            np.asarray(reused.table["bst_tier"], dtype=int), head
        )

    def test_catalog_mismatch_rejected(self, ookla_a, ookla_ctx_a):
        from repro.market.isps import city_catalog

        with pytest.raises(ValueError, match="different plan catalog"):
            contextualize(
                ookla_a,
                city_catalog("B"),
                bst_result=ookla_ctx_a.bst_result,
            )

    def test_result_and_registry_mutually_exclusive(
        self, tmp_path, ookla_a, catalog_a, ookla_ctx_a
    ):
        from repro.serve.registry import ModelRegistry

        with pytest.raises(ValueError, match="not both"):
            contextualize(
                ookla_a,
                catalog_a,
                bst_result=ookla_ctx_a.bst_result,
                registry=ModelRegistry(tmp_path),
            )

    def test_registry_miss_fits_and_registers(
        self, tmp_path, ookla_a, catalog_a
    ):
        from repro.serve.registry import ModelRegistry

        registry = ModelRegistry(tmp_path / "models")
        ctx = contextualize(
            ookla_a, catalog_a, registry=registry, city="A"
        )
        key = registry.key_for("A", catalog_a)
        record = registry.lookup(key)
        assert record is not None
        assert record.train_size == len(ctx)
        assert "download_mbps" in record.training_stats

    def test_registry_hit_ignores_jobs(
        self, tmp_path, ookla_a, catalog_a, ookla_ctx_a
    ):
        """``jobs`` only parallelises the fit, so a model registered under
        the default config serves a ``BSTConfig(jobs=2)`` request."""
        from repro.core.config import BSTConfig
        from repro.serve.registry import ModelRegistry

        registry = ModelRegistry(tmp_path / "models")
        registry.register(
            registry.key_for("A", catalog_a), ookla_ctx_a.bst_result
        )
        ctx = contextualize(
            ookla_a,
            catalog_a,
            config=BSTConfig(jobs=2),
            registry=registry,
            city="A",
        )
        assert len(registry.records()) == 1  # a hit: nothing refit
        assert np.array_equal(
            np.asarray(ctx.table["bst_tier"]),
            np.asarray(ookla_ctx_a.table["bst_tier"]),
        )

    def test_registry_hit_is_byte_identical(
        self, tmp_path, ookla_a, catalog_a
    ):
        from repro.frame import write_csv
        from repro.serve.registry import ModelRegistry

        registry = ModelRegistry(tmp_path / "models")
        cold = contextualize(ookla_a, catalog_a, registry=registry, city="A")
        warm = contextualize(ookla_a, catalog_a, registry=registry, city="A")
        cold_csv = tmp_path / "cold.csv"
        warm_csv = tmp_path / "warm.csv"
        write_csv(cold.table, cold_csv)
        write_csv(warm.table, warm_csv)
        assert cold_csv.read_bytes() == warm_csv.read_bytes()
