"""Unit tests for the Table-I analog registry."""

from __future__ import annotations

import pytest

from repro.datasets import (
    available_datasets,
    dataset_spec,
    load_dataset,
)
from repro.errors import DatasetError
from repro.graph import num_connected_components
from repro.mixing import slem


class TestRegistry:
    def test_fifteen_analogs(self):
        assert len(available_datasets()) == 15

    def test_categories_partition_registry(self):
        categories = {dataset_spec(n).category for n in available_datasets()}
        assert categories == {"small", "medium", "large"}

    def test_spec_fields(self):
        spec = dataset_spec("wiki_vote")
        assert spec.paper_nodes == 7_066
        assert spec.mixing_regime == "fast"
        assert spec.analog_nodes > 0
        assert "Wikipedia" in spec.description

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError, match="unknown dataset"):
            dataset_spec("myspace")

    def test_every_regime_represented(self):
        regimes = {dataset_spec(n).mixing_regime for n in available_datasets()}
        assert regimes == {"fast", "moderate", "slow"}


class TestLoading:
    def test_load_connected(self):
        g = load_dataset("epinions", scale=0.1)
        assert num_connected_components(g) == 1

    def test_scale_controls_size(self):
        small = load_dataset("wiki_vote", scale=0.1)
        large = load_dataset("wiki_vote", scale=0.3)
        assert large.num_nodes > small.num_nodes

    def test_minimum_size_floor(self):
        g = load_dataset("rice_grad", scale=0.0001)
        assert g.num_nodes >= 30  # 50-node floor minus LCC trimming

    def test_invalid_scale(self):
        with pytest.raises(DatasetError):
            load_dataset("wiki_vote", scale=0.0)

    def test_caching_returns_same_object(self):
        a = load_dataset("youtube", scale=0.1)
        b = load_dataset("youtube", scale=0.1)
        assert a is b

    def test_seed_changes_graph(self):
        a = load_dataset("youtube", scale=0.1, seed=0)
        b = load_dataset("youtube", scale=0.1, seed=1)
        assert a != b


class TestRegimeFidelity:
    """The analogs must land on the right side of the mixing spectrum —
    every figure reproduction depends on this."""

    def test_fast_analogs_have_small_slem(self):
        for name in ["wiki_vote", "epinions"]:
            assert slem(load_dataset(name, scale=0.15)) < 0.95, name

    def test_slow_analogs_have_large_slem(self):
        for name in ["physics1", "dblp"]:
            assert slem(load_dataset(name, scale=0.15)) > 0.98, name

    def test_fast_slower_ordering_matches_regimes(self):
        fast = slem(load_dataset("wiki_vote", scale=0.15))
        slow = slem(load_dataset("physics1", scale=0.15))
        assert fast < slow
