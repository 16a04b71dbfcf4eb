"""Registry of synthetic analogs for the paper's Table-I social graphs."""

from repro.datasets.registry import (
    DatasetSpec,
    available_datasets,
    dataset_fingerprint,
    dataset_spec,
    load_dataset,
)
from repro.datasets.streaming import (
    STREAM_REGIMES,
    StreamSpec,
    build_sharded_analog,
    stream_analog_edges,
)

__all__ = [
    "DatasetSpec",
    "available_datasets",
    "dataset_spec",
    "dataset_fingerprint",
    "load_dataset",
    "StreamSpec",
    "STREAM_REGIMES",
    "stream_analog_edges",
    "build_sharded_analog",
]
