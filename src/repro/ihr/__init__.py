"""Internet Health Report substitute: prefix-origin and transit datasets."""

from repro.ihr.pipeline import build_ihr_dataset
from repro.ihr.records import IHRDataset, PrefixOriginRecord

__all__ = [
    "IHRDataset",
    "PrefixOriginRecord",
    "build_ihr_dataset",
]
