"""Workload generation: datasets, traces, and sampling distributions.

The paper evaluates on three real-world CTR datasets (Avazu, Criteo-Kaggle,
Criteo-TB; Table 2) plus synthetic power-law workloads for sensitivity
studies (§6.1).  Since the raw datasets cannot ship with this repository,
:mod:`repro.workloads.datasets` builds scaled-down *replicas* that preserve
the statistics the cache behaviour depends on: per-table corpus sizes with
the published table counts, heterogeneous per-table skew, and temporal
hotspot drift.
"""

from .zipf import ZipfSampler, zipf_head_ids
from .spec import DatasetSpec, FieldSpec
from .synthetic import synthetic_dataset, uniform_tables_spec
from .datasets import avazu_replica, criteo_kaggle_replica, criteo_tb_replica, DATASET_REPLICAS
from .trace import Trace, TraceBatch

__all__ = [
    "ZipfSampler",
    "zipf_head_ids",
    "DatasetSpec",
    "FieldSpec",
    "synthetic_dataset",
    "uniform_tables_spec",
    "avazu_replica",
    "criteo_kaggle_replica",
    "criteo_tb_replica",
    "DATASET_REPLICAS",
    "Trace",
    "TraceBatch",
]
