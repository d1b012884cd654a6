"""NUMA-aware parallel k-means with pruning and out-of-core execution.

The package splits into small layers:

* :mod:`numakmeans.matrix` -- the matrix file layout and its one reader
  (``RowStore``), synthetic data, partitioning
* :mod:`numakmeans.distance` -- the one Euclidean kernel everything shares
* :mod:`numakmeans.centroids` -- centroid state, initialization, merging
* :mod:`numakmeans.pruning` -- triangle-inequality bounds and candidate scans
* :mod:`numakmeans.scheduler` -- partitioned work-stealing task queue
* :mod:`numakmeans.engine` -- the threaded Lloyd's engine (in-memory)
* :mod:`numakmeans.outofcore` -- page-run row fetches, I/O accounting, row cache
* :mod:`numakmeans.report` -- machine-readable run reports
* :mod:`numakmeans.cli` -- the ``numakmeans`` command
"""

from .centroids import CentroidSet
from .distance import nearest_centroid
from .engine import (
    EngineConfig,
    IoDelta,
    IterationStats,
    KmeansResult,
    kmeans,
)
from .matrix import (
    RowStore,
    SyntheticSpec,
    gen_synthetic,
    load_matrix,
    save_matrix,
)
from .outofcore import kmeans_ondisk, should_refresh

__version__ = "0.1.0"

__all__ = [
    "CentroidSet",
    "EngineConfig",
    "IoDelta",
    "IterationStats",
    "KmeansResult",
    "RowStore",
    "SyntheticSpec",
    "gen_synthetic",
    "kmeans",
    "kmeans_ondisk",
    "load_matrix",
    "nearest_centroid",
    "save_matrix",
    "should_refresh",
]
