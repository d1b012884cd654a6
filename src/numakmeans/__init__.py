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

from .centroids import (
    Accumulator,
    CentroidSet,
    finalize_centroids,
    init_centroids,
    merge_accumulators,
)
from .distance import block_distances, nearest_centroid
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
    partition_rows,
    save_matrix,
)
from .outofcore import (
    CacheSchedule,
    RowCache,
    fetch_rows,
    kmeans_ondisk,
    should_refresh,
)
from .pruning import (
    CentroidGeometry,
    PruneState,
    centroid_geometry,
    inflate_bounds,
)
from .scheduler import PartitionedTaskQueue, Task, Topology, build_topology

__version__ = "0.1.0"

__all__ = [
    "Accumulator",
    "CacheSchedule",
    "CentroidGeometry",
    "CentroidSet",
    "EngineConfig",
    "IoDelta",
    "IterationStats",
    "KmeansResult",
    "PartitionedTaskQueue",
    "PruneState",
    "RowCache",
    "RowStore",
    "SyntheticSpec",
    "Task",
    "Topology",
    "block_distances",
    "build_topology",
    "centroid_geometry",
    "fetch_rows",
    "finalize_centroids",
    "gen_synthetic",
    "inflate_bounds",
    "init_centroids",
    "kmeans",
    "kmeans_ondisk",
    "load_matrix",
    "merge_accumulators",
    "nearest_centroid",
    "partition_rows",
    "save_matrix",
    "should_refresh",
]
