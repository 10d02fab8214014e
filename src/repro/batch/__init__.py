"""Parallel batch mapping: process pools, per-job solver specs, result cache.

The sweep-scale layer above :mod:`repro.mapping`: a :class:`BatchMapper`
runs many independent mapping pipelines at once across worker processes,
optionally solving each job under its own solver spec (:mod:`~repro.
batch.portfolio`) and skipping instances already solved in earlier sweeps
via a deterministic problem fingerprint (:mod:`~repro.batch.cache`).

>>> from repro.batch import BatchJob, BatchMapper
>>> jobs = [BatchJob(f"net-{i}", net, arch, stages=("area", "snu"))
...         for i, (net, arch) in enumerate(instances)]   # doctest: +SKIP
>>> result = BatchMapper(jobs=4, portfolio=True).map_all(jobs)  # doctest: +SKIP
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "CacheStats": ".cache",
    "ResultCache": ".cache",
    "JOB_ERROR": ".engine",
    "JOB_OK": ".engine",
    "BatchJob": ".engine",
    "BatchMapper": ".engine",
    "BatchResult": ".engine",
    "JobRecord": ".engine",
    "parallel_map": ".engine",
    "PortfolioSolver": ".portfolio",
    "portfolio_solver_factory": ".portfolio",
    "CancelToken": ".queue",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "BatchJob",
    "BatchMapper",
    "BatchResult",
    "CacheStats",
    "CancelToken",
    "JOB_ERROR",
    "JOB_OK",
    "JobRecord",
    "PortfolioSolver",
    "ResultCache",
    "parallel_map",
    "portfolio_solver_factory",
]
