"""``repro.store`` — content-addressed on-disk results store.

The durability layer under sweep execution: every completed sweep cell
commits to a :class:`ResultsStore` keyed by ``(spec_digest,
cell_digest)`` — the experiment's result-determining content hash
(:meth:`repro.spec.ExperimentSpec.result_digest`) plus a digest of the
cell's parameter overrides and derived seed.  Because per-cell seeds are
deterministic, a committed cell is *the* answer for that key: reruns of
an unchanged cell are cache hits (no worker dispatched) and interrupted
sweeps resume for free.

Commits are atomic (write into a temp directory, then one ``rename``
into place), payload arrays are stored as ``.npy`` files, and every
entry carries checksums — a torn write or bit rot is detected on read,
quarantined, and transparently recomputed.
``verify``/``gc`` are the maintenance ops, exposed on the CLI as
``repro store {ls,verify,gc}``.
"""

from repro.store.results import (
    STORE_SCHEMA,
    ResultsStore,
    StoreError,
    cell_digest,
)

__all__ = [
    "ResultsStore",
    "StoreError",
    "cell_digest",
    "STORE_SCHEMA",
]
