"""Graph-based transform over fixed-size audio frames.

The sample graph is a chain: every sample is linked to its immediate
neighbours with weight ``w1`` and to second neighbours with weight
``w2``, which models the strong correlation of nearby audio samples.
Frames are projected onto the orthonormal eigenbasis of the graph
Laplacian, ordered from low to high graph frequency, so the leading
coefficients concentrate most of the frame energy.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, _integer, _real

# Eigenvalues closer than this are treated as one eigenspace when the
# basis columns are put into a reproducible order.
_EIGENVALUE_TIE = 1e-9


@dataclass(frozen=True)
class GraphConfig:
    """Chain-graph edge weights and frame length."""

    frame_size: int = 10
    w1: float = 1.0
    w2: float = 0.3

    def __post_init__(self):
        # make_plan holds frame_size**2 floats: 8 MB at 1024
        for name, check, rule, allows in (
                ("frame_size", _integer, "an integer in [3, 1024]",
                 lambda n: 3 <= n <= 1024),
                ("w1", _real, "finite and > 0", lambda w: w > 0),
                ("w2", _real, "finite and >= 0", lambda w: w >= 0)):
            object.__setattr__(self, name, check(name, getattr(self, name), rule, allows,
                                                 ConfigError))


def build_adjacency(config: GraphConfig) -> np.ndarray:
    """Adjacency matrix with w1 on the first off-diagonals, w2 on the second."""
    n = config.frame_size
    adj = np.zeros((n, n))
    first = np.arange(n - 1)
    adj[first, first + 1] = adj[first + 1, first] = config.w1
    second = np.arange(n - 2)
    adj[second, second + 2] = adj[second + 2, second] = config.w2
    return adj


def build_laplacian(config: GraphConfig) -> np.ndarray:
    """Combinatorial Laplacian D - A of the config's chain graph."""
    adj = build_adjacency(config)
    return np.diag(adj.sum(axis=1)) - adj


def _canonical(vals, vecs):
    # The sign and order of the basis columns decide every key's s_max: each
    # column's lead, its lowest row within _EIGENVALUE_TIE of the largest
    # magnitude (a chain's mirror rows tie up to rounding), is made positive,
    # and columns whose eigenvalues tie within _EIGENVALUE_TIE go in the order
    # of the lead's row. take keeps the row-major layout BLAS products see.
    mags = np.abs(vecs)
    lead = (mags >= mags.max(axis=0) - _EIGENVALUE_TIE).argmax(axis=0)
    signs = np.where(vecs[lead, np.arange(vecs.shape[1])] < 0, -1.0, 1.0)
    runs = np.concatenate(([0], (vals[1:] - vals[:-1] > _EIGENVALUE_TIE).cumsum()))
    return (vecs * signs).take(np.lexsort((lead, runs)), axis=1)


@functools.lru_cache(maxsize=4)
def make_plan(config: GraphConfig) -> np.ndarray:
    """The frame-graph Laplacian's orthonormal eigenbasis: eigenvectors as
    columns by ascending eigenvalue, each column's largest entry positive, so
    frames in rows have coefficients ``frames @ make_plan(config)``. Read-only
    and cached for the last 4 configs, so callers share one array per config."""
    lap = build_laplacian(config)
    try:
        vals, vecs = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    vecs = _canonical(vals, vecs)
    # "not <=" also refuses NaN, as from weights whose degree sum overflows
    if not np.max(np.abs((vecs * vals) @ vecs.T - lap)) <= 1e-9:
        raise NumericError("eigenvectors do not reconstruct the Laplacian")
    vecs.flags.writeable = False
    return vecs

