"""Independent reference implementations and probe signals used only by
the tests.

These deliberately avoid the library's code paths: the 2x2 SVD comes
from the quadratic formula applied to the eigenproblem of M^T M, and
frame selection scans every frame instead of an energy-ranked prefix.
"""

import math

import numpy as np
from scipy import signal as sps

from gbtmark import AudioSignal, CapacityError


def tone(freq_hz, duration_s=1.0, sample_rate=8000):
    """Pure sine tone of amplitude 0.5, handy for measuring filter responses."""
    t = np.arange(int(round(duration_s * sample_rate))) / sample_rate
    return AudioSignal(0.5 * np.sin(2 * np.pi * freq_hz * t), sample_rate)


def ar_noise(count, seed=0, rms=0.1, sample_rate=8000):
    """First-order autoregressive noise (pole 0.95) at the requested RMS."""
    rng = np.random.default_rng(seed)
    x = sps.lfilter([1.0], [1.0, -0.95], rng.normal(size=count))
    x *= rms / np.sqrt(np.mean(x ** 2))
    return AudioSignal(np.clip(x, -0.99, 0.99), sample_rate)


def svd2_closed_form(mat):
    """Singular values and leading pair (u1, v1) of a 2x2 matrix."""
    mat = np.asarray(mat, dtype=np.float64)
    gram = mat.T @ mat
    trace = gram[0, 0] + gram[1, 1]
    det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
    disc = math.sqrt(max(trace * trace / 4.0 - det, 0.0))
    lam1 = trace / 2.0 + disc
    lam2 = trace / 2.0 - disc
    s1 = math.sqrt(max(lam1, 0.0))
    s2 = math.sqrt(max(lam2, 0.0))
    if abs(gram[0, 1]) > 1e-14:
        v1 = np.array([gram[0, 1], lam1 - gram[0, 0]])
    elif gram[0, 0] >= gram[1, 1]:
        v1 = np.array([1.0, 0.0])
    else:
        v1 = np.array([0.0, 1.0])
    v1 = v1 / np.linalg.norm(v1)
    u1 = mat @ v1 / s1
    return s1, s2, u1, v1


def shift_top_singular_value(mat, delta):
    """Return mat with its largest singular value moved by delta.

    Rank-1 update M + delta * u1 v1^T, which is exactly what rebuilding
    U diag(s1 + delta, s2) V^T produces.
    """
    s1, _, u1, v1 = svd2_closed_form(mat)
    return np.asarray(mat, dtype=np.float64) + delta * np.outer(u1, v1)


def select_frames_full_scan(samples, basis, k, ws, bit_count):
    """Frame selection that computes the singular value of every frame.

    Splits the samples into frames of ``basis.shape[0]`` (dropping the
    tail), takes the largest singular value of each frame's leading k
    coefficients (the squarest matrix, row-major), keeps the frames
    above ws, ranks them by (-energy, index) and returns the first
    bit_count sorted by index. Raises CapacityError when fewer than
    bit_count frames are eligible.
    """
    size = basis.shape[0]
    count = len(samples) // size
    frames = np.asarray(samples, dtype=np.float64)[:count * size].reshape(count, size)
    energies = np.einsum("ij,ij->i", frames, frames)
    rows = max(r for r in range(1, math.isqrt(k) + 1) if k % r == 0)
    mats = (frames @ basis)[:, :k].reshape(count, rows, k // rows)
    smax = np.linalg.svd(mats, compute_uv=False)[:, 0]
    eligible = np.flatnonzero(smax > ws)
    if eligible.size < bit_count:
        raise CapacityError(eligible=int(eligible.size), required=int(bit_count))
    ranked = eligible[np.lexsort((eligible, -energies[eligible]))]
    return np.sort(ranked[:bit_count])
