"""A fixed reference kernel that measures how fast the machine runs now.

On a shared host the same code can run 30 % slower for minutes at a
time, and process CPU time slows with it. The benchmark therefore runs
this kernel before the first timed operation and after each one, and
reports each operation's time as a multiple of the mean of the two
kernel times around it (unit ``cal``). A slow phase stretches both; the ratio stays. The kernel
is the benchmark's own code, so no change to gbtmark can change it.

Its work is the same kind as gbtmark's: a Python loop over tiny numpy
calls (a per-bit embed), a batched SVD over many small matrices (the
frame scan), float formatting and parsing (the key text), and PCM
conversion of a megasample in both directions (WAV I/O).
"""

from time import perf_counter

import numpy as np

_rng = np.random.default_rng(20030)
_BASIS = np.linalg.qr(_rng.standard_normal((10, 10)))[0]
_FRAMES = _rng.standard_normal((1200, 10))
_BATCH = _rng.standard_normal((12000, 10))
_PCM = _rng.integers(-32768, 32768, 1_000_000, dtype=np.int16).tobytes()


def _kernel():
    values = []
    for frame in _FRAMES:
        coeffs = _BASIS.T @ frame
        u, s, vt = np.linalg.svd(coeffs[:4].reshape(2, 2), full_matrices=False)
        s[0] += 0.05
        coeffs[:4] = ((u * s) @ vt).reshape(-1)
        values.append(float(np.clip(_BASIS @ coeffs, -1.0, 1.0)[0]))
    mats = (_BATCH @ _BASIS)[:, :4].reshape(-1, 2, 2)
    smax = np.linalg.svd(mats, compute_uv=False)[:, 0]
    values.extend(smax[:1200].tolist())
    text = "\n".join(f"{v:.17g}" for v in values)
    samples = np.frombuffer(_PCM, dtype="<i2").astype(np.float64) / 32768.0
    pcm = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2")
    return sum(float(line) for line in text.splitlines()) + len(pcm.tobytes())


def calibrate() -> float:
    """Seconds the reference kernel takes right now."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start
