"""A first look at the frame transform.

Builds the chain graph used for 10-sample audio frames, eigendecomposes
its Laplacian, and shows why the leading coefficients are the right
place to hide information: correlated audio concentrates its energy
there.
"""

import numpy as np
from scipy import signal as sps

from gbtmark import GraphConfig, build_adjacency, build_laplacian, make_plan

# ------------------------------------------------------------------
# 1. The graph: every sample talks to its neighbours (weight 1.0) and
#    its second neighbours (weight 0.3).
config = GraphConfig(frame_size=10, w1=1.0, w2=0.3)
adjacency = build_adjacency(config)
laplacian = build_laplacian(config)

print("adjacency (first 5 rows):")
print(adjacency[:5])
print("\nLaplacian row sums (all zero):", laplacian.sum(axis=1))

# ------------------------------------------------------------------
# 2. The eigenbasis. Eigenvalues play the role of frequencies: the
#    constant vector sits at zero, wiggly vectors at the top.
basis = make_plan(config)
print("\neigenvalues (graph frequencies):")
print(np.round(np.linalg.eigvalsh(laplacian), 4))
print("\nfirst basis vector (constant, the 'DC' of the graph):")
print(np.round(basis[:, 0], 4))

# ------------------------------------------------------------------
# 3. Energy compaction. Feed in frames of strongly correlated noise,
#    the kind audio is made of, and look where the energy lands.
rng = np.random.default_rng(0)
frames = sps.lfilter([1.0], [1.0, -0.95], rng.normal(size=(2000, 10)), axis=1)
coeffs = frames @ basis
share = np.mean(coeffs ** 2, axis=0)
share /= share.sum()

print("\naverage energy share per coefficient:")
for i, s in enumerate(share):
    print(f"  c[{i}]  {s:6.1%}  {'#' * int(round(60 * s))}")
print(f"\nfirst 4 coefficients hold {share[:4].sum():.1%} of the energy,")
print(f"last 4 hold {share[-4:].sum():.1%} -- the watermark rides on the first 40%.")

# ------------------------------------------------------------------
# 4. The transform is orthonormal, so nothing is lost either way.
frame = frames[0] / np.max(np.abs(frames[0]))
roundtrip = (frame @ basis) @ basis.T
print(f"\nround-trip max error: {np.max(np.abs(roundtrip - frame)):.2e}")
