import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import signal as sps

from gbtmark import (
    ConfigError,
    GraphConfig,
    NumericError,
    build_adjacency,
    build_laplacian,
    make_plan,
)
from gbtmark.transform import _EIGENVALUE_TIE, _canonical

# Published adjacency for an 8-sample frame with weights 1 and 0.3.
PUBLISHED_8x8 = np.array([
    [0.0, 1.0, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0, 0.0, 1.0, 0.3, 0.0, 0.0, 0.0, 0.0],
    [0.3, 1.0, 0.0, 1.0, 0.3, 0.0, 0.0, 0.0],
    [0.0, 0.3, 1.0, 0.0, 1.0, 0.3, 0.0, 0.0],
    [0.0, 0.0, 0.3, 1.0, 0.0, 1.0, 0.3, 0.0],
    [0.0, 0.0, 0.0, 0.3, 1.0, 0.0, 1.0, 0.3],
    [0.0, 0.0, 0.0, 0.0, 0.3, 1.0, 0.0, 1.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.3, 1.0, 0.0],
])


def test_adjacency_matches_published_8x8():
    adj = build_adjacency(GraphConfig(frame_size=8))
    assert np.array_equal(adj, PUBLISHED_8x8)


def test_adjacency_n3_hand_computed():
    adj = build_adjacency(GraphConfig(frame_size=3))
    assert np.array_equal(adj, [[0, 1, 0.3], [1, 0, 1], [0.3, 1, 0]])


def test_adjacency_n3_path_when_w2_zero():
    adj = build_adjacency(GraphConfig(frame_size=3, w2=0.0))
    assert np.array_equal(adj, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_adjacency_banded_symmetric_zero_diagonal():
    for n, w1, w2 in [(3, 1.0, 0.3), (10, 1.0, 0.3), (17, 2.5, 0.0), (64, 0.8, 1.2)]:
        adj = build_adjacency(GraphConfig(frame_size=n, w1=w1, w2=w2))
        assert np.array_equal(adj, adj.T)
        assert np.all(np.diag(adj) == 0)
        # bandwidth 2: nothing beyond the second off-diagonal
        assert np.all(adj[np.abs(np.subtract.outer(range(n), range(n))) > 2] == 0)


@pytest.mark.parametrize("kwargs", [
    {"frame_size": 2},
    {"frame_size": 10, "w1": 0.0},
    {"frame_size": 10, "w1": -1.0},
    {"frame_size": 10, "w2": -0.1},
    {"frame_size": 10, "w1": np.inf},
    {"frame_size": 10, "w2": np.inf},
    {"frame_size": 1025},  # make_plan would hold frame_size**2 floats
])
def test_config_rejects_invalid(kwargs):
    with pytest.raises(ConfigError):
        GraphConfig(**kwargs)


def test_laplacian_n3_hand_computed():
    lap = build_laplacian(GraphConfig(frame_size=3, w1=1.0, w2=0.3))
    assert np.allclose(lap, [[1.3, -1, -0.3], [-1, 2, -1], [-0.3, -1, 1.3]],
                       atol=1e-15)


def test_laplacian_annihilates_constant_vector():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        w1, w2 = rng.uniform(0.01, 1, 2)
        lap = build_laplacian(GraphConfig(frame_size=n, w1=w1, w2=w2))
        assert np.max(np.abs(lap @ np.ones(n))) < 1e-12


def lead_rows(basis):
    """Each column's lowest row within _EIGENVALUE_TIE of its largest magnitude."""
    mags = np.abs(basis)
    return np.argmax(mags >= mags.max(axis=0) - _EIGENVALUE_TIE, axis=0)


def plan_spectrum(config):
    """A basis, its Laplacian, and the eigenvalues its columns carry."""
    basis = make_plan(config)
    lap = build_laplacian(config)
    return basis, lap, np.diag(basis.T @ lap @ basis)


def test_plan_invariants_default_config():
    basis, lap, eigenvalues = plan_spectrum(GraphConfig())
    n = 10
    assert np.max(np.abs(lap.sum(axis=1))) <= 1e-12
    assert np.max(np.abs(basis.T @ basis - np.eye(n))) <= 1e-10
    assert np.all(np.diff(eigenvalues) >= 0)
    assert abs(eigenvalues[0]) <= 1e-10
    assert np.all(eigenvalues[1:] > 0)       # connected graph
    assert np.all(eigenvalues >= -1e-10)     # positive semidefinite
    recon = (basis * eigenvalues) @ basis.T
    assert np.max(np.abs(recon - lap)) <= 1e-9


def test_plan_refuses_a_laplacian_that_overflows():
    # finite weights whose degree sum is inf: eigh returns NaN eigenvalues
    with pytest.raises(NumericError), np.errstate(over="ignore"):
        make_plan(GraphConfig(frame_size=10, w1=1e308, w2=1e308))


def test_plan_reports_a_failed_eigendecomposition(monkeypatch):
    # __wrapped__ is make_plan past its cache, which this leaves alone
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericError, match="eigendecomposition failed: Eigenvalues"):
        make_plan.__wrapped__(GraphConfig())


def test_plan_first_eigenvector_is_positive_constant():
    basis = make_plan(GraphConfig())
    assert np.allclose(basis[:, 0], np.full(10, 1 / np.sqrt(10)), atol=1e-12)


def test_plan_sign_normalization():
    basis = make_plan(GraphConfig(frame_size=16))
    lead = lead_rows(basis)
    assert np.all(basis[lead, np.arange(16)] > 0)


@pytest.mark.parametrize("n", [10, 16, 20, 32])
@pytest.mark.parametrize("w2", [0.0, 0.3, 1.0])
def test_plan_does_not_depend_on_the_node_order(n, w2):
    # a chain read backwards is the same chain: the basis canonicalised from
    # the decomposition of the reversed Laplacian J L J, mapped back through
    # J, is the plan. Each column's largest entry ties its mirror row's up to
    # rounding, so a lead picked by argmax alone differs between the two.
    config = GraphConfig(frame_size=n, w2=w2)
    lap = build_laplacian(config)
    mirror = np.eye(n)[::-1]
    vals, vecs = np.linalg.eigh(mirror @ lap @ mirror)
    assert np.max(np.abs(_canonical(vals, mirror @ vecs) - make_plan(config))) <= 1e-9


@pytest.mark.parametrize("n", [3, 10, 16, 64])
def test_plan_without_second_neighbours_is_the_dct_ii(n):
    # the path graph's Laplacian eigenvectors are the DCT-II basis vectors
    # (Strang, "The Discrete Cosine Transform", SIAM Review 1999), column k
    # sqrt(2/n) c_k cos(pi (2j + 1) k / 2n) with c_0 = 1/sqrt(2), c_k = 1
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    dct = np.sqrt(2 / n) * np.cos(np.pi * (2 * j + 1) * k / (2 * n))
    dct[:, 0] /= np.sqrt(2)
    dct *= np.sign(dct[lead_rows(dct), np.arange(n)])
    assert np.max(np.abs(make_plan(GraphConfig(frame_size=n, w2=0.0)) - dct)) <= 1e-12


def test_path4_eigenvalues_closed_form():
    # path graph on 4 nodes: eigenvalues 2 - 2cos(k*pi/4)
    _, _, eigenvalues = plan_spectrum(GraphConfig(frame_size=4, w1=1.0, w2=0.0))
    expected = np.sort([0.0, 2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)])
    assert np.allclose(eigenvalues, expected, atol=1e-12)


def test_plan_deterministic():
    # two builds, not one cached basis read twice
    a, _, a_eigenvalues = plan_spectrum(GraphConfig())
    make_plan.cache_clear()
    b, _, b_eigenvalues = plan_spectrum(GraphConfig())
    assert a is not b
    assert np.array_equal(a_eigenvalues, b_eigenvalues)
    assert np.array_equal(a, b)


def test_plan_with_repeated_eigenvalues():
    # w2 = w1 on three nodes gives the complete graph, spectrum {0, 3, 3}
    basis, _, eigenvalues = plan_spectrum(GraphConfig(frame_size=3, w1=1.0, w2=1.0))
    assert np.allclose(eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)
    assert np.max(np.abs(basis.T @ basis - np.eye(3))) <= 1e-10
    make_plan.cache_clear()
    again = make_plan(GraphConfig(frame_size=3, w1=1.0, w2=1.0))
    assert np.array_equal(basis, again)
    lead = lead_rows(basis)
    assert np.all(basis[lead, np.arange(3)] > 0)


@given(n=st.integers(3, 48), w1=st.floats(0.05, 5.0), w2=st.floats(0.0, 5.0))
@example(n=3, w1=1.0, w2=1.0)   # complete graph, spectrum {0, 3, 3}
@example(n=4, w1=2.5, w2=2.5)   # another tied pair of eigenvalues
def test_plan_basis_is_canonical(n, w1, w2):
    # each column's lead, its lowest row within _EIGENVALUE_TIE of the largest
    # magnitude, is positive, and inside a run of tied eigenvalues the lead
    # rows do not decrease
    config = GraphConfig(frame_size=n, w1=w1, w2=w2)
    basis = make_plan(config)
    vals = np.linalg.eigh(build_laplacian(config))[0]
    lead = lead_rows(basis)
    assert np.all(basis[lead, np.arange(n)] > 0)
    assert np.all(np.diff(lead)[np.diff(vals) <= _EIGENVALUE_TIE] >= 0)


# The default basis, columns in order. A flipped sign or a swapped
# column changes every key's s_max.
DEFAULT_BASIS = np.array([
    [0.316227766017, 0.448214501470, 0.448829614110, 0.439295964758, 0.399408392695,
     -0.313221637125, -0.196267343886, 0.089338016548, -0.022450903460, -0.005808687917],
    [0.316227766017, 0.393842041355, 0.237628570625, -0.002524338548, -0.268589077411,
     0.456250512624, 0.484416122999, -0.366881154291, 0.191660088950, -0.045997418765],
    [0.316227766017, 0.314113057283, -0.008051645295, -0.316748430753, -0.384969125767,
     0.140818573698, -0.242052199792, 0.488695479111, -0.439482281542, 0.205791828939],
    [0.316227766017, 0.201274756314, -0.262060238440, -0.415037749326, -0.082490779523,
     -0.324915739174, -0.312157641606, -0.134432045863, 0.476526294667, -0.404462515677],
    [0.316227766017, 0.069380594181, -0.416346301001, -0.185544553442, 0.336640590006,
     -0.261395423652, 0.266061062286, -0.317051559162, -0.206253198614, 0.540287232096],
    [0.316227766017, -0.069380594181, -0.416346301001, 0.185544553442, 0.336640590006,
     0.261395423652, 0.266061062286, 0.317051559162, -0.206253198614, -0.540287232096],
    [0.316227766017, -0.201274756314, -0.262060238440, 0.415037749326, -0.082490779523,
     0.324915739174, -0.312157641606, 0.134432045863, 0.476526294667, 0.404462515677],
    [0.316227766017, -0.314113057283, -0.008051645295, 0.316748430753, -0.384969125767,
     -0.140818573698, -0.242052199792, -0.488695479111, -0.439482281542, -0.205791828939],
    [0.316227766017, -0.393842041355, 0.237628570625, 0.002524338548, -0.268589077411,
     -0.456250512624, 0.484416122999, 0.366881154291, 0.191660088950, 0.045997418765],
    [0.316227766017, -0.448214501470, 0.448829614110, -0.439295964758, 0.399408392695,
     0.313221637125, -0.196267343886, -0.089338016548, -0.022450903460, 0.005808687917],
])


def test_default_plan_basis_matches_committed_values(default_basis):
    assert np.max(np.abs(default_basis - DEFAULT_BASIS)) <= 1e-12


# a frame's coefficients are frame @ basis, and coeffs @ basis.T is the frame

def test_forward_constant_frame(default_basis):
    coeffs = np.full(10, 0.25) @ default_basis
    assert coeffs[0] == pytest.approx(0.25 * np.sqrt(10), abs=1e-12)
    assert np.max(np.abs(coeffs[1:])) < 1e-12


def test_forward_zero_frame(default_basis):
    assert np.array_equal(np.zeros(10) @ default_basis, np.zeros(10))


def test_forward_preserves_norm(default_basis):
    rng = np.random.default_rng(1)
    for _ in range(50):
        frame = rng.uniform(-1, 1, 10)
        coeffs = frame @ default_basis
        assert abs(np.linalg.norm(coeffs) - np.linalg.norm(frame)) <= 1e-10


def test_inverse_unit_coefficient_gives_constant_frame(default_basis):
    frame = np.eye(10)[0] @ default_basis.T
    assert np.allclose(frame, np.full(10, 1 / np.sqrt(10)), atol=1e-12)


def test_inverse_preserves_norm(default_basis):
    rng = np.random.default_rng(2)
    for _ in range(50):
        coeffs = rng.normal(size=10)
        assert abs(np.linalg.norm(coeffs @ default_basis.T)
                   - np.linalg.norm(coeffs)) <= 1e-10


def test_roundtrip_identity_1000_random_frames(default_basis):
    basis = default_basis
    rng = np.random.default_rng(3)
    frames = rng.uniform(-1, 1, (1000, 10))
    worst = 0.0
    for frame in frames:
        back = (frame @ basis) @ basis.T
        worst = max(worst, np.max(np.abs(back - frame)))
    assert worst <= 1e-9
    # a batch of frames transforms row by row, like the single frames
    coeffs = (frames.reshape(10, 100, 10) @ basis).reshape(1000, 10)
    rows = np.array([frame @ basis for frame in frames])
    assert np.max(np.abs(coeffs - rows)) <= 1e-12
    assert np.max(np.abs(coeffs @ basis.T - frames)) <= 1e-9


def test_energy_compaction_on_correlated_frames(default_basis):
    # frames from an AR(1) process with coefficient 0.95: the first 40%
    # of coefficients must hold far more energy than the last 40%
    rng = np.random.default_rng(4)
    frames = sps.lfilter([1.0], [1.0, -0.95], rng.normal(size=(1000, 10)), axis=1)
    coeffs = frames @ default_basis
    total = np.sum(coeffs ** 2, axis=1)
    first = np.mean(np.sum(coeffs[:, :4] ** 2, axis=1) / total)
    last = np.mean(np.sum(coeffs[:, -4:] ** 2, axis=1) / total)
    assert first > last
