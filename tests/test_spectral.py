import numpy as np
import pytest

from snl import graph, linalg, spectral
from snl.errors import FilterSpecError, PreconditionError, ShapeError
from snl.spectral import FilterSpec


def sym_affinity(rng, n, c=3):
    phi = rng.normal(0.0, 0.4, size=(n, c))
    psi = rng.normal(0.0, 0.4, size=(n, c))
    raw = graph.compute_affinity(phi, psi, "exp_dot")
    return graph.normalize(graph.symmetrize(raw), "symmetric")


def test_filter_spec_validation():
    FilterSpec(order=2, theta=[0.1, 0.2])
    with pytest.raises(FilterSpecError):
        FilterSpec(order=0, theta=[1.0])
    with pytest.raises(FilterSpecError):
        FilterSpec(order=1, basis="legendre", theta=[1.0])
    with pytest.raises(FilterSpecError):
        FilterSpec(order=1)  # neither theta nor weights
    with pytest.raises(FilterSpecError):
        FilterSpec(order=1, theta=[1.0], weights=[np.eye(2)])  # both
    with pytest.raises(FilterSpecError):
        FilterSpec(order=3, theta=[1.0, 2.0])  # too few coefficients
    with pytest.raises(FilterSpecError):
        FilterSpec(order=2, weights=[np.zeros((2, 3)), np.zeros((3, 3))])


def test_gft_roundtrip_preserves_norm():
    rng = np.random.default_rng(0)
    dec = linalg.eigh(sym_affinity(rng, 10).values)
    z = rng.normal(size=(10, 2))
    z_hat = spectral.gft(dec.eigenvectors, z)
    assert np.max(np.abs(spectral.inverse_gft(dec.eigenvectors, z_hat) - z)) < 1e-12
    assert np.linalg.norm(z_hat) == pytest.approx(np.linalg.norm(z), rel=1e-12)


def test_gft_rejects_non_orthonormal():
    with pytest.raises(PreconditionError):
        spectral.gft(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros((2, 1)))


def test_operand_shape_mismatch_is_typed():
    u = np.eye(3)
    with pytest.raises(ShapeError):
        spectral.gft(u, np.zeros((4, 1)))
    with pytest.raises(ShapeError):
        spectral.inverse_gft(u, np.zeros((2, 1)))
    with pytest.raises(ShapeError):
        spectral.apply_generalized_filter(u, np.ones(3), np.zeros((4, 1)))
    a = sym_affinity(np.random.default_rng(10), 3)
    spec = FilterSpec(order=2, weights=[np.zeros((2, 1))] * 2)
    with pytest.raises(ShapeError):
        spectral.poly_filter_apply(a, np.zeros((3, 3)), spec)


def test_apply_generalized_filter_matches_manual():
    rng = np.random.default_rng(1)
    dec = linalg.eigh(sym_affinity(rng, 8).values)
    u = dec.eigenvectors
    omega = rng.normal(size=8)
    z = rng.normal(size=(8, 3))
    want = u @ np.diag(omega) @ u.T @ z
    assert np.max(np.abs(spectral.apply_generalized_filter(u, omega, z) - want)) < 1e-12


def test_cheb_recursion_explicit_terms():
    rng = np.random.default_rng(2)
    lt = graph.scaled_laplacian(sym_affinity(rng, 6))
    terms = spectral.cheb_recursion(lt, 4)
    assert np.array_equal(terms[0], np.eye(6))
    assert np.array_equal(terms[1], lt)
    assert np.max(np.abs(terms[2] - (2 * lt @ lt - np.eye(6)))) < 1e-12
    assert np.max(np.abs(terms[3] - (2 * lt @ terms[2] - lt))) < 1e-12


def test_cheb_recursion_errors():
    with pytest.raises(ShapeError):
        spectral.cheb_recursion(np.zeros((2, 3)), 2)
    with pytest.raises(FilterSpecError):
        spectral.cheb_recursion(np.eye(2), 0)


def test_poly_filter_theta_matches_explicit_powers():
    rng = np.random.default_rng(3)
    a = sym_affinity(rng, 7)
    z = rng.normal(size=(7, 2))
    theta = rng.normal(size=3)
    spec = FilterSpec(order=3, theta=theta)
    av = a.values
    want = theta[0] * z + theta[1] * av @ z + theta[2] * av @ av @ z
    assert np.max(np.abs(spectral.poly_filter_apply(a, z, spec) - want)) < 1e-12


def test_poly_filter_weights_matches_explicit_powers():
    rng = np.random.default_rng(4)
    a = sym_affinity(rng, 5, c=2)
    z = rng.normal(size=(5, 2))
    ws = [rng.normal(size=(2, 3)) for _ in range(3)]
    spec = FilterSpec(order=3, weights=ws)
    av = a.values
    want = z @ ws[0] + av @ z @ ws[1] + av @ av @ z @ ws[2]
    assert np.max(np.abs(spectral.poly_filter_apply(a, z, spec) - want)) < 1e-12


def test_poly_filter_requires_normalized_affinity():
    rng = np.random.default_rng(5)
    raw = graph.compute_affinity(rng.normal(size=(4, 2)), rng.normal(size=(4, 2)), "exp_dot")
    with pytest.raises(PreconditionError):
        spectral.poly_filter_apply(raw, np.zeros((4, 1)), FilterSpec(order=1, theta=[1.0]))


def test_poly_filter_rejects_chebyshev_basis_directly():
    rng = np.random.default_rng(6)
    a = sym_affinity(rng, 4)
    spec = FilterSpec(order=2, basis="chebyshev", theta=[1.0, 1.0])
    with pytest.raises(FilterSpecError):
        spectral.poly_filter_apply(a, np.zeros((4, 1)), spec)


def test_spectral_oracle_agrees_with_poly_filter():
    rng = np.random.default_rng(7)
    for n in (4, 9, 16):
        a = sym_affinity(rng, n)
        z = rng.normal(size=(n, 2))
        theta = rng.normal(size=4)
        got = spectral.poly_filter_apply(a, z, FilterSpec(order=4, theta=theta))
        want = spectral.spectral_oracle(a, z, theta)
        assert linalg.rel_error(got, want) < 1e-10


def test_spectral_oracle_degenerate_spectrum():
    # uniform affinity (complete graph): A = 11^T / n has eigenvalue 0 with
    # multiplicity n - 1, so the eigenbasis is not unique
    n = 16
    raw = graph.compute_affinity(np.zeros((n, 3)), np.zeros((n, 3)), "exp_dot")
    a = graph.normalize(graph.symmetrize(raw), "symmetric")
    lam = linalg.eigh(a.values).eigenvalues
    assert np.max(np.abs(lam - np.r_[np.zeros(n - 1), 1.0])) < 1e-12
    rng = np.random.default_rng(9)
    z = rng.normal(size=(n, 2))
    theta = rng.normal(size=4)
    got = spectral.poly_filter_apply(a, z, FilterSpec(order=4, theta=theta))
    want = spectral.spectral_oracle(a, z, theta)
    assert linalg.rel_error(got, want) <= 1e-10


def test_spectral_oracle_rejects_asymmetric():
    rng = np.random.default_rng(8)
    a = graph.normalize(
        graph.compute_affinity(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)), "exp_dot"),
        "random_walk",
    )
    with pytest.raises(PreconditionError):
        spectral.spectral_oracle(a, np.zeros((5, 1)), [1.0])
