import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import kron_hamiltonian, kron_site_operator, spin_flip_G, total_magnetization
from hubbard_lax.hubbard_model import (
    build_hamiltonian,
    h_bond,
    h_end,
    phys_dim,
    site_operator,
)
from hubbard_lax.linalg import PAULI, SPIN_LABELS, local4

TOL = 1e-12


def dense(n, **kw):
    """H summed from its local terms, each embedded densely."""
    return sum(site_operator(n, j, h) for h, j in build_hamiltonian(n, **kw))


def test_species_swap_symmetry():
    H = dense(3, u=1.3, mu_L=0.4, mu_R=-0.2)
    G = spin_flip_G(3).toarray()
    assert np.linalg.norm(G @ H @ G - H) < TOL


def test_species_swap_on_site_operators():
    G = spin_flip_G(2).toarray()
    sp2 = site_operator(2, 2, local4("+", "0"))
    tp2 = site_operator(2, 2, local4("0", "+"))
    assert np.allclose(G @ sp2 @ G, tp2, atol=TOL)


def test_free_spectrum_two_sites():
    """u=0, mu=0: four decoupled hopping pairs; eigenvalues are pairwise sums
    from {-2, 0, 0, 2}."""
    H = dense(2, u=0.0, mu_L=0.0, mu_R=0.0)
    evals = np.sort(np.linalg.eigvalsh(H))
    single = [-2.0, 0.0, 0.0, 2.0]
    want = np.sort([a + b for a in single for b in single])
    assert np.allclose(evals, want, atol=1e-10)


def test_interaction_coefficient_every_site():
    """The zz weight is u on each site: moving u -> u+du shifts the diagonal
    by du * sum_j zz_j."""
    n, du = 3, 0.37
    H1 = dense(n, u=1.0)
    H2 = dense(n, u=1.0 + du)
    diff = H2 - H1
    zz_total = np.zeros_like(H1)
    for j in range(1, n + 1):
        sz = kron_site_operator(n, j, 0, "z").toarray()
        tz = kron_site_operator(n, j, 1, "z").toarray()
        zz_total += sz @ tz
    assert np.linalg.norm(diff - du * zz_total) < TOL


def test_magnetization_conserved():
    H = dense(3, u=0.9, mu_L=0.3, mu_R=-0.1)
    for species in (0, 1):
        Mz = total_magnetization(3, species).toarray()
        assert np.linalg.norm(H @ Mz - Mz @ H) < TOL


def test_boundary_fields():
    base = dense(2, u=1.0, mu_L=0.0, mu_R=0.0)
    shifted = dense(2, u=1.0, mu_L=0.8, mu_R=0.0)
    diff = shifted - base
    sz1 = kron_site_operator(2, 1, 0, "z").toarray()
    tz1 = kron_site_operator(2, 1, 1, "z").toarray()
    assert np.linalg.norm(diff - 0.4 * (sz1 + tz1)) < TOL


def test_bond_plus_boundaries_assemble_h():
    n, u, muL, muR = 3, 1.1, 0.5, -0.3
    H = kron_hamiltonian(n, u, muL, muR).toarray()
    acc = np.zeros_like(H)
    hb = h_bond(u)
    for j in range(1, n):
        acc += np.kron(np.kron(np.eye(4 ** (j - 1)), hb), np.eye(4 ** (n - j - 1)))
    acc += np.kron(h_end(u, muL), np.eye(4 ** (n - 1)))
    acc += np.kron(np.eye(4 ** (n - 1)), h_end(u, muR))
    assert np.linalg.norm(H - acc) < TOL
    assert np.linalg.norm(dense(n, u=u, mu_L=muL, mu_R=muR) - H) < TOL


def test_phys_dim():
    assert phys_dim(3) == 64


def _site_operator_kron_chain(n, j, species, s):
    """Reference: one kron factor per qubit, sigma before tau on each site."""
    eye2 = sp.identity(2, format="csr", dtype=complex)
    factors = [sp.csr_matrix(PAULI[s]) if (i, q) == (j, species) else eye2
               for i in range(1, n + 1) for q in (0, 1)]
    out = factors[0]
    for f in factors[1:]:
        out = sp.kron(out, f, format="csr")
    return out


def test_site_operator_matches_kron_chain():
    for n in range(1, 6):
        for j, species, s in itertools.product(range(1, n + 1), (0, 1), SPIN_LABELS):
            op = local4(s, "0") if species == 0 else local4("0", s)
            got = site_operator(n, j, op)
            want = _site_operator_kron_chain(n, j, species, s)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want.toarray())
            assert (kron_site_operator(n, j, species, s) != want).nnz == 0


def test_site_operator_refuses_what_does_not_fit():
    for j in (0, 3):
        with pytest.raises(ValueError, match="does not fit"):
            site_operator(3, j, h_bond(1.0))
