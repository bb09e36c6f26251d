import numpy as np
import pytest

from hubbard_lax import linalg
from hubbard_lax.linalg import (PAULI, SITE_CHARGES, SPIN_LABELS, chain, lift, local4,
                               phys_transfer_tensor, sector_chain)
from hubbard_lax.ness_engine import DrivingConfig, ness_family


def test_pauli_algebra():
    sp, sm = PAULI["+"], PAULI["-"]
    assert np.allclose(sp @ sm - sm @ sp, PAULI["z"])
    assert np.allclose(sp @ sm + sm @ sp, PAULI["0"])
    assert np.allclose(PAULI["z"] @ PAULI["+"], PAULI["+"])


def test_local4_factors():
    # sigma acts on the first qubit of the 4-dim site, tau on the second
    assert np.allclose(local4("z", "0"), np.kron(PAULI["z"], np.eye(2)))
    assert np.allclose(local4("0", "+"), np.kron(np.eye(2), PAULI["+"]))
    assert np.allclose(local4("z", "z"), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_local4_is_a_read_only_kron_table():
    for s in SPIN_LABELS:
        for t in SPIN_LABELS:
            op = local4(s, t)
            assert np.array_equal(op, np.kron(PAULI[s], PAULI[t]))
            with pytest.raises(ValueError):
                op[0, 0] = 7.0


@pytest.mark.parametrize("n", [2, 6])
def test_transfer_tensor_matches_kron_reference(n):
    fam = ness_family(DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, n))
    ref = lift({st: np.kron(PAULI[st[0]], PAULI[st[1]]) for st in fam.L}, fam.L)
    assert np.array_equal(phys_transfer_tensor(fam.L), ref)


def _charged_tensor():
    """A random site tensor that conserves one integer charge, with its
    physical and auxiliary charges."""
    rng = np.random.default_rng(5)
    aux = np.array([[0], [1], [-1], [1], [2]])
    phys = np.array([[1], [0], [0], [-1]])
    keep = (phys[:, None, None, None, 0] + aux[None, None, :, None, 0]
            == phys[None, :, None, None, 0] + aux[None, None, None, :, 0])
    A = np.where(keep, rng.normal(size=keep.shape) + 1j * rng.normal(size=keep.shape), 0)
    return A, phys, aux


@pytest.mark.parametrize("left, right", [(0, 0), (1, 2), (3, 0)])
def test_sector_chain_matches_chain(left, right):
    # with distinct boundary charges too, the sectors hold every entry of the
    # dense product
    A, phys, aux = _charged_tensor()
    e = np.eye(5)
    for n in (1, 2, 4):
        want = chain([A] * n, e[left], e[right])
        assert np.linalg.norm(want) > 0
        got = np.zeros_like(want)
        seen = 0
        for rows, cols, block in sector_chain([A] * n, phys, aux, left, right):
            got[np.ix_(rows, cols)] = block
            seen += block.size
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
        assert np.count_nonzero(want) <= seen < want.size


def test_sector_chain_refuses_off_charge_entry(monkeypatch):
    # phys 0 + aux 0 = 1 but phys 0 + aux 2 = 0: the sectors would drop this
    # entry, so it is refused before the contraction plans or allocates
    A, phys, aux = _charged_tensor()
    B = A.copy()
    B[0, 0, 0, 2] = 0.5
    monkeypatch.setattr(linalg, "guard", lambda *a: pytest.fail("guard reached"))
    with pytest.raises(ValueError, match=r"tensor 2 breaks charge conservation at A\[0, 0, 0, 2\]$"):
        sector_chain([A, B, A], phys, aux, 0, 0)


def test_site_charges_count_up_spins():
    # sigma^+ (tau^+) raises the sigma (tau) charge of a site state by one
    step = {"+": 1, "-": -1, "0": 0}
    for s, t in [("+", "0"), ("0", "+"), ("+", "+"), ("-", "+")]:
        p, q = np.argwhere(local4(s, t))[0]
        assert tuple(SITE_CHARGES[p] - SITE_CHARGES[q]) == (step[s], step[t])
