import numpy as np
import pytest

from hubbard_lax.lax_builder import LaxParams, assemble_family
from hubbard_lax.linalg import (PAULI, SITE_CHARGES, SPIN_LABELS, chain, lift, local4,
                               phys_transfer_tensor, sectors)
from hubbard_lax.ness_engine import DrivingConfig, k_exact, ness_family, omega_blocks
from hubbard_lax.transfer_commutativity import sample_pairs


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_omega_blocks_match_chain(n):
    # the blocks hold every entry of the dense chain, which vanishes between
    # sectors: on a ness family, and at probe points from the cutoff of a
    # longer chain, as check_commutativity reads them
    fam = ness_family(DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, max(n, 2)))
    points = [(fam, [n])] + [(assemble_family(k_exact(4), LaxParams(lam, om, 1.0)), [n, 4])
                             for pair in sample_pairs(2, seed=3) for lam, om in pair]
    order, bounds = sectors(n)
    for f, ns in points:
        root = np.eye(f.dim)[0]
        want = chain([phys_transfer_tensor(f.L)] * n, root, root)
        got = np.zeros_like(want)
        blocks = omega_blocks(f.space.cutoff_K, f.params, ns)[n]
        assert len(blocks) == len(bounds) - 1
        for block, lo, hi in zip(blocks, bounds, bounds[1:]):
            got[np.ix_(order[lo:hi], order[lo:hi])] = block
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_site_charges_count_up_spins():
    # sigma^+ (tau^+) raises the sigma (tau) charge of a site state by one
    step = {"+": 1, "-": -1, "0": 0}
    for s, t in [("+", "0"), ("0", "+"), ("+", "+"), ("-", "+")]:
        p, q = np.argwhere(local4(s, t))[0]
        assert tuple(SITE_CHARGES[p] - SITE_CHARGES[q]) == (step[s], step[t])
