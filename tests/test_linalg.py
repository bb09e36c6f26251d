import numpy as np
import pytest

from hubbard_lax.linalg import PAULI, SPIN_LABELS, lift, local4, phys_transfer_tensor
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
