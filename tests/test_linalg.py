import numpy as np

from hubbard_lax.linalg import PAULI, local4


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
