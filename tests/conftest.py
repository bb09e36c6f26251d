"""Shared driving configurations for the oracle cross-checks, the
species-swap and total-magnetization operators the symmetry tests use, the
auxiliary-space gauge the gauge-invariance tests apply, and the text labels
of auxiliary vertices the operator-table tests read.
"""

import numpy as np
import scipy.sparse as sp

from hubbard_lax.aux_space import AuxSpace, AuxVertex
from hubbard_lax.hubbard_model import phys_dim, site_operator
from hubbard_lax.lax_builder import LaxFamily
from hubbard_lax.ness_engine import DrivingConfig

# asymmetric rates, asymmetric potentials, and a symmetric-rate control
CANONICAL_DRIVINGS = (
    (1.5, 0.7, 0.3, -0.4, 2.0),
    (2.0, 1.0, 0.0, 0.0, 1.0),
    (1.0, 1.0, 0.5, 0.5, -0.5),
)


def canonical_configs(n_sites):
    return [DrivingConfig(*d, n_sites) for d in CANONICAL_DRIVINGS]


def spin_flip_G(n: int) -> sp.csr_matrix:
    """Global species swap: exchanges the sigma and tau qubits at every site.
    G sigma^s G = tau^s, G^2 = identity."""
    # local 4x4 swap of the two qubits
    swap = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            swap[2 * b + a, 2 * a + b] = 1.0
    out = sp.csr_matrix(swap)
    blk = sp.csr_matrix(swap)
    for _ in range(n - 1):
        out = sp.kron(out, blk, format="csr")
    return out


def total_magnetization(n: int, species: int) -> sp.csr_matrix:
    out = sp.csr_matrix((phys_dim(n), phys_dim(n)), dtype=complex)
    for j in range(1, n + 1):
        out = out + site_operator(n, j, species, "z")
    return out.tocsr()


def label(v: AuxVertex) -> str:
    """Text label of a vertex, e.g. AuxVertex(3, -1) -> '3/2-'."""
    s = "+" if v.sign > 0 else "-"
    if v.is_integer:
        return f"{v.twice_level // 2}{s}"
    return f"{v.twice_level}/2{s}"


def parse_label(text: str) -> AuxVertex:
    """Inverse of label, e.g. '3/2-' -> AuxVertex(3, -1)."""
    sign = +1 if text.endswith("+") else -1
    body = text[:-1]
    if "/" in body:
        num, den = body.split("/")
        if den != "2":
            raise ValueError(f"bad vertex label {text!r}")
        return AuxVertex(int(num), sign)
    return AuxVertex(2 * int(body), sign)


def gauge_matrix(space: AuxSpace, xi: complex) -> np.ndarray:
    """Diagonal similarity |k+-> -> xi^{+-1} |k+-> on integer vertices
    (identity on half-integer ones)."""
    if xi == 0:
        raise ValueError("gauge parameter must be nonzero")
    d = np.ones(space.dim, dtype=complex)
    for v in space.vertices:
        if v.is_integer:
            d[space.index[v]] = xi ** v.sign
    return np.diag(d)


def apply_gauge(fam: LaxFamily, xi: complex) -> LaxFamily:
    """Return the gauge-transformed family: every operator O -> D^-1 O D.

    All identity residuals must be unchanged; X^{-+}/X^{+-} pick up xi^{-+2}.
    """
    D = gauge_matrix(fam.space, xi)
    Di = gauge_matrix(fam.space, 1.0 / xi)

    def conj(M):
        return Di @ M @ D

    def conj_dict(d):
        return {k: conj(v) for k, v in d.items()}

    out = LaxFamily(
        params=fam.params, space=fam.space, G=fam.G.copy(),
        S=conj_dict(fam.S), T=conj_dict(fam.T), X=conj(fam.X),
        X_blocks=fam.X_blocks, X_inv=conj(fam.X_inv), Y=conj(fam.Y),
        SacuteX=conj_dict(fam.SacuteX), XSgrave=conj_dict(fam.XSgrave),
        TacuteX=conj_dict(fam.TacuteX), XTgrave=conj_dict(fam.XTgrave),
    )
    out.Sacute = conj_dict(fam.Sacute)
    out.Sgrave = conj_dict(fam.Sgrave)
    out.Tacute = conj_dict(fam.Tacute)
    out.Tgrave = conj_dict(fam.Tgrave)
    out.L = conj_dict(fam.L)
    out.Ltilde = conj_dict(fam.Ltilde)
    return out


# one line per acceptance criterion, emitted after the test run so the
# verdicts stay visible even though pytest captures in-test stdout
ACCEPTANCE_LINES = []


def record_acceptance(line: str):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
