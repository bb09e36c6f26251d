"""Necessity probes: seeded single-operator corruptions must be caught.

Each mutation leaves the code path intact and changes exactly one ingredient;
the assertion is that at least one residual check exceeds 1e-4 of its operand
scale (the detection threshold), while the clean run sits at machine
precision. This guards against checks that would silently pass anything.
"""

import dataclasses

import numpy as np

from hubbard_lax.aux_space import AuxVertex
from hubbard_lax.algebra_verifier import (
    check_gLOD,
    check_id1,
    check_id3,
    check_id4,
)
from hubbard_lax.lax_builder import LaxParams, assemble_family
from hubbard_lax.lindblad_oracle import fixed_point_residual
from hubbard_lax.ness_engine import (
    DrivingConfig,
    build_double_lax,
    build_ness,
    check_boundary_conditions,
    contract_omega,
    m_diag,
    ness_family,
    ness_lax_params,
)

DETECT = 1e-4
PARAMS = LaxParams(0.37 - 0.21j, 0.55 + 0.4j, 1.0)
CFG = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, 3)


def detected(report):
    return report.residual_fro > DETECT * report.operand_scale


def test_clean_family_passes():
    fam = assemble_family(5, PARAMS)
    for chk in (check_id1, check_id3, check_id4, check_gLOD):
        assert not detected(chk(fam, target_K=3))


def test_mutation_s_entry():
    fam = assemble_family(5, PARAMS)
    r = fam.space.index[AuxVertex(0, +1)]
    c = fam.space.index[AuxVertex(1, +1)]
    fam.S["+"][r, c] *= 1.01
    assert detected(check_id1(fam, target_K=3))


def test_mutation_broken_reflection():
    """T rebuilt with a reflection that forgets to swap one half-integer
    pair: the species commutation collapses."""
    fam = assemble_family(5, PARAMS)
    G = fam.G.copy()
    ip = fam.space.index[AuxVertex(3, +1)]
    im = fam.space.index[AuxVertex(3, -1)]
    G[ip, ip] = G[im, im] = 1.0
    G[ip, im] = G[im, ip] = 0.0
    for s in fam.T:
        fam.T[s] = G @ fam.S[s] @ G
    assert detected(check_id4(fam, target_K=3))


def test_mutation_x_block_entry():
    fam = assemble_family(5, PARAMS)
    km = fam.space.index[AuxVertex(4, -1)]
    kp = fam.space.index[AuxVertex(4, +1)]
    fam.X[km, kp] *= 1.01
    assert detected(check_id1(fam, target_K=3))


def test_mutation_y_scale():
    fam = assemble_family(5, PARAMS)
    fam.Y *= 1.01
    assert detected(check_id3(fam, target_K=3)) or detected(check_gLOD(fam, target_K=3))


def test_mutation_filter_exponent():
    """eta -> 1.1 eta in the diagonal filter: the assembled state stops being
    stationary. (The telescoping identity itself is insensitive to the filter
    exponent — the bulk Hamiltonian commutes with any magnetization filter —
    so detection must come from the fixed point, not from telescoping.)"""
    res = build_ness(CFG)
    om = contract_omega(ness_family(CFG), CFG.n_sites)
    d_bad = m_diag(CFG.n_sites, res.eta * 1.1)
    R = (om @ om.conj().T) * d_bad[None, :]
    rho_bad = R / np.trace(R)
    assert fixed_point_residual(CFG, res.rho) < 1e-12
    assert fixed_point_residual(CFG, rho_bad) > DETECT


def test_mutation_spectral_parameter():
    lp = ness_lax_params(CFG)
    bad = dataclasses.replace(lp, lam=lp.lam * 1.05)
    bc_clean = check_boundary_conditions(build_double_lax(CFG, assemble_family(3, lp)))
    bc_bad = check_boundary_conditions(build_double_lax(CFG, assemble_family(3, bad)))
    assert bc_clean["left_passed"] and bc_clean["right_passed"]
    worst = max(bc_bad["left_residual"], bc_bad["right_residual"])
    assert worst > DETECT * bc_bad["scale"]
