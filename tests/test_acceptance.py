"""Release acceptance battery.

Each test here checks one numbered criterion end to end at its stated
tolerance and records a one-line verdict; conftest prints the collected
lines after the run so the per-criterion results stay visible even
though pytest captures in-test stdout.

The battery is intentionally self-contained: it re-derives everything
from the public API rather than trusting intermediate results from the
unit-test modules.
"""

import dataclasses

import numpy as np

from conftest import canonical_configs, omega_apply, record_acceptance
from hubbard_lax.algebra_verifier import (
    check_gLOD,
    check_id1,
    check_id3,
    check_id4,
    check_xk_structure,
    sample_params,
    verify_suite,
)
from hubbard_lax.aux_space import AuxVertex
from hubbard_lax.lax_builder import LaxParams, assemble_family
from hubbard_lax.lindblad_oracle import fixed_point_oracle, fixed_point_residual
from hubbard_lax.ness_engine import (
    DrivingConfig,
    build_ness,
    k_exact,
    m_diag,
    ness_family,
    ness_lax_params,
    contract_omega,
    stationarity_certificate,
)
from hubbard_lax.observables import (
    current_series,
    current_uniformity,
    profile_and_currents,
    profile_and_currents_mpo,
    scaling_fit,
)
from hubbard_lax.transfer_commutativity import check_commutativity, sample_pairs

IDENTITY_TOL = 1e-10
ORACLE_TOL = 1e-9
FIXED_POINT_TOL = 1e-9
BOUNDARY_TOL = 1e-10
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-12
POSITIVITY_FLOOR = -1e-10
UNIFORMITY_TOL = 1e-9
TRUNCATION_TOL = 1e-13
DETECTION_FLOOR = 1e-4
SCALING_WINDOW = (-2.8, -1.2)

ASYM = (1.5, 0.7, 0.3, -0.4, 2.0)  # rates and potentials both asymmetric

_SUITE = None
_NESS = {}


def _suite():
    global _SUITE
    if _SUITE is None:
        _SUITE = verify_suite(num_samples=5, cutoffs=(3, 4, 5),
                              tol=IDENTITY_TOL, seed=42)
    return _SUITE


def _ness(cfg):
    if cfg not in _NESS:
        _NESS[cfg] = build_ness(cfg)
    return _NESS[cfg]


def _verdict(num, ok, detail):
    record_acceptance(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {detail}")


def _worst_rel(reports):
    return max(r.residual_fro / r.operand_scale for r in reports)


def _boundary(cfg, fam):
    """The larger relative residual of the two dissipative boundary
    equations of the stationarity certificate."""
    cert = stationarity_certificate(cfg, fam)
    return max(cert["boundary_left_residual"], cert["boundary_right_residual"])


def test_criterion_01_defining_identities():
    names = {"divergence_sigma", "divergence_tau", "mixed_divergence",
             "species_commutation", "interaction_spectral_commutation"}
    reports = [r for r in _suite() if r.identity_name in names]
    cutoffs = {r.cutoff_K for r in reports}
    points = {(r.params.lam, r.params.omega, r.params.u) for r in reports}
    ok = (all(r.passed for r in reports)
          and cutoffs == {3, 4, 5} and len(points) >= 5)
    _verdict(1, ok, f"defining identities: {len(reports)} reports over "
                    f"{len(points)} parameter points, K in {sorted(cutoffs)}, "
                    f"worst rel {_worst_rel(reports):.2e} (tol {IDENTITY_TOL:.0e})")
    assert ok


def test_criterion_02_local_operator_divergence():
    reports = [r for r in _suite() if r.identity_name == "bond_divergence"]
    has_lam0 = any(r.params.lam == 0 for r in reports)
    has_u0 = any(r.params.u == 0 for r in reports)
    ok = all(r.passed for r in reports) and has_lam0 and has_u0
    _verdict(2, ok, f"local divergence of the bond Hamiltonian: "
                    f"{len(reports)} reports incl. lambda=0 and u=0, worst rel "
                    f"{_worst_rel(reports):.2e} (tol {IDENTITY_TOL:.0e})")
    assert ok


def test_criterion_03_block_structure():
    points = sample_params(5, seed=42) + [
        LaxParams(0.0, 0.9 + 0.35j, 1.0),
        LaxParams(0.45 - 0.6j, 0.8 + 0.25j, 0.0),
    ]
    results = [check_xk_structure(p, k_max=20, tol=1e-12) for p in points]
    worst = max(max(r["det_max_rel"], r["recurrence_mm_max_rel"],
                    r["recurrence_pp_max_rel"]) for r in results)
    ok = all(r["passed"] and r["initial_conditions_exact"] for r in results)
    _verdict(3, ok, f"X-block determinants and recurrences, k=0..20 over "
                    f"{len(points)} points: worst rel {worst:.2e} "
                    f"(tol 1e-12), initial conditions exact")
    assert ok


def test_criterion_04_oracle_match():
    dists = []
    for n in (2, 3):
        for cfg in canonical_configs(n):
            rho = _ness(cfg).rho
            rho_oracle = fixed_point_oracle(cfg)
            dists.append(float(np.linalg.norm(rho - rho_oracle)))
    ok = max(dists) <= ORACLE_TOL
    _verdict(4, ok, f"steady state vs per-sector Lindblad oracle, n=2,3 x 3 "
                    f"drivings: worst Frobenius {max(dists):.2e} "
                    f"(tol {ORACLE_TOL:.0e})")
    assert ok


def test_criterion_05_stationarity_beyond_oracle():
    residuals = {}
    for n in (4, 5):
        cfg = DrivingConfig(*ASYM, n)
        residuals[n] = fixed_point_residual(cfg, _ness(cfg).rho)
    ok = max(residuals.values()) <= FIXED_POINT_TOL
    _verdict(5, ok, f"Lindbladian fixed-point residual n=4: "
                    f"{residuals[4]:.2e}, n=5: {residuals[5]:.2e} "
                    f"(tol {FIXED_POINT_TOL:.0e})")
    assert ok


def test_criterion_06_boundary_conditions():
    configs = [DrivingConfig(*ASYM, 3), DrivingConfig(2.0, 2.0, 0.0, 0.0, 1.0, 3)]
    worst_clean = max(_boundary(cfg, assemble_family(3, ness_lax_params(cfg)))
                      for cfg in configs)
    cfg = configs[0]
    bad = dataclasses.replace(ness_lax_params(cfg), lam=ness_lax_params(cfg).lam * 1.05)
    perturbed = _boundary(cfg, assemble_family(3, bad))
    ok = worst_clean <= BOUNDARY_TOL and perturbed > DETECTION_FLOOR
    _verdict(6, ok, f"dissipative boundary equations: worst rel {worst_clean:.2e} "
                    f"(tol {BOUNDARY_TOL:.0e}); 5% spectral-parameter shift "
                    f"lifts the residual to {perturbed:.2e}")
    assert ok


def test_criterion_07_state_sanity():
    for n in (2, 3, 4, 5):
        _ness(DrivingConfig(*ASYM, n))
    worst_h = worst_t = 0.0
    worst_eig = float("inf")
    for res in _NESS.values():
        d = res.diagnostics
        worst_h = max(worst_h, d["hermiticity"])
        worst_t = max(worst_t, d["trace_deviation"])
        worst_eig = min(worst_eig, d["positivity_min_eig"])
    ok = (worst_h <= HERMITICITY_TOL and worst_t <= TRACE_TOL
          and worst_eig >= POSITIVITY_FLOOR)
    _verdict(7, ok, f"state sanity over {len(_NESS)} computed states: "
                    f"hermiticity {worst_h:.2e}, trace dev {worst_t:.2e}, "
                    f"min eig {worst_eig:.2e}")
    assert ok


def test_criterion_08_currents_and_scaling():
    worst_u = 0.0
    for n in range(2, 7):
        cfg = DrivingConfig(*ASYM, n)
        if n <= 4:
            obs = profile_and_currents(_ness(cfg))
        else:
            obs = profile_and_currents_mpo(cfg)
        worst_u = max(worst_u, current_uniformity(obs))
    base = DrivingConfig(1.0, 1.0, 0.0, 0.0, 2.0, 4)
    fit = scaling_fit(current_series(base, range(4, 9)))
    lo, hi = SCALING_WINDOW
    ok = worst_u <= UNIFORMITY_TOL and lo <= fit["exponent"] <= hi
    _verdict(8, ok, f"current uniformity n=2..6: {worst_u:.2e} "
                    f"(tol {UNIFORMITY_TOL:.0e}); scaling exponent n=4..8 at "
                    f"u=2: {fit['exponent']:.3f} (r^2={fit['r_squared']:.3f}, "
                    f"window [{lo}, {hi}])")
    assert ok


def test_criterion_09_commuting_family():
    # Conjecture tier: the verdict is recorded but does not gate the
    # battery -- only report integrity is asserted.
    pairs = sample_pairs(20, seed=42)
    reports = [r for reps in check_commutativity((2, 3, 4), u=1.0, pairs=pairs).values()
               for r in reps]
    worst = _worst_rel(reports)
    conjecture_holds = all(r.passed for r in reports)
    tag = "PASS" if conjecture_holds else "FAIL"
    record_acceptance(
        f"criterion  9 {tag}  commuting transfer family (conjecture tier, "
        f"non-gating): n=2..4, {len(pairs)} pairs, worst rel {worst:.2e} "
        f"(tol 1e-10)")
    assert len(reports) == 60
    assert all(np.isfinite(r.residual_fro) for r in reports)


def test_criterion_10_truncation_exactness():
    worst = 0.0
    for n in range(2, 7):
        cfg = DrivingConfig(*ASYM, n)
        K = k_exact(n)
        O1 = contract_omega(ness_family(cfg), n)
        O2 = contract_omega(assemble_family(K + 1, ness_lax_params(cfg)), n)
        worst = max(worst, float(np.linalg.norm(O1 - O2) / np.linalg.norm(O2)))
        del O1, O2
    rng = np.random.default_rng(42)
    for n in (7, 8):
        cfg = DrivingConfig(*ASYM, n)
        fam_k = ness_family(cfg)
        fam_k1 = assemble_family(k_exact(n) + 1, ness_lax_params(cfg))
        for _ in range(3):
            v = rng.normal(size=4 ** n) + 1j * rng.normal(size=4 ** n)
            w1 = omega_apply(fam_k, n, v)
            w2 = omega_apply(fam_k1, n, v)
            worst = max(worst, float(np.linalg.norm(w1 - w2) / np.linalg.norm(w2)))
    ok = worst <= TRUNCATION_TOL
    _verdict(10, ok, f"cutoff K vs K+1: dense n=2..6 plus matrix-free probes "
                     f"n=7,8, worst rel {worst:.2e} (tol {TRUNCATION_TOL:.0e})")
    assert ok


def test_criterion_11_mutation_battery():
    params = LaxParams(0.37 - 0.21j, 0.55 + 0.4j, 1.0)
    cfg = DrivingConfig(*ASYM, 3)
    margins = {}

    fam = assemble_family(5, params)
    fam.S["+"][fam.space.index[AuxVertex(0, +1)],
               fam.space.index[AuxVertex(1, +1)]] *= 1.01
    r = check_id1(fam, target_K=3)
    margins["raising entry"] = r.residual_fro / r.operand_scale

    fam = assemble_family(5, params)
    G = fam.G.copy()
    ip, im = fam.space.index[AuxVertex(3, +1)], fam.space.index[AuxVertex(3, -1)]
    G[ip, ip] = G[im, im] = 1.0
    G[ip, im] = G[im, ip] = 0.0
    for s in fam.T:
        fam.T[s] = G @ fam.S[s] @ G
    r = check_id4(fam, target_K=3)
    margins["species reflection"] = r.residual_fro / r.operand_scale

    fam = assemble_family(5, params)
    fam.X[fam.space.index[AuxVertex(4, -1)],
          fam.space.index[AuxVertex(4, +1)]] *= 1.01
    r = check_id1(fam, target_K=3)
    margins["X block entry"] = r.residual_fro / r.operand_scale

    fam = assemble_family(5, params)
    fam.Y *= 1.01
    r3, rg = check_id3(fam, target_K=3), check_gLOD(fam, target_K=3)
    margins["Y scale"] = max(r3.residual_fro / r3.operand_scale,
                             rg.residual_fro / rg.operand_scale)

    om = contract_omega(ness_family(cfg), cfg.n_sites)
    d_bad = m_diag(cfg.n_sites, _ness(cfg).eta * 1.1)
    R = (om @ om.conj().T) * d_bad[None, :]
    margins["filter exponent"] = fixed_point_residual(cfg, R / np.trace(R))

    lp = ness_lax_params(cfg)
    margins["spectral parameter"] = _boundary(
        cfg, assemble_family(3, dataclasses.replace(lp, lam=lp.lam * 1.05)))

    detected = {k: v > DETECTION_FLOOR for k, v in margins.items()}
    ok = all(detected.values()) and len(margins) >= 6
    smallest = min(margins, key=margins.get)
    _verdict(11, ok, f"mutation battery: {sum(detected.values())}/{len(margins)} "
                     f"seeded defects detected above {DETECTION_FLOOR:.0e} "
                     f"(smallest margin {margins[smallest]:.2e}, {smallest})")
    assert ok
