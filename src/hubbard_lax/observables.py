"""Steady-state observables: density profiles, species currents, uniformity,
and finite-size scaling fits.

Every chain length takes one route: profile_and_currents_mpo reads the
local values <O_j> and <O_j P_{j+1}> from the environment engine,
ness_engine.local_expectations, which never builds rho. Its cross-check,
profile_and_currents, reads the same values off the one- and two-site
reduced density matrices Tr_rest rho of a build_ness state, each one partial
trace of its dense rho, for n <= 6; both feed one assembly (_profile).

Current convention. With hopping 2(s+_j s-_{j+1} + s-_j s+_{j+1}) the local
magnetization obeys d<sz_j>/dt = i<[H, sz_j]> = <J_{j-1,j}> - <J_{j,j+1}>
with

    J_{j,j+1} = 4i (s+_j s-_{j+1} - s-_j s+_{j+1}),

i.e. positive J is rightward particle flow. The factor 4 comes with the
amplitude-2 hopping; the identity i[H, sz_j] = J_{j-1,j} - J_{j,j+1} is
checked at operator level in the tests, which is what fixes both the
constant and the sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hubbard_model import SIGMA, TAU
from .linalg import local4
from .ness_engine import DrivingConfig, NessResult, first_bonds, local_expectations

REAL_TOL = 1e-10
# The largest relative spread of the bond currents along a steady state that
# observe and sweep pass (current_uniformity).
UNIFORMITY_TOL = 1e-9


@dataclass
class ObservableSet:
    n_sites: int
    densities_sigma: list
    densities_tau: list
    currents_sigma: list
    currents_tau: list


def _real(z: complex, what: str) -> float:
    """The real part of z, refused if not finite or not real to REAL_TOL."""
    if not np.isfinite(z):
        raise ValueError(f"{what} is not finite, got {z}")
    if abs(z.imag) > REAL_TOL * max(1.0, abs(z)):
        raise ValueError(f"{what} has non-negligible imaginary part {z.imag:g}")
    return float(z.real)


def _dense_local_expectations(ness: NessResult, site_ops: dict, bond_ops: dict):
    """Cross-check of ness_engine.local_expectations, with the same per-site
    ({name: <O_j>}, {name: <O_j P_{j+1}>}) pairs, read off Tr_rest rho over
    sites j, j + 1 (site n alone at j = n), one partial trace of the dense rho."""
    n, rho = ness.cfg.n_sites, ness.rho
    for j in range(1, n + 1):
        left, d = 4 ** (j - 1), 4 ** min(2, n + 1 - j)  # the states left of j, and of those kept
        r = np.einsum("aibajb->ij", rho.reshape(left, d, -1, left, d, 4 ** n // (left * d)))
        yield ({k: np.sum(r.T * np.kron(o, np.eye(d // 4))) for k, o in site_ops.items()},
               {k: np.sum(r.T * np.kron(o, p)) for k, (o, p) in bond_ops.items()} if j < n else {})


# local 4x4 blocks for the expectation engine
_SZ_LOC = {SIGMA: local4("z", "0"), TAU: local4("0", "z")}
_PLUS_LOC = {SIGMA: local4("+", "0"), TAU: local4("0", "+")}
_MINUS_LOC = {SIGMA: local4("-", "0"), TAU: local4("0", "-")}


def _current_terms(sp: int) -> dict:
    """The two bond terms of J = 4i (x+_j x-_{j+1} - x-_j x+_{j+1}) for
    species x, as engine bond operators."""
    return {(sp, +1): (_PLUS_LOC[sp], _MINUS_LOC[sp]),
            (sp, -1): (_MINUS_LOC[sp], _PLUS_LOC[sp])}


_CURRENT_TERMS = {**_current_terms(SIGMA), **_current_terms(TAU)}


def _current(bond: dict, sp: int, what: str) -> float:
    return _real(4j * (bond[sp, +1] - bond[sp, -1]), what)


def _profile(n: int, sweep) -> ObservableSet:
    """Densities and currents of both species from a sweep of local
    expectations of _SZ_LOC and _CURRENT_TERMS."""
    dens = {SIGMA: [], TAU: []}
    curr = {SIGMA: [], TAU: []}
    for j, (site, bond) in enumerate(sweep, 1):
        for sp in (SIGMA, TAU):
            dens[sp].append(_real(site[sp], f"<{'st'[sp]}z_{j}>"))
            if j < n:
                curr[sp].append(_current(bond, sp, f"J_{'st'[sp]}{j}"))
    return ObservableSet(
        n_sites=n, densities_sigma=dens[SIGMA], densities_tau=dens[TAU],
        currents_sigma=curr[SIGMA], currents_tau=curr[TAU],
    )


def profile_and_currents(ness: NessResult) -> ObservableSet:
    """Cross-check of profile_and_currents_mpo, the engine's route: the
    densities <sz_j>, <tz_j> and bond currents of a steady state of
    build_ness, read off partial traces of its dense rho (n <= 6)."""
    return _profile(ness.cfg.n_sites, _dense_local_expectations(ness, _SZ_LOC, _CURRENT_TERMS))


def profile_and_currents_mpo(cfg: DrivingConfig) -> ObservableSet:
    """Densities <sz_j>, <tz_j> and bond currents through the environment
    engine (ness_engine.local_expectations), the route of observe and sweep
    at every chain length: one sweep from each end, time and memory growing
    as n da, rescaled so that long chains cannot overflow; never builds
    rho. Its size guard admits chains up to n = 5976; a full profile takes
    seconds at n = 1000."""
    return _profile(cfg.n_sites, local_expectations(cfg, _SZ_LOC, _CURRENT_TERMS))


def current_uniformity(obs: ObservableSet) -> float:
    """max_j |J_j - J_1| / |J_1| over both species; max_j |J_j| where J_1 = 0."""
    worst = 0.0
    for series in (obs.currents_sigma, obs.currents_tau):
        if len(series) >= 2:
            ref = series[0]
            worst = max(worst, max(abs(x - ref) for x in series) / (abs(ref) or 1.0))
    return worst


def current_series(base: DrivingConfig, n_values) -> list:
    """(n, J_sigma at the first bond) for each chain length of n_values, in
    the order given, read from sweeps of the environment engine at the
    longest chains (ness_engine.first_bonds)."""
    ns = [int(n) for n in n_values]
    bonds = first_bonds(base, ns, _current_terms(SIGMA))
    return [(n, _current(bond, SIGMA, "J")) for n, bond in zip(ns, bonds)]


def _line_fit(x: np.ndarray, y: np.ndarray):
    """Least-squares y ~ a x + b: the coefficients (a, b) and r^2."""
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    ss_res = float(np.sum((y - A @ coef) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return coef, 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def scaling_fit(series) -> dict:
    """Least-squares slope of log|J| against log n.

    Refuses a series whose currents change sign (the log-log fit would be
    meaningless)."""
    if len(series) < 3:
        raise ValueError("need at least 3 points for a scaling fit")
    ns = np.array([p[0] for p in series], dtype=float)
    js = np.array([p[1] for p in series], dtype=float)
    if np.any(js == 0) or (np.sign(js) != np.sign(js[0])).any():
        raise ValueError("current changes sign across the series; fit refused")
    coef, r2 = _line_fit(np.log(ns), np.log(np.abs(js)))
    return {"exponent": float(coef[0]), "r_squared": r2}


def cosine_profile_fit(profile) -> dict:
    """Fit <z_j> to a cos(pi (j - 1/2) / n) + b; reports amplitude, offset,
    and goodness of fit (no pass/fail threshold attached)."""
    y = np.asarray(profile, dtype=float)
    j = np.arange(1, len(y) + 1)
    coef, r2 = _line_fit(np.cos(np.pi * (j - 0.5) / len(y)), y)
    return {"amplitude": float(coef[0]), "offset": float(coef[1]), "r_squared": r2}
