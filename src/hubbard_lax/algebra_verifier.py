"""Residual checks for the defining operator identities.

Every check takes an assembled LaxFamily (built at cutoff K + EDGE_MARGIN)
and measures the Frobenius residual of one identity with its auxiliary
indices restricted to the level <= K prefix of the basis. Products of
operators are sliced to that prefix; the identities on one or two sites are
contracted from site tensors (linalg.lift) by linalg.chain between the
boundary rows of the prefix, the same core that contracts Omega. Truncation
corrupts the last couple of levels only, since every factor in any checked
expression shifts the level by at most one.

Identity names used in reports:

- divergence_sigma / divergence_tau: the single-species divergence relations
  for S (resp. T) with the free hopping of that species,
- mixed_divergence: the mixed relation tying acute/grave operators to the
  commutator with Y - u sz tz,
- species_commutation: [S^s, T^t] = 0,
- interaction_spectral_commutation: [X, Y] = 0,
- bond_divergence: the full two-site divergence of L with the bond
  Hamiltonian,
- center_condition: {S+, S-} central among all S and T components.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .hubbard_model import h_bond
from .lax_builder import LaxFamily, LaxParams, assemble_family, xk_entries
from .linalg import PAULI, SPIN_LABELS, chain, lift, local4, phys_transfer_tensor

DEFAULT_TOL = 1e-10
EDGE_MARGIN = 2

_HOP2 = 2.0 * (local4("+", "-") + local4("-", "+"))


@dataclass
class ResidualReport:
    identity_name: str
    params: LaxParams
    cutoff_K: int
    residual_fro: float
    residual_max: float
    operand_scale: float
    passed: bool
    tol: float = DEFAULT_TOL

    def as_dict(self) -> dict:
        return {
            "identity": self.identity_name,
            "lambda": [self.params.lam.real, complex(self.params.lam).imag],
            "omega": [complex(self.params.omega).real, complex(self.params.omega).imag],
            "u": self.params.u,
            "cutoff_K": self.cutoff_K,
            "residual_fro": self.residual_fro,
            "residual_max": self.residual_max,
            "operand_scale": self.operand_scale,
            "tolerance": self.tol,
            "passed": bool(self.passed),
        }


def _cut(fam: LaxFamily, target_K):
    """The checked cutoff K and the length m of the level <= K prefix of the
    family's auxiliary basis."""
    if target_K is None:
        target_K = fam.space.cutoff_K - EDGE_MARGIN
    if target_K < 1:
        raise ValueError("family cutoff too small for edge-restricted check")
    return target_K, fam.space.level_prefix(target_K)


def residual_report(name, params, K, diff, scale, tol) -> ResidualReport:
    """The report of the residual diff of identity name on the scale of its
    operands: passed when ||diff||_F <= tol scale."""
    fro = float(np.linalg.norm(diff))
    mx = float(np.max(np.abs(diff))) if diff.size else 0.0
    scale = float(max(scale, 1e-300))
    return ResidualReport(
        identity_name=name, params=params, cutoff_K=K,
        residual_fro=fro, residual_max=mx, operand_scale=scale,
        passed=bool(fro <= tol * scale), tol=tol,
    )


def check_id1(fam: LaxFamily, target_K=None, tol=DEFAULT_TOL) -> ResidualReport:
    """Divergence relation for the S species with its free hopping."""
    return _divergence(fam, fam.S, fam.SacuteX, fam.XSgrave,
                       "divergence_sigma", target_K, tol)


def check_id2(fam: LaxFamily, target_K=None, tol=DEFAULT_TOL) -> ResidualReport:
    """Same relation for T (the reflection conjugate of check_id1)."""
    return _divergence(fam, fam.T, fam.TacuteX, fam.XTgrave,
                       "divergence_tau", target_K, tol)


def _divergence(fam, ops, acuteX, Xgrave, name, target_K, tol):
    """[h, sum A^s X A^s' sigma^s sigma^s'] = sum (acute-A^s X A^s'
    - A^s X grave-A^s') sigma^s sigma^s' on two sites of one species, with its
    free hopping h."""
    K, m = _cut(fam, target_K)
    E = np.eye(fam.dim)[:m]
    A = lift(PAULI, ops)
    A12 = chain([A @ fam.X, A], E, E)
    hA12 = _HOP2 @ A12
    rhs = chain([lift(PAULI, acuteX), A], E, E) - chain([A, lift(PAULI, Xgrave)], E, E)
    diff = hA12 - A12 @ _HOP2 - rhs
    return residual_report(name, fam.params, K, diff,
                           max(np.linalg.norm(hA12), np.linalg.norm(rhs)), tol)


def check_id3(fam: LaxFamily, target_K=None, tol=DEFAULT_TOL) -> ResidualReport:
    """Mixed divergence: sum_st (S T' + T S' - `S T - `T S) sigma^s tau^t
    equals [Y - u sz tz, sum_st S T sigma^s tau^t] on one ladder site."""
    K, m = _cut(fam, target_K)
    E = np.eye(fam.dim)[:m]
    S, T = lift(PAULI, fam.S), lift(PAULI, fam.T)

    def site(first, second, tau_first=False):
        # one ladder site as a chain over its two qubits, taken in the order
        # of the auxiliary product and swapped back to sigma first if needed
        R = chain([first, second], E, E)
        if tau_first:
            R = R.reshape(m, m, 2, 2, 2, 2).transpose(0, 1, 3, 2, 5, 4).reshape(R.shape)
        return R

    groups = [site(S, lift(PAULI, fam.Tacute)),
              site(T, lift(PAULI, fam.Sacute), tau_first=True),
              site(lift(PAULI, fam.Sgrave), T),
              site(lift(PAULI, fam.Tgrave), S, tau_first=True)]
    ST = site(S, T)
    uZZ = fam.params.u * local4("z", "z")
    WST = site(fam.Y @ S, T) - uZZ @ ST
    STW = site(S, T @ fam.Y) - ST @ uZZ
    diff = groups[0] + groups[1] - groups[2] - groups[3] - (WST - STW)
    # Scale from the un-cancelled product groups: the combined sides may
    # vanish identically (both do at u = 0).
    scale = max(max(np.linalg.norm(g) for g in groups), np.linalg.norm(WST))
    return residual_report("mixed_divergence", fam.params, K, diff, scale, tol)


def check_id4(fam: LaxFamily, target_K=None, tol=DEFAULT_TOL) -> ResidualReport:
    """[S^s, T^t] = 0 for all sixteen pairs (edge-restricted)."""
    K, m = _cut(fam, target_K)
    pairs = [((fam.S[s] @ fam.T[t])[:m, :m], (fam.T[t] @ fam.S[s])[:m, :m])
             for s, t in itertools.product(SPIN_LABELS, SPIN_LABELS)]
    worst = max((ST - TS for ST, TS in pairs), key=np.linalg.norm)
    scale = max(np.linalg.norm(ST) for ST, _ in pairs)
    return residual_report("species_commutation", fam.params, K, worst, scale, tol)


def check_id5(fam: LaxFamily, target_K=None, tol=DEFAULT_TOL) -> ResidualReport:
    """[X, Y] = 0 (both are level-local)."""
    K, m = _cut(fam, target_K)
    diff = (fam.X @ fam.Y - fam.Y @ fam.X)[:m, :m]
    scale = max(np.linalg.norm(fam.X), np.linalg.norm(fam.Y))
    return residual_report("interaction_spectral_commutation", fam.params, K, diff, scale, tol)


def check_gLOD(fam: LaxFamily, target_K=None, tol=DEFAULT_TOL) -> ResidualReport:
    """Two-site divergence of the transfer components against the bond
    Hamiltonian: [h_12, L1 L2] = (Lt1 + Y L1) L2 - L1 (Lt2 + L2 Y)."""
    K, m = _cut(fam, target_K)
    E = np.eye(fam.dim)[:m]
    A, At = phys_transfer_tensor(fam.L), phys_transfer_tensor(fam.Ltilde)
    h = h_bond(fam.params.u)
    L12 = chain([A, A], E, E)
    hL12 = h @ L12
    rhs = chain([At + fam.Y @ A, A], E, E) - chain([A, At + A @ fam.Y], E, E)
    diff = hL12 - L12 @ h - rhs
    return residual_report("bond_divergence", fam.params, K, diff,
                           max(np.linalg.norm(hL12), np.linalg.norm(rhs)), tol)


def check_center(fam: LaxFamily, target_K=None, tol=DEFAULT_TOL) -> ResidualReport:
    """{S+, S-} commutes with every S^s and T^t (restricted one level in)."""
    K, m = _cut(fam, target_K)
    C = fam.S["+"] @ fam.S["-"] + fam.S["-"] @ fam.S["+"]
    worst = max(((C @ op - op @ C)[:m, :m] for ops in (fam.S, fam.T) for op in ops.values()),
                key=np.linalg.norm)
    scale = max(np.linalg.norm(C[:m, :m]), 1.0)
    return residual_report("center_condition", fam.params, K, worst, scale, tol)


ALL_CHECKS = (check_id1, check_id2, check_id3, check_id4, check_id5, check_gLOD, check_center)


@dataclass(frozen=True)
class _Exact:
    """Gaussian rational re + i im with Fraction parts: just enough field
    arithmetic to evaluate the X_k formula exactly."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(z):
        if isinstance(z, _Exact):
            return z
        z = z if isinstance(z, Rational) else complex(z)
        return _Exact(Fraction(z.real), Fraction(z.imag))

    def __add__(self, o):
        o = _Exact.of(o)
        return _Exact(self.re + o.re, self.im + o.im)

    def __mul__(self, o):
        o = _Exact.of(o)
        return _Exact(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __neg__(self):
        return self * -1

    def __sub__(self, o):
        return self + -_Exact.of(o)

    def __rsub__(self, o):
        return _Exact.of(o) - self

    __radd__, __rmul__ = __add__, __mul__

    def __abs__(self) -> float:
        return math.hypot(self.re, self.im)


def check_xk_structure(params: LaxParams, k_max: int = 20, tol: float = 1e-12) -> dict:
    """Determinant -omega^2, both nearest-neighbour recurrences, and the
    exact k=0 initial conditions of the 2x2 interaction blocks.

    The entry formula of xk_matrix is evaluated in exact rational arithmetic
    on the float parameters, so each residual is 0 for the right formula and
    no float cancellation (entries near 10^3 at k = 20 against |omega^2| ~ 1)
    enters it.
    """
    lam, om, u = _Exact.of(params.lam), _Exact.of(params.omega), Fraction(params.u)
    det_target = -(om * om)
    step_mm = -u * om
    step_pp = -u * om * (1 - lam * lam)
    blocks = [xk_entries(k, lam, om, u) for k in range(k_max + 1)]
    det_worst = max(abs(x00 * x11 - x01 * x10 - det_target) / abs(det_target)
                    for (x00, x01), (x10, x11) in blocks)
    rec_mm_worst = rec_pp_worst = 0.0
    for ((p00, _), (_, p11)), ((x00, _), (_, x11)) in zip(blocks, blocks[1:]):
        sc = max(1.0, abs(p00), abs(p11))
        rec_mm_worst = max(rec_mm_worst, abs(x00 - p00 - step_mm) / sc)
        rec_pp_worst = max(rec_pp_worst, abs(x11 - p11 - step_pp) / sc)
    (x00, _), (_, x11) = blocks[0]
    init_exact = bool(x11 == _Exact.of(1) and x00 == det_target)
    passed = bool(
        det_worst <= tol and rec_mm_worst <= tol and rec_pp_worst <= tol and init_exact
    )
    return {
        "identity": "interaction_block_structure",
        "k_max": k_max,
        "det_max_rel": det_worst,
        "recurrence_mm_max_rel": rec_mm_worst,
        "recurrence_pp_max_rel": rec_pp_worst,
        "initial_conditions_exact": init_exact,
        "tolerance": tol,
        "passed": passed,
    }


def annulus_points(rng, k: int) -> list:
    """k random points of the annulus 0.3 <= |z| <= 1.5, each drawn as its
    radius (uniform) and then its angle."""
    zs = []
    for _ in range(k):
        r = 0.3 + 1.2 * rng.random()
        phi = 2.0 * np.pi * rng.random()
        zs.append(r * np.exp(1j * phi))
    return zs


def sample_params(num: int, seed: int = 42) -> list:
    """Random parameter points: lambda, omega from annulus_points, u from
    {+-0.5, +-1, +-2}."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(num):
        lam, om = annulus_points(rng, 2)
        u = float(rng.choice([0.5, -0.5, 1.0, -1.0, 2.0, -2.0]))
        out.append(LaxParams(lam, om, u))
    return out


def verify_family(params: LaxParams, cutoff_K: int, tol: float = DEFAULT_TOL) -> list:
    """Assemble at cutoff_K + EDGE_MARGIN and run every check restricted
    to levels <= cutoff_K."""
    fam = assemble_family(cutoff_K + EDGE_MARGIN, params)
    return [chk(fam, target_K=cutoff_K, tol=tol) for chk in ALL_CHECKS]


def verify_suite(num_samples: int = 5, cutoffs=(3, 4, 5), tol: float = DEFAULT_TOL,
                 seed: int = 42) -> list:
    """The standard verification sweep: random samples plus the lambda=0 and
    u=0 special points, at each cutoff."""
    points = sample_params(num_samples, seed=seed) + [
        LaxParams(0.0, 0.9 + 0.35j, 1.0),
        LaxParams(0.45 - 0.6j, 0.8 + 0.25j, 0.0),
    ]
    reports = []
    for K in cutoffs:
        for p in points:
            reports.extend(verify_family(p, K, tol=tol))
    return reports
