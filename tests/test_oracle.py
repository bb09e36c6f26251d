import numpy as np
import pytest

from conftest import canonical_configs
from hubbard_lax import lindblad_oracle
from hubbard_lax.hubbard_model import site_operator
from hubbard_lax.lindblad_oracle import (
    UniquenessViolation,
    apply_lindbladian,
    fixed_point_oracle,
    fixed_point_residual,
    make_spec,
    superoperator,
)
from hubbard_lax.ness_engine import DrivingConfig, build_ness

TOL = 1e-12


def random_state(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_single_jump_dissipator_on_identity():
    """2 L 1 L+ - {L+L, 1} for L = sigma+_1 equals 2 sz_1."""
    L = site_operator(2, 1, 0, "+").toarray()
    Ld = L.conj().T
    eye = np.eye(16)
    out = 2 * L @ eye @ Ld - Ld @ L @ eye - eye @ Ld @ L
    sz1 = site_operator(2, 1, 0, "z").toarray()
    assert np.linalg.norm(out - 2 * sz1) < TOL


def test_generator_annihilates_trace():
    cfg = DrivingConfig(1.3, 0.8, 0.2, -0.5, 1.0, 2)
    spec = make_spec(cfg)
    for seed in range(5):
        out = apply_lindbladian(spec, random_state(16, seed))
        assert abs(np.trace(out)) < TOL


def test_generator_preserves_hermiticity():
    cfg = DrivingConfig(1.0, 0.6, 0.0, 0.3, 1.5, 2)
    spec = make_spec(cfg)
    out = apply_lindbladian(spec, random_state(16, 3))
    assert np.linalg.norm(out - out.conj().T) < TOL


def test_superoperator_matches_direct_application():
    cfg = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, 2)
    spec = make_spec(cfg)
    S = superoperator(spec)
    rho = random_state(16, 11)
    direct = apply_lindbladian(spec, rho)
    via_s = (S @ rho.reshape(-1)).reshape(16, 16)
    assert np.linalg.norm(direct - via_s) < TOL


def test_spectrum_in_left_half_plane():
    """All generator eigenvalues have non-positive real part (n=2)."""
    cfg = DrivingConfig(1.0, 1.0, 0.0, 0.0, 1.0, 2)
    S = superoperator(make_spec(cfg))
    ev = np.linalg.eigvals(S.toarray())
    assert ev.real.max() <= 1e-12


def test_null_space_unique():
    """Cross-check of the oracle's uniqueness certificate: the full-space SVD
    finds exactly one null vector, and it is the oracle's state."""
    cfg = DrivingConfig(1.0, 1.0, 0.0, 0.0, 1.0, 2)
    _, sv, Vh = np.linalg.svd(superoperator(make_spec(cfg)).toarray())
    assert np.sum(sv < 1e-10 * sv[0]) == 1
    rho_svd = Vh[-1].conj().reshape(16, 16)
    rho_svd = rho_svd / np.trace(rho_svd)
    rho = fixed_point_oracle(cfg)
    assert abs(np.trace(rho) - 1.0) < TOL
    assert np.linalg.norm(rho - rho.conj().T) < TOL
    assert np.linalg.norm(rho - rho_svd) <= 1e-12


@pytest.mark.parametrize("n, kept, unique", [
    (2, (), False),          # no dissipation: whatever commutes with H is stationary
    (2, (0,), False),        # sigma injection only
    (2, (0, 2), False),      # sigma in and out: tau is not driven
    (2, (0, 1), True),       # both species pumped up: all spins up is the one steady state
    (3, (0, 2), False),      # factors without error; only the condition estimate sees it
])
def test_degenerate_generator_raises(monkeypatch, n, kept, unique):
    """Keeping only some of the jumps s+_1, t+_1, s-_n, t-_n (in that order)
    leaves a null space of dimension > 1 unless both species are driven.
    SuperLU may print BLAS "illegal value" lines on an exactly singular
    factor; they are harmless."""
    full_spec = lindblad_oracle.make_spec

    def some_jumps(cfg):
        spec = full_spec(cfg)
        spec.jump_ops = [spec.jump_ops[k] for k in kept]
        return spec

    monkeypatch.setattr(lindblad_oracle, "make_spec", some_jumps)
    cfg = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, n)
    if unique:
        assert abs(np.trace(fixed_point_oracle(cfg)) - 1.0) < TOL
    else:
        with pytest.raises(UniquenessViolation):
            fixed_point_oracle(cfg)


def test_oracle_state_is_stationary():
    cfg = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, 2)
    rho = fixed_point_oracle(cfg)
    assert fixed_point_residual(cfg, rho) < 1e-12


def test_oracle_matches_transfer_construction():
    for cfg in canonical_configs(2):
        d = np.linalg.norm(build_ness(cfg).rho - fixed_point_oracle(cfg))
        assert d < 1e-10, cfg.key()


def test_interaction_free_agreement():
    cfg = DrivingConfig(1.2, 0.9, 0.3, -0.2, 0.0, 2)
    d = np.linalg.norm(build_ness(cfg).rho - fixed_point_oracle(cfg))
    assert d < 1e-10


def test_size_refusal():
    cfg = DrivingConfig(1.0, 1.0, 0.0, 0.0, 1.0, 4)
    with pytest.raises(ValueError, match="n="):
        superoperator(make_spec(cfg))


def test_uniqueness_violation_is_valueerror_subclass():
    assert issubclass(UniquenessViolation, RuntimeError)
