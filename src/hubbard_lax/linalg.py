"""The single-qubit operator basis and the 4x4 ladder-site operators built
from it, shared by every module."""

from __future__ import annotations

import numpy as np

# Single-qubit operator basis used throughout: s in {"+", "-", "0", "z"}.
PAULI = {
    "+": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    "-": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
    "0": np.eye(2, dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

SPIN_LABELS = ("+", "-", "0", "z")


def local4(s: str, t: str) -> np.ndarray:
    """Dense 4x4 operator sigma^s tau^t on one ladder site (sigma qubit first)."""
    return np.kron(PAULI[s], PAULI[t])
