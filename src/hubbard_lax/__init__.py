"""Two-parameter Lax representation of the Hubbard spin ladder on a truncated
auxiliary graph, with exact steady states of the boundary-driven chain.

Subpackages are plain modules:

- linalg: the single-qubit operator basis, the 4x4 site operators and
  their charges, and the dense contraction core (lift components into site
  tensors and chain them, behind a peak-memory guard)
- aux_space: the auxiliary vertex graph, index map, vertex charges and
  reflection
- lax_builder: the S/T/X/Y operator tables and assembled Lax components
- algebra_verifier: residual checks for all defining operator identities
- hubbard_model: the physical ladder Hamiltonian as local terms, and their
  dense embedding in the chain
- ness_engine: Omega as charge-sector blocks (one contraction, which the
  commutation probe reads too), the steady state from them, its local
  stationarity certificate (bulk divergence and boundary equations),
  environment engine
- lindblad_oracle: the Lindblad generator from local terms, and its fixed
  point per coherence sector for tiny chains
- observables: densities, currents, scaling fits
- transfer_commutativity: commuting-family probe
- cli: command-line front end
"""

__version__ = "0.1.0"

from .lax_builder import LaxParams, assemble_family
from .ness_engine import DrivingConfig, build_ness, map_driving_to_params

__all__ = [
    "LaxParams",
    "assemble_family",
    "DrivingConfig",
    "build_ness",
    "map_driving_to_params",
    "__version__",
]
