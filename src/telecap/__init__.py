"""Teleportation capacity of bipartite multiqubit pure states.

Given a pure state shared between two parties, this package decides how
many qubits the state can teleport faithfully, constructs the local
unitaries that turn it into that many singlet pairs plus a residual
factor, and simulates the resulting protocols branch by branch.
"""

from .capacity import (
    AnalysisReport,
    analyze,
    canonical_state,
    max_capacity,
    reduced_density,
    synthesize_u_a,
    synthesize_u_b,
    verify_condition,
)
from .corpus import (
    PlantedChannel,
    generate_planted,
    ghz_channel,
    n_bell_channel,
    random_channel,
)
from .states import (
    ChannelState,
    PureState,
    apply_unitary,
    bell_state,
    fidelity,
    ghz_state,
    random_pure_state,
    tensor,
)
from .teleport import (
    BranchOutcome,
    CapacityShortfall,
    TeleportResult,
    teleport_bell,
    teleport_circuit,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BranchOutcome",
    "CapacityShortfall",
    "ChannelState",
    "PlantedChannel",
    "PureState",
    "TeleportResult",
    "analyze",
    "apply_unitary",
    "bell_state",
    "canonical_state",
    "fidelity",
    "generate_planted",
    "ghz_channel",
    "ghz_state",
    "max_capacity",
    "n_bell_channel",
    "random_channel",
    "random_pure_state",
    "reduced_density",
    "synthesize_u_a",
    "synthesize_u_b",
    "teleport_bell",
    "teleport_circuit",
    "tensor",
    "verify_condition",
]
