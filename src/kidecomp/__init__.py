"""Decompose finite quantum-state ensembles into classical, nonclassical and
redundant parts; compute the associated teleportation and compression
costs; simulate the transmission protocols at desk scale."""

__version__ = "0.1.0"

from .decompose import (
    KIBlock,
    KIDecomposition,
    ki_decompose,
    mergeable,
    remove_redundancy,
    verify,
)
from .ensemble import (
    Ensemble,
    average_state,
    load_ensemble,
    read_ensemble,
    save_ensemble,
    support_restrict,
    validate,
    write_ensemble,
)
from .measures import InfoMeasures, fidelity, info_measures, von_neumann_entropy
from .oracles import Channel, PlantSpec, haar_unitary, planted_ensemble, random_form2_channel
from .protocols import (
    AsymptoticRun,
    Trials,
    rate_sweep,
    simulate_asymptotic,
    simulate_individual,
)

__all__ = [
    "__version__",
    "KIBlock",
    "KIDecomposition",
    "ki_decompose",
    "mergeable",
    "remove_redundancy",
    "verify",
    "Ensemble",
    "average_state",
    "load_ensemble",
    "read_ensemble",
    "save_ensemble",
    "support_restrict",
    "validate",
    "write_ensemble",
    "InfoMeasures",
    "fidelity",
    "info_measures",
    "von_neumann_entropy",
    "Channel",
    "PlantSpec",
    "haar_unitary",
    "planted_ensemble",
    "random_form2_channel",
    "AsymptoticRun",
    "Trials",
    "rate_sweep",
    "simulate_asymptotic",
    "simulate_individual",
]
