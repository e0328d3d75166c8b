"""Deterministic simulator of a two-way private-public-key quantum key
distribution protocol: vectorized qubit strings, noise and eavesdropper
models, the three protocol variants, the star-network generalization, and an
experiment harness. The scalar single-qubit algebra the tests check them
against is twoway_qkd.reference, which this package does not import."""

from .channel import (
    ABSENT,
    BACKWARD,
    FORWARD,
    INTERCEPT_RESEND,
    SUBSTITUTE,
    EveObservation,
    EveStrategy,
    NoiseModel,
)
from .harness import ConfigError, ExperimentConfig, RunStatistics, emit_results, run_experiment
from .network import (
    LinkSettings,
    StarSessionResult,
    Topology,
    WireFrame,
    run_star_session,
)
from .protocol import (
    AllErasuresError,
    DerivationRecord,
    PreparationRecord,
    RunConfig,
    SessionResult,
    alice_measure,
    alice_prepare,
    bob_build_key_message,
    bob_encode,
    majority,
    resolve_erasures,
    run_session,
)
from .qubit import XZ, ZX, Basis, I, PauliWord, QubitRegister, X, Z

__version__ = "0.1.0"
