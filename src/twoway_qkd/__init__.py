"""Deterministic simulator of a two-way private-public-key quantum key
distribution protocol: single-qubit algebra, noise and eavesdropper models,
the three protocol variants, the star-network generalization, and an
experiment harness."""

from .channel import (
    ABSENT,
    BACKWARD,
    FORWARD,
    INTERCEPT_RESEND,
    SUBSTITUTE,
    EveObservation,
    EveStrategy,
    NoiseModel,
    eve_tap,
    perturb,
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
    verify_tag,
)
from .qubit import (
    XZ,
    ZX,
    Basis,
    ChannelCompletenessError,
    DensityMatrix,
    I,
    KrausChannel,
    PauliWord,
    PureState,
    QubitRegister,
    X,
    Z,
    apply_channel,
    apply_pauli,
    born_probability,
    encode_bit,
    flip_probability,
    measure_in_basis,
    to_density,
)

__version__ = "0.1.0"
