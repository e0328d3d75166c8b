"""Deterministic simulator of a two-way private-public-key quantum key
distribution protocol: vectorized qubit strings, noise and eavesdropper
models, the three protocol variants, the star-network generalization, and an
experiment harness. The scalar single-qubit algebra the tests check them
against is twoway_qkd.reference, which this package does not import.

`import twoway_qkd` loads no layer: a layer module is imported the first time
one of its names below is read, so a session never loads the star network or
the sweep harness. `twoway_qkd.<layer>` (qubit, channel, protocol, network,
harness) imports that layer too."""

#: The public names, by the layer module that defines each.
_EXPORTS = {
    "channel": ("ABSENT", "BACKWARD", "FORWARD", "INTERCEPT_RESEND", "SUBSTITUTE", "EveObservation", "EveStrategy",
                "NoiseModel"),
    "harness": ("ExperimentConfig", "RunStatistics", "emit_results", "run_experiment"),
    "network": ("StarSessionResult", "Topology", "run_star_session"),
    "protocol": ("AllErasuresError", "DerivationRecord", "LinkSettings", "PreparationRecord", "RunConfig",
                 "SessionResult", "alice_measure", "alice_prepare", "bob_build_key_message", "bob_encode", "majority",
                 "resolve_erasures", "run_session"),
    "qubit": ("Basis", "ConfigError", "QubitRegister"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = [*_LAYER_OF, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name):
    """Import the layer that defines `name` and keep the value here, so that later reads skip this call."""
    layer = name if name in _EXPORTS else _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # What `from twoway_qkd.<layer> import <name>` calls; -X importtime lists this, not importlib.import_module.
    module = __import__(f"{__name__}.{layer}", fromlist=[name])
    if name == layer:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
