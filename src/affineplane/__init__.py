"""Finite affine planes, translation groups and their endomorphism rings.

Everything is verified exhaustively on concrete finite instances: the
plane axioms, the group structure of translations, and the associative
unitary ring of trace-preserving endomorphisms.

The names below load their submodule on first access (PEP 562), so
``import affineplane`` loads none of them and a command pays only for
the stages it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "builder": ("build_prime_plane", "is_prime"),
    "collineation": (
        "ClassifiedMap", "classify", "enumerate_dilations", "fixed_points",
        "is_collineation", "is_dilation", "is_translation",
    ),
    "endo": (
        "GroupSelfMap", "RingReport", "add", "check_ring_axioms", "compose",
        "count_endomorphisms", "enumerate_endomorphisms", "enumerate_tp_endomorphisms",
        "inversion_endo", "is_endomorphism", "is_trace_preserving", "negate",
        "scalar_labeling", "unit_endo", "zero_endo",
    ),
    "incidence": (
        "AxiomReport", "DirectionPartition", "IncidencePlane", "load_plane",
        "parallel_partition", "verify_axioms",
    ),
    "transgroup": (
        "CheckResult", "TranslationGroup", "build_group", "check_abelian",
        "check_composition_direction", "check_conjugation", "check_conjugation_direction",
        "check_normal_in_dilations", "generators",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted([*globals(), *__all__])
