"""Finite affine planes, translation groups and their endomorphism rings.

Everything is verified exhaustively on concrete finite instances: the
plane axioms, the group structure of translations, and the associative
unitary ring of trace-preserving endomorphisms.

The names below load their submodule on first access (PEP 562), so
``import affineplane`` loads none of them and a command pays only for
the stages it runs.  Submodules forward the names they hand to a module
of their own the same way (_forward).
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {  # submodule -> the names it defines, as namedtuple takes its fields
    "builder": "build_prime_plane is_prime prime_plane_document",
    "collineation": "ClassifiedMap fixed_points",
    "conjugation": "check_composition_direction check_conjugation",
    "definitions": "add check_conjugation_direction check_normal_in_dilations classify compose"
                   " enumerate_dilations inversion_endo is_collineation is_dilation"
                   " is_trace_preserving is_translation negate scalar_labeling unit_endo"
                   " zero_endo",
    "endo": "GroupSelfMap RingReport check_ring_axioms count_endomorphisms is_endomorphism"
            " tp_endomorphisms",
    "incidence": "AxiomReport DirectionPartition IncidencePlane load_plane parallel_partition"
                 " verify_axioms",
    "search": "enumerate_endomorphisms enumerate_tp_endomorphisms",
    "transgroup": "CheckResult TranslationGroup build_group check_abelian generators",
}
__all__ = [name for names in _EXPORTS.values() for name in names.split()]


def _forward(owner, names_of):
    """The module __getattr__ (PEP 562) of the module named owner: a name
    of names_of, submodule -> its names as namedtuple takes its fields, is
    read from that submodule, which loads on first access."""
    module_of = {name: module for module, names in names_of.items() for name in names.split()}

    def __getattr__(name):
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {owner!r} has no attribute {name!r}")
        return getattr(import_module(f".{module}", __name__), name)

    return __getattr__


__getattr__ = _forward(__name__, _EXPORTS)


def __dir__():
    return sorted([*globals(), *__all__])
