"""Finite affine planes, translation groups and their endomorphism rings.

Everything is verified exhaustively on concrete finite instances: the
plane axioms, the group structure of translations, and the associative
unitary ring of trace-preserving endomorphisms.
"""

__version__ = "0.1.0"

from .builder import build_prime_plane, intersect, is_prime
from .collineation import (
    ClassifiedMap,
    classify,
    direction,
    enumerate_collineations,
    enumerate_dilations,
    enumerate_translations,
    fixed_points,
    identity_map,
    is_collineation,
    is_dilation,
    is_translation,
    trace,
)
from .endo import (
    GroupSelfMap,
    RingReport,
    add,
    check_ring_axioms,
    compose,
    count_endomorphisms,
    enumerate_endomorphisms,
    enumerate_tp_endomorphisms,
    inversion_endo,
    is_endomorphism,
    is_trace_preserving,
    negate,
    scalar_labeling,
    unit_endo,
    zero_endo,
)
from .incidence import (
    AxiomReport,
    DirectionPartition,
    IncidencePlane,
    line_through,
    load_plane,
    parallel,
    parallel_partition,
    parallel_through_point,
    verify_axioms,
)
from .transgroup import (
    CheckResult,
    TranslationGroup,
    build_group,
    check_abelian,
    check_composition_direction,
    check_conjugation,
    check_conjugation_direction,
    check_normal_in_dilations,
    generators,
)
