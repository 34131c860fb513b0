"""Endomorphisms of the translation group and their ring structure.

A self-map of the group is a dense index table over the canonical
element order.  Addition is pointwise composition of the images,
multiplication is composition of the maps.  The trace-preserving maps
are the ones that keep every translation inside its own direction; on
them the two operations are checked, exhaustively, to form an
associative unitary ring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import NotEndomorphism, OrderTooLarge, SizeMismatch
from .incidence import IncidencePlane
from .transgroup import (
    TranslationGroup,
    _element_words,  # re-exported: callers import it from endo
    extend_along_words,
    generators,
)

DEFAULT_MAX_GROUP = 49


@dataclass
class GroupSelfMap:
    """A total map on the translation group, as an element-index table.

    The endomorphism and trace-preservation flags are memoized tri-state:
    None until computed by the corresponding predicate.
    """

    table: tuple[int, ...]
    is_endomorphism: Optional[bool] = None
    is_trace_preserving: Optional[bool] = None

    def __eq__(self, other):
        return isinstance(other, GroupSelfMap) and self.table == other.table

    def __hash__(self):
        return hash(self.table)


def _check_size(g: TranslationGroup, alpha: GroupSelfMap) -> None:
    if len(alpha.table) != g.order:
        raise SizeMismatch(
            f"table covers {len(alpha.table)} elements, group has {g.order}"
        )


def add(g: TranslationGroup, alpha: GroupSelfMap, beta: GroupSelfMap) -> GroupSelfMap:
    """(alpha + beta)(s) = alpha(s) o beta(s)."""
    _check_size(g, alpha)
    _check_size(g, beta)
    return GroupSelfMap(
        tuple(g.cayley[a][b] for a, b in zip(alpha.table, beta.table))
    )


def compose(g: TranslationGroup, alpha: GroupSelfMap, beta: GroupSelfMap) -> GroupSelfMap:
    """(alpha o beta)(s) = alpha(beta(s))."""
    _check_size(g, alpha)
    _check_size(g, beta)
    return GroupSelfMap(tuple(alpha.table[b] for b in beta.table))


def is_endomorphism(g: TranslationGroup, alpha: GroupSelfMap) -> bool:
    """Compatibility with the group operation, tested at the generators.

    Accepts iff t[0] = 0 and t[s.x] = t[s].t[x] for every generator s and
    every element x, which is equivalent to t[w.x] = t[w].t[x] at every
    pair (w, x).  Proof, by induction on the length of a word for w:
    every element is a positive word in the generators (each has finite
    order, so no inverse letters are needed).  The empty word is w = 0,
    and t[0.x] = t[x] = t[0].t[x] because t[0] = 0.  For w = s.v with s a
    generator, t[w.x] = t[s.(v.x)] = t[s].t[v.x] = t[s].t[v].t[x]
    = t[s.v].t[x], using the generator identity twice, the induction
    hypothesis once and associativity, which holds because the Cayley
    table records composition of permutations.  Cost: |G| lookups per
    generator instead of |G|^2.
    """
    _check_size(g, alpha)
    if alpha.is_endomorphism is None:
        t = alpha.table
        alpha.is_endomorphism = t[0] == 0 and all(
            t[sx] == g.cayley[t[s]][tx]
            for s in generators(g)
            for sx, tx in zip(g.cayley[s], t)
        )
    return alpha.is_endomorphism


def zero_endo(g: TranslationGroup) -> GroupSelfMap:
    """Sends every translation to the identity."""
    return GroupSelfMap((0,) * g.order, is_endomorphism=True, is_trace_preserving=True)


def unit_endo(g: TranslationGroup) -> GroupSelfMap:
    """Leaves every translation in place."""
    return GroupSelfMap(
        tuple(range(g.order)), is_endomorphism=True, is_trace_preserving=True
    )


def inversion_endo(g: TranslationGroup) -> GroupSelfMap:
    """Sends every translation to its inverse.

    An endomorphism because the group is abelian; trace-preserving
    because a translation and its inverse share their direction.
    """
    return GroupSelfMap(g.inverse, is_endomorphism=True, is_trace_preserving=True)


def negate(g: TranslationGroup, alpha: GroupSelfMap) -> GroupSelfMap:
    """Pointwise inverse of alpha: the composite of inversion with alpha."""
    if not is_endomorphism(g, alpha):
        raise NotEndomorphism("negate requires an endomorphism")
    return compose(g, inversion_endo(g), alpha)


def is_trace_preserving(
    plane: IncidencePlane, g: TranslationGroup, alpha: GroupSelfMap
) -> bool:
    """Every image keeps its translation's direction.

    Elements mapped to the identity are accepted: the identity has no
    direction, and the zero map must count as trace-preserving.
    """
    if not is_endomorphism(g, alpha):
        raise NotEndomorphism("trace preservation is defined for endomorphisms")
    if alpha.is_trace_preserving is None:
        alpha.is_trace_preserving = all(
            alpha.table[i] == 0 or g.direction_of[alpha.table[i]] == g.direction_of[i]
            for i in range(1, g.order)
        )
    return alpha.is_trace_preserving


def enumerate_endomorphisms(
    g: TranslationGroup, max_group: int = DEFAULT_MAX_GROUP
) -> list[GroupSelfMap]:
    """All endomorphisms, by choosing images for a generating set.

    Each element is written once as a word in the generators; a candidate
    generator assignment extends along those words and is kept only if
    the full table passes is_endomorphism, so non-extending assignments
    reject themselves.
    """
    if g.order > max_group:
        raise OrderTooLarge(
            f"endomorphism enumeration bounded to group order {max_group}, "
            f"got {g.order}"
        )
    gens = generators(g)
    if not gens:
        return [GroupSelfMap((0,), is_endomorphism=True)]

    out = []
    for images in itertools.product(range(g.order), repeat=len(gens)):
        alpha = GroupSelfMap(extend_along_words(g, images))
        if is_endomorphism(g, alpha):
            out.append(alpha)
    out.sort(key=lambda a: a.table)
    return out


def enumerate_tp_endomorphisms(
    plane: IncidencePlane, g: TranslationGroup, max_group: int = DEFAULT_MAX_GROUP
) -> list[GroupSelfMap]:
    return [
        a
        for a in enumerate_endomorphisms(g, max_group)
        if is_trace_preserving(plane, g, a)
    ]


@dataclass
class RingReport:
    """Outcome of the ring-axiom checks over a trace-preserving set.

    ``axioms`` maps axiom name -> (passed, witness or None); witnesses
    index into the checked list.  ``mul_commutative`` is informational,
    not part of the pass criterion.
    """

    axioms: dict
    mul_commutative: bool
    num_tp: int
    num_endomorphisms: Optional[int] = None

    AXIOM_NAMES = (
        "add_closure",
        "add_associative",
        "add_identity",
        "add_inverses",
        "add_commutative",
        "mul_closure",
        "mul_associative",
        "left_distributive",
        "right_distributive",
        "mul_identity",
    )

    @property
    def all_pass(self) -> bool:
        return all(self.axioms[name][0] for name in self.AXIOM_NAMES)

    def to_dict(self) -> dict:
        return {
            "axioms": {
                name: {
                    "passed": passed,
                    **({"witness": list(witness)} if witness is not None else {}),
                }
                for name, (passed, witness) in self.axioms.items()
            },
            "mul_commutative": self.mul_commutative,
            "num_tp": self.num_tp,
            **(
                {"num_endomorphisms": self.num_endomorphisms}
                if self.num_endomorphisms is not None
                else {}
            ),
            "all_pass": self.all_pass,
        }


def check_ring_axioms(
    plane: IncidencePlane,
    g: TranslationGroup,
    tp: list[GroupSelfMap],
    num_endomorphisms: Optional[int] = None,
) -> RingReport:
    """Exhaustive ring-axiom scan over a list of trace-preserving maps.

    Failures are report content with a minimal witness, never exceptions,
    so deliberately broken fixtures can be inspected.
    """
    index = {a.table: i for i, a in enumerate(tp)}
    k = len(tp)
    zero = zero_endo(g)
    unit = unit_endo(g)
    inversion = inversion_endo(g)
    axioms: dict = {}

    def first_failure(pairs_or_triples, predicate):
        for item in pairs_or_triples:
            if not predicate(*item):
                return False, item
        return True, None

    pairs = list(itertools.product(range(k), repeat=2))
    triples = list(itertools.product(range(k), repeat=3))

    axioms["add_closure"] = first_failure(
        pairs, lambda i, j: add(g, tp[i], tp[j]).table in index
    )
    axioms["add_associative"] = first_failure(
        triples,
        lambda i, j, l: add(g, add(g, tp[i], tp[j]), tp[l]).table
        == add(g, tp[i], add(g, tp[j], tp[l])).table,
    )
    zi = index.get(zero.table)
    if zi is None:
        axioms["add_identity"] = (False, ("zero endomorphism missing",))
    else:
        axioms["add_identity"] = first_failure(
            [(i,) for i in range(k)],
            lambda i: add(g, tp[i], tp[zi]).table == tp[i].table
            and add(g, tp[zi], tp[i]).table == tp[i].table,
        )
    # the pointwise inverse, not negate(): that raises on a non-endomorphism
    axioms["add_inverses"] = first_failure(
        [(i,) for i in range(k)],
        lambda i: compose(g, inversion, tp[i]).table in index
        and add(g, tp[i], compose(g, inversion, tp[i])).table == zero.table,
    )
    axioms["add_commutative"] = first_failure(
        pairs, lambda i, j: add(g, tp[i], tp[j]).table == add(g, tp[j], tp[i]).table
    )
    axioms["mul_closure"] = first_failure(
        pairs, lambda i, j: compose(g, tp[i], tp[j]).table in index
    )
    axioms["mul_associative"] = first_failure(
        triples,
        lambda i, j, l: compose(g, compose(g, tp[i], tp[j]), tp[l]).table
        == compose(g, tp[i], compose(g, tp[j], tp[l])).table,
    )
    axioms["left_distributive"] = first_failure(
        triples,
        lambda i, j, l: compose(g, tp[i], add(g, tp[j], tp[l])).table
        == add(g, compose(g, tp[i], tp[j]), compose(g, tp[i], tp[l])).table,
    )
    axioms["right_distributive"] = first_failure(
        triples,
        lambda i, j, l: compose(g, add(g, tp[i], tp[j]), tp[l]).table
        == add(g, compose(g, tp[i], tp[l]), compose(g, tp[j], tp[l])).table,
    )
    ui = index.get(unit.table)
    if ui is None:
        axioms["mul_identity"] = (False, ("unit endomorphism missing",))
    else:
        axioms["mul_identity"] = first_failure(
            [(i,) for i in range(k)],
            lambda i: compose(g, tp[i], tp[ui]).table == tp[i].table
            and compose(g, tp[ui], tp[i]).table == tp[i].table,
        )

    mul_commutative, _ = first_failure(
        pairs, lambda i, j: compose(g, tp[i], tp[j]).table == compose(g, tp[j], tp[i]).table
    )

    return RingReport(
        axioms=axioms,
        mul_commutative=mul_commutative,
        num_tp=k,
        num_endomorphisms=num_endomorphisms,
    )


def scalar_labeling(g: TranslationGroup, tp: list[GroupSelfMap]) -> Optional[list[int]]:
    """Label the trace-preserving maps 0, 1, 1+1, ... when that covers them all.

    Returns labels[i] = k meaning tp[i] is the k-fold sum of the unit, or
    None when the scalar sums do not exhaust the list.  Used to compare
    the ring's tables with arithmetic modulo the label count.
    """
    index = {a.table: i for i, a in enumerate(tp)}
    unit = unit_endo(g)
    labels = [-1] * len(tp)
    current = zero_endo(g)
    for k in range(len(tp)):
        i = index.get(current.table)
        if i is None or labels[i] != -1:
            return None
        labels[i] = k
        current = add(g, current, unit)
    if current.table != zero_endo(g).table or -1 in labels:
        return None
    return labels
