import pytest

from affineplane import (
    ClassifiedMap,
    TranslationGroup,
    build_group,
    build_prime_plane,
    check_abelian,
    check_composition_direction,
    check_conjugation_direction,
    check_normal_in_dilations,
    enumerate_dilations,
    generators,
    load_plane,
    verify_axioms,
)
from affineplane.errors import MissingIdentity, NotClosed, NotTranslation
from affineplane.transgroup import compose_images

from conftest import ag29_document, identity_map


def element_order(g, i):
    """The least k >= 1 with element i to the power k the identity, from the Cayley table."""
    k, x = 1, i
    while x != 0:
        x = g.cayley[x][i]
        k += 1
    return k


class TestBuildGroup:
    @pytest.mark.parametrize("p,order", [(2, 4), (3, 9), (5, 25)])
    def test_orders(self, groups, p, order):
        assert groups[p].order == order

    def test_identity_first_and_neutral(self, groups):
        for g in groups.values():
            assert g.elements[0].is_identity
            for j in range(g.order):
                assert g.cayley[0][j] == j == g.cayley[j][0]

    def test_inverses(self, groups):
        for g in groups.values():
            for i in range(g.order):
                assert g.cayley[i][g.inverse[i]] == 0

    def test_klein_group_is_self_inverse(self, groups):
        assert groups[2].inverse == (0, 1, 2, 3)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_nonidentity_element_has_order_p(self, groups, p):
        g = groups[p]
        assert all(element_order(g, i) == p for i in range(1, g.order))

    def test_missing_identity_rejected(self, p2, translations):
        without_id = [f for f in translations[2] if not f.is_identity]
        with pytest.raises(MissingIdentity):
            build_group(p2, without_id)

    def test_unclosed_list_rejected(self, p3, translations):
        shift = next(f for f in translations[3] if not f.is_identity)
        with pytest.raises(NotClosed):
            build_group(p3, [identity_map(p3), shift])

    @pytest.mark.parametrize("kind", ["general", "collineation", "dilation"])
    def test_element_not_classified_as_translation_rejected(self, p3, translations, kind):
        # the Cayley keys (f(0), f(1)) name a composite only among dilations
        swap = (1, 0) + tuple(range(2, 9))
        posing = ClassifiedMap(swap, kind, frozenset(range(2, 9)))
        with pytest.raises(NotTranslation, match=kind):
            build_group(p3, [*translations[3], posing])

    @pytest.mark.parametrize(
        "document",
        [lambda: build_prime_plane(3).to_document(), ag29_document],
        ids=["AG(2,3)", "AG(2,9)"],
    )
    def test_index_of_an_image_with_a_listed_key(self, document):
        # the conjugation oracles call index_of too, so they cannot see a
        # lookup that trusts the key (f(0), f(1)) alone
        plane = load_plane(document())
        assert verify_axioms(plane).all_pass
        g = build_group(plane, [f for f in enumerate_dilations(plane) if f.kind == "translation"])
        for i, f in enumerate(g.elements):
            assert g.index_of(f.image) == i
            image = list(f.image)
            image[2], image[-1] = image[-1], image[2]
            assert g.index_of(tuple(image)) is None


class TestChecks:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_abelian(self, groups, p):
        assert check_abelian(groups[p]).passed

    def test_corrupted_cayley_table_fails_with_witness(self, groups):
        g = groups[3]
        cayley = [list(row) for row in g.cayley]
        cayley[1][2] = (cayley[1][2] + 1) % g.order
        bad = TranslationGroup(g.elements, tuple(tuple(r) for r in cayley), g.inverse, g.direction_of)
        result = check_abelian(bad)
        assert not result.passed
        assert result.witness == (1, 2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_normal_in_dilations(self, groups, dilations, p):
        assert check_normal_in_dilations(groups[p], dilations[p]).passed

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_conjugation_preserves_direction(self, groups, dilations, p):
        assert check_conjugation_direction(groups[p], dilations[p]).passed

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_composition_preserves_shared_direction(self, groups, p):
        assert check_composition_direction(groups[p]).passed

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_conjugation_permutes_the_group(self, groups, dilations, p):
        g = groups[p]
        for delta in dilations[p]:
            inv = [0] * len(delta.image)
            for a, b in enumerate(delta.image):
                inv[b] = a
            conjugates = {
                g.index_of(
                    compose_images(tuple(inv), compose_images(f.image, delta.image))
                )
                for f in g.elements
            }
            assert conjugates == set(range(g.order))


def span(g, gens):
    """The subgroup gens generate: saturate {0} under left products by gens."""
    closed, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = g.cayley[s][x]
            if y not in closed:
                closed.add(y)
                frontier.append(y)
    return closed


class TestGenerators:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_rank_two_and_saturation(self, groups, p):
        g = groups[p]
        gens = generators(g)
        assert len(gens) == 2
        assert span(g, gens) == set(range(g.order))

    def test_trivial_group(self, p2):
        g = build_group(p2, [identity_map(p2)])
        assert generators(g) == []
