"""Normal-form engine for the amalgamated product.

Soundness: words equal by relator insertion get the same normal form.
Separation: distinct normal forms multiply out to distinct elements,
witnessed by the finite permutation quotients in tests/quotients.json.
The normal-form map is also checked to be a homomorphism, which pins
the multiplication law against the letter action used to compute it.
"""

import random
import re

import pytest

from finite_quotients import image
from goeritz import amalgam
from goeritz.amalgam import (
    DEFAULT_RELATORS,
    NormalForm,
    are_equal,
    inv_nf,
    invert_word,
    mul_nf,
    nf_to_word,
    normal_form,
    parse,
    random_consequence,
    random_word,
    verify_presentation,
)
from goeritz.stabilizers import EDGE_GA


def test_parse_expands_macros():
    assert parse("a") == "bgBg"
    assert parse("t") == "bgBg"
    assert parse("bD") == "bD"
    assert parse("") == ""


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse("q")


def test_invert_word():
    assert invert_word("bgd") == "DgB"
    assert normal_form(parse("a") + invert_word(parse("a"))).is_identity()


def test_identity_and_single_letters():
    assert normal_form("") == NormalForm()
    assert str(normal_form("b")) == "P(b^1) | tail=1"
    assert str(normal_form("d")) == "Q(d^1) | tail=1"
    assert str(normal_form("g")) == "tail=g"
    assert str(normal_form(parse("a"))) == "tail=a"


def test_known_normal_forms():
    assert str(normal_form("bd")) == "P(b^1) Q(d^1) | tail=1"
    assert str(normal_form("db")) == "Q(d^1) P(b^1) | tail=1"
    assert str(normal_form("gg")) == "tail=1"
    assert str(normal_form("bB")) == "tail=1"
    # g slides through d up to inverting it
    assert are_equal("gd", "Dg")
    # g conjugates b to b times the central involution
    assert are_equal("gb", parse("bt") + "g")


def test_relators_normalize_to_identity():
    for name, word in DEFAULT_RELATORS:
        assert normal_form(word).is_identity(), name


def test_central_letters_commute_with_everything():
    rng = random.Random(0)
    for _ in range(100):
        w = random_word(rng, rng.randint(0, 12))
        assert are_equal(parse("a") + w, w + parse("a"))


def test_normal_form_is_homomorphic():
    rng = random.Random(1)
    for _ in range(300):
        u = random_word(rng, rng.randint(0, 15))
        v = random_word(rng, rng.randint(0, 15))
        assert normal_form(u + v) == mul_nf(normal_form(u), normal_form(v))


def test_inverse_normal_form():
    rng = random.Random(2)
    for _ in range(300):
        u = random_word(rng, rng.randint(0, 15))
        nf = normal_form(u)
        assert mul_nf(nf, inv_nf(nf)) == NormalForm()
        assert mul_nf(inv_nf(nf), nf) == NormalForm()
        assert inv_nf(nf) == normal_form(invert_word(u))


def test_nf_to_word_roundtrip():
    rng = random.Random(3)
    for _ in range(300):
        nf = normal_form(random_word(rng, rng.randint(0, 20)))
        assert normal_form(nf_to_word(nf)) == nf


def test_relator_insertion_soundness():
    rng = random.Random(4)
    for _ in range(500):
        w = random_word(rng, rng.randint(0, 20))
        cut = rng.randint(0, len(w))
        padded = w[:cut] + random_consequence(rng, max_len=60) + w[cut:]
        assert are_equal(w, padded)


def test_relators_act_trivially_in_the_finite_quotients():
    for name, word in DEFAULT_RELATORS:
        assert image(word) == image(""), name


def test_separation_of_distinct_normal_forms():
    # distinct normal forms must be distinct elements: a finite quotient
    # in which their permutation images differ witnesses that
    rng = random.Random(5)
    words = [random_word(rng, rng.randint(0, 12)) for _ in range(300)]
    by_nf = {}
    for w in words:
        by_nf.setdefault(str(normal_form(w)), []).append(w)
    keys = sorted(by_nf)
    checked = 0
    for i in range(len(keys) - 1):
        u, v = by_nf[keys[i]][0], by_nf[keys[i + 1]][0]
        assert image(u) != image(v), (u, v)
        checked += 1
    assert checked >= 50


def test_syllable_and_normal_form_validation():
    with pytest.raises(ValueError, match="^pair syllable with zero power$"):
        NormalForm((("P", 0),))
    with pytest.raises(ValueError, match="^triple syllable power must be 1 or 2, got 3$"):
        NormalForm((("Q", 3),))
    with pytest.raises(ValueError, match=r"^syllables do not alternate: P\(b\^1\) P\(b\^2\)$"):
        NormalForm((("P", 1), ("P", 2)))
    with pytest.raises(ValueError, match="^unknown factor 'R'$"):
        NormalForm((("R", 1),))


@pytest.mark.parametrize("syllable, shown", [
    (("P", 1.5), "1.5 of type float"),
    (("P", "x"), "'x' of type str"),
    (("P", True), "True of type bool"),
    (("Q", 1.0), "1.0 of type float"),
    (("Q", False), "False of type bool"),
    (("P", None), "None of type NoneType"),
])
def test_syllable_powers_must_be_ints(syllable, shown):
    message = f"^syllable power must be an int, got {shown}$"
    with pytest.raises(ValueError, match=message):
        NormalForm((syllable,))
    with pytest.raises(ValueError, match=message):
        amalgam.check_syllables((syllable,))
    # the faults of each syllable come before alternation
    with pytest.raises(ValueError, match=message):
        NormalForm((("P", 1), ("P", 2), syllable))


# each was accepted, or failed to unpack with no word of the syllable:
# a list syllable made a NormalForm that hash() refused
@pytest.mark.parametrize("syllables, shown", [
    ([["Q", 1]], "['Q', 1]"),
    (("Q", 1), "'Q'"),
    ((("Q", 1, 2),), "('Q', 1, 2)"),
    ((("P",),), "('P',)"),
    (((),), "()"),
    ((None,), "None"),
    ((("P", 1), ["Q", 1]), "['Q', 1]"),
])
def test_syllables_must_be_pairs_in_tuples(syllables, shown):
    message = rf"^syllable must be a \(side, power\) tuple, got {re.escape(shown)}$"
    with pytest.raises(ValueError, match=message):
        NormalForm(syllables)
    with pytest.raises(ValueError, match=message):
        amalgam.check_syllables(tuple(syllables))
    # the faults of each syllable come before alternation
    with pytest.raises(ValueError, match=message):
        NormalForm((("Q", 1), ("Q", 2), *syllables))


def test_an_int_subclass_power_is_refused_too():
    class Power(int):
        pass

    with pytest.raises(ValueError, match=r"^syllable power must be an int, got 1 of type Power$"):
        NormalForm((("P", Power(1)),))


def test_normal_form_checks_the_type_of_its_tail():
    with pytest.raises(TypeError, match="^tail must be an EdgeStabilizer, not str$"):
        NormalForm((), "ga")
    with pytest.raises(TypeError, match="^tail must be an EdgeStabilizer, not tuple$"):
        NormalForm((("P", 1),), (1, 0))
    with pytest.raises(TypeError, match="^tail must be an EdgeStabilizer, not NoneType$"):
        NormalForm((), None)
    assert NormalForm((("P", 1),), EDGE_GA).tail is EDGE_GA


def test_list_built_normal_form_is_the_tuple_built_one():
    listed = NormalForm([("P", 1), ("Q", 1)])
    assert listed == normal_form("bd")
    assert hash(listed) == hash(normal_form("bd"))
    assert type(listed.syllables) is tuple
    rng = random.Random(8)
    for _ in range(200):
        u = normal_form(random_word(rng, rng.randint(0, 20)))
        v = normal_form(random_word(rng, rng.randint(0, 20)))
        u_list = NormalForm(list(u.syllables), u.tail)
        v_list = NormalForm(list(v.syllables), v.tail)
        assert mul_nf(u_list, v_list) == mul_nf(u, v)
        assert mul_nf(u_list, v) == mul_nf(u, v_list) == mul_nf(u, v)
        assert inv_nf(u_list) == inv_nf(u)
    with pytest.raises(ValueError, match="^pair syllable with zero power$"):
        NormalForm([("P", 0)])


def test_alternation_invariant_holds_on_random_words():
    rng = random.Random(6)
    for _ in range(300):
        nf = normal_form(random_word(rng, rng.randint(0, 25)))
        factors = [side for side, _ in nf.syllables]
        for left, right in zip(factors, factors[1:]):
            assert left != right


def test_random_consequence_is_trivial_and_bounded():
    rng = random.Random(7)
    for _ in range(200):
        w = random_consequence(rng, max_len=80)
        assert len(w) <= 80
        assert normal_form(w).is_identity()


def test_verify_presentation_report():
    report = verify_presentation(consequences=100, max_len=100, seed=0)
    assert report.ok
    assert len(report.relator_results) == 6
    assert report.consequences_checked == 100
    assert report.consequence_failures == []


def test_verify_presentation_rejects_a_negative_consequence_count():
    # a report of -1 checks would claim work that never ran
    with pytest.raises(ValueError, match="^consequences must be >= 0$"):
        verify_presentation(consequences=-1)
    assert verify_presentation(consequences=0).consequences_checked == 0


# pairs that differ in one invariant of the normal form each: the g bit,
# the a bit, the b-power sum and the d-power sum mod 3
SEPARATED_BY_ONE_INVARIANT = [("g", ""), ("a", ""), ("b", "B"), ("d", "D"), ("ddd", "d")]
# the same four invariants, yet unequal
UNEQUAL_WITH_THE_SAME_INVARIANTS = [("bd", "db")]
# equal, though the raw words differ in the g bit or the d count
EQUAL_THROUGH_THE_G_PASS = [("gdg", "D"), ("gbg", "tb"), ("gdgd", ""), ("ddd", ""), ("gdddg", "")]


@pytest.mark.parametrize("u, v", SEPARATED_BY_ONE_INVARIANT + UNEQUAL_WITH_THE_SAME_INVARIANTS)
def test_pinned_unequal_pairs(u, v):
    assert not are_equal(u, v)
    assert not are_equal(v, u)
    assert normal_form(u) != normal_form(v)


@pytest.mark.parametrize("u, v", EQUAL_THROUGH_THE_G_PASS)
def test_pinned_equal_pairs(u, v):
    assert are_equal(u, v)
    assert are_equal(v, u)
    assert normal_form(u) == normal_form(v)


def test_are_equal_reports_the_first_bad_word():
    with pytest.raises(ValueError, match="^invalid character 'x'; expected one of 'bBgdDat'$"):
        are_equal("bx", "q")
    with pytest.raises(ValueError, match="^invalid character 'q'; expected one of 'bBgdDat'$"):
        are_equal("b", "q")
    with pytest.raises(TypeError, match="^word must be a string, not int$"):
        are_equal(1, "b")
    with pytest.raises(TypeError, match="^word must be a string, not NoneType$"):
        are_equal("b", None)
