"""Differential test: the left-to-right rewriting loop of goeritz.amalgam
against the former right-to-left rewriter kept in tests/amalgam_reference.py.

The two share only the NormalForm class (whose syllables are plain
(side, power) tuples), not the parsing or the rewriting: the reference
keeps its own copy of the former per-character parse.  Normal forms are
unique, so any disagreement on a syllable or on the tail is a defect in
one of them.  are_equal compares the normal forms of what two words
leave once their common ends are cancelled, so it is checked against
equality of the reference's normal forms on pairs of several shapes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amalgam_reference as ref
from goeritz import amalgam, tree

texts = st.text(alphabet="bBgdDat", max_size=80)


@given(texts, texts)
@settings(max_examples=500)
def test_rewriting_matches_reference(u, v):
    nu, nv = amalgam.normal_form(u), amalgam.normal_form(v)
    assert nu == ref.normal_form(u)  # syllables and tail
    assert amalgam.mul_nf(nu, nv) == ref.mul_nf(nu, nv)
    assert amalgam.inv_nf(nu) == ref.inv_nf(nu)


# relators in the word letters, written out here rather than taken from
# amalgam.DEFAULT_RELATORS (a is an involution, so [a,b] = abaB)
RELATORS = ("gg", "ddd", "DDD", "gdgd", "aa", "tt", "abaB", "adaD", "tbtB")


@st.composite
def _relator_inserted(draw):
    word = draw(texts)
    cut = draw(st.integers(0, len(word)))
    return word, word[:cut] + draw(st.sampled_from(RELATORS)) + word[cut:]


@st.composite
def _one_letter_changed(draw):
    word = draw(st.text(alphabet="bBgdDat", min_size=1, max_size=80))
    i = draw(st.integers(0, len(word) - 1))
    return word, word[:i] + draw(st.sampled_from("bBgdDat")) + word[i + 1:]


_macro_texts = st.text(alphabet="atbBd", max_size=40)
pairs = st.one_of(
    st.tuples(texts, texts),
    _relator_inserted(),
    _one_letter_changed(),
    texts.map(lambda w: (w, w.translate(str.maketrans("dD", "Dd")))),
    st.tuples(_macro_texts, _macro_texts),
)


@given(pairs)
@settings(max_examples=1000, deadline=None)
def test_are_equal_matches_reference(pair):
    u, v = pair
    assert amalgam.are_equal(u, v) == (ref.normal_form(u) == ref.normal_form(v))


def _ref_act(word, vertex):
    kind, rep = vertex
    moved = ref.mul_nf(ref.normal_form(word), amalgam.NormalForm(rep)).syllables
    own = "P" if kind == tree.PAIR else "Q"
    if moved and moved[-1][0] == own:
        moved = moved[:-1]
    return kind, moved


def _ref_act_edge(word, rep):
    return ref.mul_nf(ref.normal_form(word), amalgam.NormalForm(rep)).syllables


@pytest.fixture(scope="module")
def ball_3_2():
    return tree.ball(3, 2)


@given(st.text(alphabet="bBgdDat", max_size=12))
@settings(max_examples=30, deadline=None)
def test_tree_action_matches_reference(ball_3_2, word):
    for vertex in ball_3_2.vertices:
        assert tree.act(word, vertex) == _ref_act(word, vertex)
    for edge in ball_3_2.edges:
        assert tree.act_edge(word, edge) == _ref_act_edge(word, edge)
