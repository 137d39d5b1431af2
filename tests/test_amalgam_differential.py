"""Differential test: the left-to-right rewriting loop of goeritz.amalgam
against the former right-to-left rewriter kept in tests/amalgam_reference.py.

The two share only the NormalForm class (whose syllables are plain
(side, power) tuples), not the parsing or the rewriting: the reference
keeps its own copy of the former per-character parse.  Normal forms are
unique, so any disagreement on a syllable or on the tail is a defect in
one of them.
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
