import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcm_dilate.errors import ResourceCapError, SpecMismatchError
from lcm_dilate.semigroup import (
    FreeAbelian,
    FreeMonoid,
    semigroup_from_json,
)

FM2 = FreeMonoid(2)
FM3 = FreeMonoid(3)
FA2 = FreeAbelian(2)

words2 = st.lists(st.integers(1, 2), max_size=5).map(tuple)
words3 = st.lists(st.integers(1, 3), max_size=4).map(tuple)
vecs2 = st.tuples(st.integers(0, 4), st.integers(0, 4))


# ---------------------------------------------------------------------------
# oracles: the per-class count, enumeration and foundation-set test that the
# derived Semigroup methods replaced
# ---------------------------------------------------------------------------


def oracle_count_up_to(sg, depth):
    if isinstance(sg, FreeAbelian):
        return (depth + 1) ** sg.rank
    if sg.rank == 1:
        return depth + 1
    return (sg.rank ** (depth + 1) - 1) // (sg.rank - 1)


def oracle_enumerate_up_to(sg, depth):
    if isinstance(sg, FreeAbelian):
        vs = itertools.product(range(depth + 1), repeat=sg.rank)
        return sorted(vs, key=lambda v: (max(v), v))
    return [w for n in range(depth + 1)
            for w in itertools.product(range(1, sg.rank + 1), repeat=n)]


def oracle_is_foundation_set(sg, fs):
    if isinstance(sg, FreeAbelian):
        return True     # directed: any pair has an upper bound
    max_len = max(len(f) for f in fs)
    return all(any(w[: len(f)] == f for f in fs)
               for w in itertools.product(range(1, sg.rank + 1), repeat=max_len))


FAMILIES = [cls(rank) for cls in (FreeMonoid, FreeAbelian) for rank in (1, 2, 3)]


@pytest.mark.parametrize("sg", FAMILIES, ids=repr)
def test_enumeration_matches_the_per_class_oracle(sg):
    for depth in range(4 if sg.rank == 3 else 6):
        assert sg.enumerate_up_to(depth) == oracle_enumerate_up_to(sg, depth)


@pytest.mark.parametrize("sg", FAMILIES, ids=repr)
def test_enumeration_cap_matches_the_per_class_count(sg):
    # the per-class code refused exactly when its count exceeded the cap
    total = oracle_count_up_to(sg, 3)
    assert len(sg.enumerate_up_to(3, cap=total)) == total
    with pytest.raises(ResourceCapError):
        sg.enumerate_up_to(3, cap=total - 1)


@pytest.mark.parametrize("sg", FAMILIES, ids=repr)
def test_foundation_test_matches_the_per_class_oracle(sg):
    pool = [p for p in sg.enumerate_up_to(2) if sg.length(p) >= 1]
    for size in (1, 2, 3):
        for fs in itertools.combinations(pool, size):
            assert sg.is_foundation_set(fs) == oracle_is_foundation_set(sg, fs), fs


def test_multiply_examples():
    assert FM2.multiply((1, 2), (1,)) == (1, 2, 1)
    assert FA2.multiply((1, 0), (0, 1)) == (1, 1)
    assert FM2.multiply(FM2.identity, (2, 1)) == (2, 1)
    assert FA2.multiply(FA2.identity, (3, 2)) == (3, 2)


def test_lcm_examples():
    assert FA2.lcm((1, 0), (0, 1)) == (1, 1)
    assert FM2.lcm((1,), (2,)) is None
    assert FM2.lcm((1,), (1, 2)) == (1, 2)


def test_left_divide_examples():
    assert FM2.left_divide((1,), (1, 2, 2)) == (2, 2)
    assert FA2.left_divide((1, 1), (2, 1)) == (1, 0)
    assert FM2.left_divide((2,), (1, 2)) is None


def test_enumerate_examples():
    assert FM2.enumerate_up_to(1) == [(), (1,), (2,)]
    assert len(FA2.enumerate_up_to(1)) == 4
    # geometric-sum oracle for the ternary tree
    brute = {w for n in range(3) for w in itertools.product((1, 2, 3), repeat=n)}
    assert len(FM3.enumerate_up_to(2)) == len(brute) == (3 ** 3 - 1) // 2


def test_enumerate_is_graded_and_deterministic():
    for sg in (FM2, FA2):
        elems = sg.enumerate_up_to(3)
        lengths = [sg.length(p) for p in elems]
        assert lengths == sorted(lengths)
        assert elems == sg.enumerate_up_to(3)
        assert len(set(elems)) == len(elems)


def test_enumerate_resource_guard():
    with pytest.raises(ResourceCapError):
        FreeMonoid(2).enumerate_up_to(10, cap=100)


def test_enumerate_is_built_once_per_depth_and_cap():
    sg = FreeMonoid(2)
    elems = sg.enumerate_up_to(3)
    assert sg.enumerate_up_to(3) is elems
    assert sg.enumerate_up_to(3, cap=len(elems)) == elems
    with pytest.raises(ResourceCapError):
        sg.enumerate_up_to(3, cap=len(elems) - 1)
    with pytest.raises(ResourceCapError):      # a refusal is not remembered
        sg.enumerate_up_to(3, cap=len(elems) - 1)
    assert sg.enumerate_up_to(3) is elems


def test_foundation_examples():
    assert FM2.is_foundation_set([(1,), (2,)])
    assert not FM2.is_foundation_set([(1,)])  # (2,) witnesses
    assert FA2.is_foundation_set([(5, 0)])
    with pytest.raises(SpecMismatchError):
        FM2.is_foundation_set([])


def test_foundation_monotone():
    base = [(1, 1), (1, 2), (2,)]
    assert FM2.is_foundation_set(base)
    for extra in [(1,), (2, 2), (2, 1)]:
        assert FM2.is_foundation_set(base + [extra])


def test_foundation_deeper_cases():
    # all words of length 2 form a foundation set; dropping one breaks it
    full = list(itertools.product((1, 2), repeat=2))
    assert FM2.is_foundation_set(full)
    assert not FM2.is_foundation_set(full[:-1])
    # mixed lengths: {1, 21, 22} covers everything
    assert FM2.is_foundation_set([(1,), (2, 1), (2, 2)])
    assert not FM2.is_foundation_set([(1,), (2, 1)])


@given(p=words2, q=words2)
@settings(derandomize=True, database=None)
def test_monoid_lcm_properties(p, q):
    r = FM2.lcm(p, q)
    assert r == FM2.lcm(q, p)
    assert FM2.lcm(p, p) == p
    assert FM2.lcm(FM2.identity, p) == p
    if r is not None:
        dp, dq = FM2.left_divide(p, r), FM2.left_divide(q, r)
        assert dp is not None and dq is not None
        assert FM2.multiply(p, dp) == r


@given(p=vecs2, q=vecs2)
@settings(derandomize=True, database=None)
def test_abelian_lcm_properties(p, q):
    r = FA2.lcm(p, q)
    assert r == FA2.lcm(q, p)
    assert FA2.lcm(p, p) == p
    assert FA2.lcm(FA2.identity, p) == p
    assert FA2.multiply(p, FA2.left_divide(p, r)) == r
    # the grading is lcm-compatible
    assert FA2.length(r) <= max(FA2.length(p), FA2.length(q))


@given(p=words2, q=words2, r=words2)
@settings(derandomize=True, database=None)
def test_monoid_left_invariance(p, q, r):
    lhs = FM2.lcm(FM2.multiply(r, p), FM2.multiply(r, q))
    rhs = FM2.lcm(p, q)
    if rhs is None:
        assert lhs is None
    else:
        assert lhs == FM2.multiply(r, rhs)


@given(p=vecs2, q=vecs2, r=vecs2)
@settings(derandomize=True, database=None)
def test_abelian_left_invariance(p, q, r):
    lhs = FA2.lcm(FA2.multiply(r, p), FA2.multiply(r, q))
    assert lhs == FA2.multiply(r, FA2.lcm(p, q))


@given(p=words3, q=words3, r=words3)
@settings(derandomize=True, database=None)
def test_monoid_associative(p, q, r):
    assert FM3.multiply(FM3.multiply(p, q), r) == FM3.multiply(p, FM3.multiply(q, r))


@given(p=vecs2)
@settings(derandomize=True, database=None)
def test_abelian_word_factorization(p):
    acc = FA2.identity
    for letter in FA2.as_word(p):
        acc = FA2.multiply(acc, FA2.generators[letter - 1])
    assert acc == p


def test_counts():
    assert oracle_count_up_to(FM2, 3) == len(FM2.enumerate_up_to(3)) == 15
    assert oracle_count_up_to(FA2, 2) == len(FA2.enumerate_up_to(2)) == 9
    assert len(FreeMonoid(1).enumerate_up_to(4)) == 5


def test_json_roundtrip():
    for sg in (FM2, FA2, FM3):
        back = semigroup_from_json({"kind": sg.kind, "rank": sg.rank})
        assert type(back) is type(sg) and back.rank == sg.rank
    with pytest.raises(SpecMismatchError):
        semigroup_from_json({"kind": "braid", "rank": 3})


def test_validate_element():
    with pytest.raises(SpecMismatchError):
        FA2.validate_element((1,))
    with pytest.raises(SpecMismatchError):
        FA2.validate_element((-1, 0))
    with pytest.raises(SpecMismatchError):
        FreeMonoid(0)
