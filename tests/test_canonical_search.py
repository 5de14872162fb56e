"""The depth-first canonicalizer and its no-choice fast path against the
orbit enumeration it replaced (``orbit_reference``) and against sympy's
``canon_bp``; its arrangement tables; its size and depth
guards; rule matching in the enumeration's order; and the open
mixed-variance defect, pinned."""

import random
import time
import tracemalloc
from fractions import Fraction
from itertools import permutations

import pytest

from indicial import Session, algebra
from indicial.algebra import SEARCH_CAP, canform, canonical_term, contract, decsym
from indicial.errors import CanformSizeError, ValidationError
from indicial.exprs import (
    Expression,
    Factor,
    InertDeriv,
    Term,
    ZERO,
    coarse_key,
    fac,
    structural_key,
    sub,
    validate,
)
from indicial.numeval import DEFAULT_POOL, random_expression
from indicial.printing import render_plain
from indicial.rules import (
    _match_factor,
    _pattern_arrangements,
    _pattern_matches,
    apply1,
    defrule,
    matchdeclare,
)

from conftest import ev, make_rng
from orbit_reference import _level_count, reference_canonical_term, reference_matches

ORBIT_LIMIT = 10_000


def make_session(metric: bool, symmetries: bool) -> Session:
    s = Session()
    if metric:
        s.set_metric("g")
    if symmetries:
        decsym(s, "T", 2, 0, [("anti", "all")], [])
        decsym(s, "S", 2, 0, [("sym", "all")], [])
        decsym(s, "F", 2, 0, [("anti", "all")], [])
        decsym(s, "R", 4, 0, [("anti", [1, 2]), ("anti", [3, 4])], [])
    return s


@pytest.fixture
def field_session():
    return make_session(metric=True, symmetries=True)


def mixed_chain(rng: random.Random, n: int) -> Term:
    """F_{x1}^{x2} F_{x2}^{x3} ... F_{xn}^{x1}, factors shuffled."""
    factors = [fac("F", cov=(f"x{i}",), contra=(f"x{(i + 1) % n}",))
               for i in range(n)]
    rng.shuffle(factors)
    return Term(Fraction(rng.choice([-3, 1, 2])), tuple(factors))


def explicit_chain(rng: random.Random, n: int) -> Term:
    """F_{u1 v1} g^{v1 u2} ... F_{un vn} g^{vn u1}: the chain written fully
    lowered with explicit metrics, slots and factors shuffled."""
    factors = []
    for i in range(n):
        pair = [f"u{i}", f"v{i}"]
        rng.shuffle(pair)
        factors.append(fac("F", cov=pair))
        link = [f"v{i}", f"u{(i + 1) % n}"]
        rng.shuffle(link)
        factors.append(fac("g", contra=link))
    rng.shuffle(factors)
    return Term(Fraction(1), tuple(factors))


def riemann_square(perm) -> Term:
    """R_{abcd} R^{perm(abcd)}."""
    labels = "abcd"
    return Term(Fraction(1), (fac("R", cov=tuple(labels)),
                              fac("R", contra=tuple(labels[k] for k in perm))))


def with_inert(rng: random.Random, t: Term) -> Term:
    """``t`` with some of its factors moved into an inert derivative."""
    chosen = set(rng.sample(range(len(t.factors)), rng.randint(1, len(t.factors))))
    body = tuple(f for i, f in enumerate(t.factors) if i in chosen)
    rest = tuple(f for i, f in enumerate(t.factors) if i not in chosen)
    if rng.random() < 0.5:
        rest += (fac("x", contra=("z",)),)  # the derivative index is a dummy
    return Term(t.coeff, (InertDeriv(body, "z"),) + rest)


def assert_matches_reference(session, terms):
    compared = 0
    mismatches = []
    for t in terms:
        if _level_count(session, t.factors) > ORBIT_LIMIT:
            continue
        compared += 1
        expected = reference_canonical_term(session, t)
        if canonical_term(session, t) != expected:
            mismatches.append(t)
    assert mismatches == []
    return compared


# --- the differential oracle ---------------------------------------------------


@pytest.mark.parametrize("metric", [True, False])
@pytest.mark.parametrize("symmetries", [True, False])
def test_search_equals_orbit_enumeration_on_random_terms(metric, symmetries):
    s = make_session(metric, symmetries)
    rng = make_rng(61 + 2 * metric + symmetries)
    py_rng = random.Random(61)
    pool = DEFAULT_POOL + (("R", 4),)
    terms = []
    for i in range(120):
        free = [(), (("u", False),), (("u", False), ("v", True))][i % 3]
        for t in random_expression(s, rng, free=free, max_factors=5, pool=pool).terms:
            terms.append(t)
            wrapped = with_inert(py_rng, t)
            try:
                terms.append(validate(wrapped))
            except ValidationError:
                pass
    assert assert_matches_reference(s, terms) > 300


def test_search_equals_orbit_enumeration_on_invariants(field_session):
    rng = random.Random(7)
    terms = [mixed_chain(rng, n) for n in range(3, 8)]
    terms += [explicit_chain(rng, n) for n in (2, 3) for _ in range(3)]
    terms += [riemann_square(p) for p in permutations(range(4))]
    assert assert_matches_reference(field_session, terms) == len(terms)


def test_search_weighs_few_arrangements(field_session, monkeypatch):
    weighed = []
    original = algebra._position_keys

    def counting(*args):
        weighed.append(1)
        return original(*args)

    monkeypatch.setattr(algebra, "_position_keys", counting)
    canonical_term(field_session, mixed_chain(random.Random(8), 8))
    assert 0 < len(weighed) < 500  # the orbit has 8! = 40,320 points


def no_choice_term(rng: random.Random) -> Term:
    """Distinct names, each with at most one derivative index, the declared
    ``A`` and ``B`` only in mixed variance (their blocks do not apply), some
    slots paired into dummies and the rest free, times ``phi^k``."""
    names = rng.sample(["A", "B", "P", "Q", "U", "V", "W"], rng.randint(1, 5))
    shapes = []
    for name in names:
        if name in "AB":
            ups = [False, True]
            rng.shuffle(ups)
        else:
            ups = [rng.random() < 0.5 for _ in range(rng.randint(0, 3))]
        shapes.append((name, ups, rng.random() < 0.4))
    sites = [(k, p, up) for k, (_, ups, deriv) in enumerate(shapes)
             for p, up in enumerate(ups + [False] * deriv)]
    rng.shuffle(sites)
    labels = {}
    count = 0
    for i, (k, p, up) in enumerate(sites):
        if (k, p) in labels:
            continue
        partner = next(((k2, p2) for k2, p2, up2 in sites[i + 1:]
                        if k2 != k and up2 != up and (k2, p2) not in labels), None)
        labels[k, p] = f"{'mnpqrs'[count % 6]}{count}"
        if partner is not None and rng.random() < 0.6:
            labels[partner] = labels[k, p]  # a dummy pair
        count += 1
    factors = []
    for k, (name, ups, deriv) in enumerate(shapes):
        slots = tuple((labels[k, p], up) for p, up in enumerate(ups))
        derivs = (labels[k, len(ups)],) if deriv else ()
        factors.append(Factor(name, slots, derivs))
    factors += [fac("phi")] * rng.randint(0, 3)
    rng.shuffle(factors)
    return validate(Term(Fraction(rng.choice([-2, 1, 3])), tuple(factors)))


def test_no_choice_terms_skip_the_search(monkeypatch):
    """The fast path weighs nothing and agrees with the orbit enumeration;
    a factor with two derivatives or with an applicable block still
    searches."""
    s = make_session(metric=True, symmetries=False)
    decsym(s, "A", 2, 0, [("anti", "all")], [])
    decsym(s, "B", 0, 2, [], [("sym", "all")])
    weighed = []
    original = algebra._position_keys

    def counting(*args):
        weighed.append(1)
        return original(*args)

    monkeypatch.setattr(algebra, "_position_keys", counting)
    rng = random.Random(14)
    for _ in range(300):
        t = no_choice_term(rng)
        assert canonical_term(s, t) == reference_canonical_term(s, t), t
    assert weighed == []
    controls = ["P([a],[],b,c)*x([],[a])", "A([a,b],[])*x([],[a])*y([],[b])",
                "B([],[a,b])*P([b],[],a)"]
    for text in controls:
        t = ev(text, s).terms[0]
        del weighed[:]
        assert canonical_term(s, t) == reference_canonical_term(s, t), text
        assert weighed, text


def test_a_table_is_shared_by_every_factor_of_one_shape(field_session):
    s = field_session
    f, g = fac("R", cov=("a", "b", "c", "d")), fac("R", cov=("p", "q", "r", "s"))
    assert algebra._table(s, f) is algebra._table(s, g)
    assert len(algebra._table(s, f)) == 4
    mixed = Factor("R", (("a", False), ("b", True), ("c", False), ("d", False)))
    assert len(algebra._table(s, mixed)) == 2  # the first block does not apply


def test_identical_factors_are_placed_once(field_session):
    """Ten copies of ``phi`` give one branch, not 10! equal ones."""
    t = ev("phi^10*x([m],[])*x([],[m])", field_session).terms[0]
    assert canonical_term(field_session, t) == reference_canonical_term(field_session, t)


def test_explicit_f5_vanishes(field_session):
    rng = random.Random(9)
    assert canform(field_session, Expression((explicit_chain(rng, 5),))).is_zero()
    assert not canform(field_session, Expression((explicit_chain(rng, 4),))).is_zero()


# --- sympy ----------------------------------------------------------------------


def test_zeros_and_classes_agree_with_sympy_canon_bp(field_session):
    """Uniform variance, where the two groups agree: sympy's index type is
    given no metric, so neither side swaps a dummy's slots."""
    pytest.importorskip("sympy")
    from sympy.tensor.tensor import (
        TensorHead,
        TensorIndexType,
        TensorSymmetry,
        canon_bp,
        tensor_indices,
    )

    L = TensorIndexType("L", dummy_name="L", metric_symmetry=0)
    heads = {
        "F": TensorHead("F", [L, L], TensorSymmetry.fully_symmetric(-2)),
        "g": TensorHead("g", [L, L], TensorSymmetry.fully_symmetric(2)),
        "R": TensorHead("R", [L] * 4, TensorSymmetry.direct_product(-2, -2)),
    }
    indices = {}

    def to_sympy(t):
        expr = 1
        for f in t.factors:
            args = []
            for lbl, up in f.slots:
                if lbl not in indices:
                    indices[lbl] = tensor_indices(lbl, L)
                args.append(indices[lbl] if up else -indices[lbl])
            expr = expr * heads[f.name](*args)
        return expr

    rng = random.Random(10)
    for n in range(2, 6):
        t = explicit_chain(rng, n)
        ours = canonical_term(field_session, t)
        assert (ours is None) == (canon_bp(to_sympy(t)) == 0), n
    # R_{abcd} R^{pi(abcd)}: equal canonical forms with the same relative
    # signs on both sides
    classes = {}
    for p in permutations(range(4)):
        t = riemann_square(p)
        key, rep = canonical_term(field_session, t)
        theirs = canon_bp(to_sympy(t))
        coeff, monomial = theirs.coeff, theirs / theirs.coeff
        classes.setdefault(key, set()).add((monomial, coeff * rep.coeff))
    assert len({m for members in classes.values() for m, _ in members}) == len(classes)
    for members in classes.values():
        assert len(members) == 1


# --- size and depth -------------------------------------------------------------


def test_product_of_2000_distinct_factors():
    s = Session()
    n = 2000
    t = Term(Fraction(1), tuple(
        fac(f"X{i}", cov=(f"a{i}",), contra=(f"a{(i + 1) % n}",)) for i in range(n)
    ))
    key, canon = canonical_term(s, t)
    assert len(canon.factors) == n
    assert canonical_term(s, canon) == (key, canon)


def test_ring_of_identical_factors_is_bounded():
    """200 interchangeable factors tie 200 ways at the first step; the cap
    stops the search instead of following every rotation."""
    s = Session()
    n = 200
    t = Term(Fraction(1), tuple(
        fac("x", cov=(f"a{i}",), contra=(f"a{(i + 1) % n}",)) for i in range(n)
    ))
    start = time.perf_counter()
    try:
        canonical_term(s, t)
    except CanformSizeError as exc:
        assert str(SEARCH_CAP) in str(exc)
    assert time.perf_counter() - start < 10


def test_oversized_factors_are_refused_without_listing_them():
    """An 11-slot block, eleven interchangeable factors in an inert body, or
    an inert body of two 7-slot blocks (5040**2 arrangements, listed only up
    to the cap) have more than SEARCH_CAP arrangements; long bodies of
    distinct factors and repeated identical ones are cheap."""
    s = Session()
    decsym(s, "T", 11, 0, [("sym", "all")], [])
    decsym(s, "U", 7, 0, [("sym", "all")], [])
    labels = [f"a{i}" for i in range(11)]
    vectors = tuple(fac("x", cov=(lbl,)) for lbl in labels)
    blocks = tuple(fac("U", cov=[f"{c}{i}" for i in range(7)]) for c in "bc")
    for t, message in (
        (Term(Fraction(1), (fac("T", cov=labels),)),
         f"a factor has 39916800 arrangements, over {SEARCH_CAP}"),
        (Term(Fraction(1), (InertDeriv(vectors, "m"),)),
         f"an inert body has 39916800 orders, over {SEARCH_CAP}"),
        (Term(Fraction(1), (InertDeriv(blocks, "m"),)),
         f"a factor has over {SEARCH_CAP} arrangements"),
    ):
        with pytest.raises(CanformSizeError) as caught:
            canonical_term(s, t)
        assert str(caught.value) == message
    long_body = tuple(fac(f"X{i}", cov=(f"b{i}",)) for i in range(1500))
    assert canonical_term(s, Term(Fraction(1), (InertDeriv(long_body, "m"),)))
    phis = (fac("phi"),) * 12 + (fac("x", cov=("m",)),)
    assert canonical_term(s, Term(Fraction(1), (InertDeriv(phis, "n"),)))


def test_inert_bodies_in_other_orders_are_interchangeable(field_session):
    """Two inert derivatives whose bodies list the same factors in other
    orders fall in one group, so the search exchanges them."""
    s = field_session
    a = ev("'covdiff(x([a],[])*y([],[a]),i)*'covdiff(y([],[b])*x([b],[]),j)", s)
    b = ev("'covdiff(y([],[a])*x([a],[]),i)*'covdiff(x([b],[])*y([],[b]),j)", s)
    assert render_plain(canform(s, a)) == "(x_{%1}*y^{%1})_{;i}*(x_{%2}*y^{%2})_{;j}"
    assert canform(s, b) == canform(s, a)
    assert canform(s, sub(a, b)) == ZERO
    # a body's order used to decide where its group went, so a second canform
    # could reorder the first one's factors
    c = canform(s, ev("'covdiff(y([],[a])*x([a],[]),i)"
                      "*'covdiff(x([b],[])*z([],[b]),j)", s))
    assert canform(s, c) == c


@pytest.mark.parametrize("inert", [False, True])
def test_oversized_shape_is_refused_before_listing_it(inert):
    """Two 7-slot ``sym`` blocks have 5040**2 arrangements, and an inert
    body of twelve vectors 12! orders: refused from their count, before a
    single one is built."""
    s = Session()
    decsym(s, "T", 14, 0, [("sym", list(range(1, 8))), ("sym", list(range(8, 15)))], [])
    if inert:
        vectors = tuple(fac("x", cov=(f"a{i}",)) for i in range(12))
        t = Term(Fraction(1), (InertDeriv(vectors, "m"),))
    else:
        t = Term(Fraction(1), (fac("T", cov=[f"a{i}" for i in range(14)]),))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(CanformSizeError):
            canonical_term(s, t)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1
    assert peak < 2_000_000


# --- rule matching ---------------------------------------------------------------


def distinct(matches):
    out = []
    for ratio, binding, rest in matches:
        item = (ratio, sorted(binding.items()), rest)
        if item not in out:
            out.append(item)
    return out


def test_pattern_matches_come_in_the_enumeration_order(field_session):
    s = field_session
    decsym(s, "H", 0, 2, [], [("anti", "all")])
    decsym(s, "P", 3, 0, [("sym", [1, 2])], [])
    matchdeclare(s, ["a", "b", "c"])
    patterns = [
        "extdiff(A([a],[]),b)",
        "S([a,b],[])*x([],[a])",
        "x([a],[])*x([b],[])*S([],[a,b])",
        "P([a,b,c],[])*y([],[c])",
        "'covdiff('covdiff(H([],[a,b]),b),a)",
        "'covdiff(x([a],[])*x([b],[])*S([],[a,b]),c)",
        "A([a],[],b,c)",
        "x([b],[])*x([a],[])",
        "x([a],[])*y([b],[])",
    ]
    subjects = [
        "A([m],[],n)*T([],[m,n])",
        "S([m,n],[])*x([],[m])*x([],[n])",
        "x([m],[])*x([n],[])*S([],[m,n])*x([k],[])*x([],[k])",
        "x([m],[])*x([n],[])*S([],[p,n])*A([],[m],p)",
        "P([m,n,k],[])*y([],[k])*y([],[m])*z([],[n])",
        "'covdiff('covdiff(H([],[m,n]),n),m)",
        "'covdiff(x([m],[])*x([n],[])*S([],[m,n]),k)*w([],[k])",
        "A([m],[],n,k)*S([],[n,k])",
        "A([m],[],n,k) + A([k],[],n,m)",
        "x([m],[])*x([n],[])*y([k],[])*y([l],[])",
    ]
    for p_text in patterns:
        pattern = ev(p_text, s).terms[0]
        arranged = _pattern_arrangements(s, pattern)
        metavars = frozenset("abc")
        for s_text in subjects:
            for t in canform(s, ev(s_text, s)).terms:
                ours = distinct(_pattern_matches(t, pattern, arranged, metavars))
                assert ours == distinct(reference_matches(s, t, pattern, metavars))


def test_an_inert_body_matches_in_its_own_order(session):
    """Bodies in other orders share a coarse shape, but their positions do
    not align: an inert pattern matches its body factor by factor."""
    x_a, y_a = fac("x", cov=("a",)), fac("y", contra=("a",))
    x_b, y_b = fac("x", cov=("b",)), fac("y", contra=("b",))
    pattern = InertDeriv((x_a, y_a), "i")
    metavars = frozenset("ai")
    assert coarse_key(pattern) == coarse_key(InertDeriv((y_b, x_b), "j"))
    assert not _match_factor(pattern, InertDeriv((y_b, x_b), "j"), metavars, {})
    binding = {}
    assert _match_factor(pattern, InertDeriv((x_b, y_b), "j"), metavars, binding)
    assert binding == {"a": "b", "i": "j"}


# --- one rename per term ---------------------------------------------------------


def count_renames(monkeypatch):
    calls = []
    original = algebra.rename_term_dummies

    def counting(t):
        calls.append(t)
        return original(t)

    monkeypatch.setattr(algebra, "rename_term_dummies", counting)
    return calls


@pytest.mark.parametrize("text", [
    "F([x1],[x2])*F([x2],[x3])*F([x3],[x4])*F([x4],[x5])*F([x5],[x6])*F([x6],[x1])",
    "X([d],[])*Y([],[d])",
    "F([a,b],[])*F([c,d],[])*g([],[b,c])*g([],[d,a])",
])
def test_only_the_winning_leaf_is_renamed(field_session, monkeypatch, text):
    """The six-factor ring has six tied branches, each completed; the one
    kept is renamed, once.  A term with no choice is renamed once too."""
    calls = count_renames(monkeypatch)
    t = ev(text, field_session).terms[0]
    assert canonical_term(field_session, t) == reference_canonical_term(field_session, t)
    assert len(calls) == 1


def test_a_zero_term_is_not_renamed(field_session, monkeypatch):
    calls = count_renames(monkeypatch)
    t = explicit_chain(random.Random(3), 3)  # explicit F^3: zero, F antisymmetric
    assert canonical_term(field_session, t) is None
    assert calls == []


def rebuilt(f):
    """An equal factor-like that shares no object with ``f``."""
    if isinstance(f, InertDeriv):
        return InertDeriv(tuple([rebuilt(g) for g in f.factors]), f.index)
    return Factor(str(f.name), tuple([(str(lbl), up) for lbl, up in f.slots]),
                  tuple([str(d) for d in f.derivs]))


@pytest.mark.parametrize("metric", [True, False])
def test_the_returned_key_is_the_returned_terms_own(metric):
    """The key comes with the term, whatever the search kept: it equals the
    key of a fresh copy, for derivative indices, declared blocks and inert
    derivatives."""
    s = make_session(metric, symmetries=True)
    decsym(s, "H", 0, 3, [], [("sym", "all")])
    rng, py_rng = make_rng(90 + metric), random.Random(90)
    pool = DEFAULT_POOL + (("R", 4), ("H", 3))
    checked = 0
    for i in range(80):
        free = [(), (("u", False),), (("u", False), ("v", True))][i % 3]
        for t in random_expression(s, rng, free=free, max_factors=5, pool=pool).terms:
            for u in (t, with_inert(py_rng, t)):
                try:
                    result = canonical_term(s, validate(u))
                except ValidationError:
                    continue
                if result is not None:
                    key, canon = result
                    fresh = Term(canon.coeff, tuple([rebuilt(f) for f in canon.factors]))
                    assert key == structural_key(fresh), u
                    checked += 1
    assert checked > 200


# --- the open mixed-variance defect ------------------------------------------------


@pytest.mark.xfail(strict=True, reason="the metric is not part of the group")
@pytest.mark.parametrize("n", [3, 5, 7])
def test_odd_mixed_chain_vanishes(field_session, n):
    t = mixed_chain(random.Random(n), n)
    assert canform(field_session, Expression((t,))).is_zero()


@pytest.mark.xfail(strict=True, reason="the metric is not part of the group")
def test_contracted_explicit_f3_vanishes(field_session):
    e = Expression((explicit_chain(random.Random(3), 3),))
    assert canform(field_session, contract(field_session, e)).is_zero()


def test_curl_rule_still_fires_on_a_mixed_contraction(session):
    """What a metric-aware dummy group must keep: the canonical form leaves
    ``V_{p,r}`` in the order the rule's pattern matches."""
    matchdeclare(session, ["a", "b"])
    defrule(session, "Curl", ev("extdiff(V([a],[]),b)", session),
            ev("G([a,b],[])", session))
    e = ev("extdiff(V([p],[]),r)*U([],[p,r])", session)
    out = apply1(session, e, "Curl")
    assert render_plain(out) == "- G_{%1 %2}*U^{%2 %1}"
    assert structural_key(out) == structural_key(canform(session, out))
