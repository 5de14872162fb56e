"""The two symmetry and collection rules that ``algebra`` now writes once,
kept here in their earlier form as differential oracles:

- ``reference_canform``: the bucket loop ``canform`` used before
  ``algebra.CanonicalSum``, summing coefficients by ``structural_key`` over
  ``canonical_term`` and sorting the buckets by key;
- ``reference_draw``: the block-by-block projection ``numeval`` used before
  it averaged over ``algebra._table``, one declared block at a time and then
  the derivative axes.
"""

from itertools import permutations

import numpy as np

from indicial.algebra import _perm_sign, canonical_term
from indicial.exprs import Expression, Term, rational


def reference_canform(session, expr: Expression) -> Expression:
    buckets: dict = {}
    for t in expr.terms:
        result = canonical_term(session, t)
        if result is None:
            continue
        key, canon = result
        if key in buckets:
            prev_coeff, prev = buckets[key]
            buckets[key] = (prev_coeff + canon.coeff, prev)
        else:
            buckets[key] = (canon.coeff, canon)
    terms = [
        rep if coeff == rep.coeff else Term(rational(coeff), rep.factors)
        for key, (coeff, rep) in sorted(buckets.items(), key=lambda kv: kv[0])
        if coeff != 0
    ]
    return Expression(tuple(terms))


def _project_block(arr, axes, anti: bool):
    """Average over permutations of the given axes, signed for anti blocks."""
    total = np.zeros_like(arr)
    count = 0
    for perm in permutations(range(len(axes))):
        order = list(range(arr.ndim))
        for target, src in zip(axes, perm):
            order[target] = axes[src]
        contrib = np.transpose(arr, order)
        if anti:
            contrib = contrib * _perm_sign(perm)
        total = total + contrib
        count += 1
    return total / count


def reference_draw(session, name: str, rank: int, nderivs: int, arr):
    """``arr`` projected onto ``name``'s declared symmetry, as drawn before."""
    for block in session.blocks_for(name):
        if all(p < rank for p in block.positions):
            arr = _project_block(arr, list(block.positions), block.kind == "anti")
    if nderivs >= 2:
        arr = _project_block(arr, list(range(rank, rank + nderivs)), False)
    return arr
