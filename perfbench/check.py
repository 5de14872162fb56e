"""Output checks that do not use the engine under test.

A small ``numpy.einsum`` evaluator gives every expression in the plain-list
form of ``inputs`` a value at dimension 4 from random components that respect
the declared symmetries.  A symbolic output must have the value of its input;
the oracle workload's numbers are recomputed from the components the engine
drew.  Outputs with inert covariant derivatives, which have no value, are
compared with hand-derived expectations.
"""

from __future__ import annotations

import zlib
from collections import Counter
from fractions import Fraction

import numpy as np

from inputs import DIM, SYMMETRIES

KDELTA = "kdelta"
DIM_SYMBOL = "dim"
INERT = "'covdiff"


def _project(arr, axes, anti: bool):
    """Average over permutations of ``axes``, signed for antisymmetry; only
    pairs occur in the declarations, so one transposition suffices."""
    a, b = axes
    return (arr + (-1 if anti else 1) * np.swapaxes(arr, a, b)) / 2


class Components:
    """Random components at dimension 4: a positive definite metric ``g``,
    every other tensor drawn per (name, rank, derivatives) and projected onto
    its declared symmetries, derivative axes symmetrized.  With
    ``curl=(F, A)`` the components of F are the curl of A's jet."""

    def __init__(self, seed: int, curl=None, arrays=None, metric: str = "g"):
        self.rng = np.random.default_rng(seed)
        self.metric = metric
        self.curl = curl
        self.arrays = dict(arrays or {})
        if (metric, 2, 0) not in self.arrays:
            r = self.rng.uniform(-1.0, 1.0, (DIM, DIM))
            self.arrays[(metric, 2, 0)] = r @ r.T + np.eye(DIM)
        self.inverse = np.linalg.inv(self.arrays[(metric, 2, 0)])

    def base(self, name: str, rank: int, nderivs: int) -> np.ndarray:
        key = (name, rank, nderivs)
        if key not in self.arrays:
            if self.curl is not None and key == (self.curl[0], 2, 0):
                jet = self.base(self.curl[1], 1, 1)  # axes (slot, derivative)
                self.arrays[key] = jet.T - jet  # F_mn = A_n,m - A_m,n
                return self.arrays[key]
            arr = self.rng.uniform(-1.5, 1.5, (DIM,) * (rank + nderivs))
            for kind, positions in SYMMETRIES.get(name, ()):
                if max(positions) < rank:
                    arr = _project(arr, positions, kind == "anti")
            if nderivs == 2:
                arr = _project(arr, (rank, rank + 1), False)
            elif nderivs > 2:
                raise ValueError("at most two derivative indices are supported")
            self.arrays[key] = arr
        return self.arrays[key]

    def operand(self, factor) -> np.ndarray:
        name, slots, derivs = factor
        if name == INERT:
            raise ValueError("inert covariant derivatives have no value")
        if name == DIM_SYMBOL and not slots:
            return np.array(float(DIM))
        if name == KDELTA:
            if len(slots) != 2 or slots[0][1] == slots[1][1] or derivs:
                raise ValueError("only the mixed Kronecker delta has a value")
            return np.eye(DIM)
        arr = self.base(name, len(slots), len(derivs))
        for axis, (_, up) in enumerate(slots):
            if up:
                arr = np.moveaxis(np.tensordot(self.inverse, arr, axes=(1, axis)), 0, axis)
        return arr


def _labels(factors):
    out = []
    for name, slots, derivs in factors:
        out += [lbl for lbl, _ in slots] + list(derivs)
    return out


def free_labels(term) -> list[str]:
    counts = Counter(_labels(term[2]))
    return sorted(lbl for lbl, n in counts.items() if n == 1)


def value(terms, comps: Components):
    """The expression's components over its free indices (sorted by label),
    and the sum of the magnitudes of its terms, for a tolerance."""
    if not terms:
        return None, np.array(0.0), 0.0
    free = free_labels(terms[0])
    total = np.zeros((DIM,) * len(free))
    scale = 0.0
    for term in terms:
        num, den, factors = term
        if free_labels(term) != free:
            raise ValueError("terms disagree on free indices")
        ids = {lbl: i for i, lbl in enumerate(dict.fromkeys(_labels(factors)))}
        args = []
        for f in factors:
            args += [comps.operand(f), [ids[lbl] for lbl in _labels([f])]]
        out = [ids[lbl] for lbl in free]
        t = np.einsum(*args, out, optimize=True) if args else np.array(1.0)
        t = float(Fraction(num, den)) * t
        total = total + t
        scale += float(np.max(np.abs(t))) if t.size else 0.0
    return free, total, scale


def numerically_equal(got, expected, seed: int, curl=None) -> str | None:
    """None when ``got`` and ``expected`` have the same components, else
    a short reason."""
    comps = Components(seed, curl)
    free_g, val_g, scale_g = value(got, comps)
    free_e, val_e, scale_e = value(expected, comps)
    if got and expected and free_g != free_e:
        return f"free indices {free_g} != {free_e}"
    tol = 1e-9 * (1.0 + scale_g + scale_e)
    diff = float(np.max(np.abs(val_g - val_e)))
    if diff > tol:
        return f"differs numerically by {diff:.3g}"
    return None


def field_equation_problem(terms, field: dict) -> str | None:
    """Compare with sum_k k c_k phi^(k-1) - (g^{ab} phi_{,a})_{;b}."""
    name = field["field"]
    want = Counter((Fraction(n, d), k) for n, d, k in field["polynomial"])
    got = Counter()
    divergence = 0
    for num, den, factors in terms:
        coeff = Fraction(num, den)
        if all(f[0] == name and not f[1] and not f[2] for f in factors):
            got[(coeff, len(factors))] += 1
        elif coeff == -1 and len(factors) == 1 and factors[0][0] == INERT:
            _, body, index = factors[0]
            body = sorted(body, key=lambda f: f[0] != "g")
            if not (len(body) == 2 and body[0][0] == "g" and body[1][0] == name
                    and len(body[0][1]) == 2 and not body[0][2]):
                return f"unexpected divergence body {body}"
            (p, p_up), (q, q_up) = body[0][1]
            derivs = body[1][2]
            if not (p_up and q_up and p != q and len(derivs) == 1
                    and {derivs[0], index} == {p, q} and not body[1][1]):
                return f"unexpected divergence {factors[0]}"
            divergence += 1
        else:
            return f"unexpected term {coeff} {factors}"
    if divergence != 1:
        return f"{divergence} divergence terms"
    if got != want:
        return f"potential terms {sorted(got.items())} != {sorted(want.items())}"
    return None


def job_seed(seed: int, name: str) -> int:
    return zlib.crc32(f"{seed}:{name}".encode())


def check_output(job: dict, output: dict, seed: int) -> str | None:
    """None when the output of ``job`` is right, else why it is not."""
    kind = job["kind"]
    value_ = output.get("value")
    if kind == "numeval":
        return _check_numeval(job, output)
    if isinstance(value_, str):
        return f"returned {value_[:60]}"
    if kind == "script":
        lines = set(output["transcript"].splitlines())
        for line in job.get("expect_lines", ()):
            if line not in lines:
                return f"transcript lacks {line!r}"
        if "expect_field" in job:
            if job["trace"] and not any(l.startswith("(trace) ") for l in lines):
                return "transcript lacks trace lines"
            return field_equation_problem(value_, job["expect_field"])
        return None
    if "expect_field" in job:
        return field_equation_problem(value_, job["expect_field"])
    if job.get("expect_zero") and value_:
        return f"{len(value_)} terms where 0 was expected"
    expected = job.get("expect_terms", job.get("expr"))
    curl = tuple(job["curl"]) if "curl" in job else None
    return numerically_equal(value_, expected, job_seed(seed, job["name"]), curl)


def _check_numeval(job: dict, output: dict) -> str | None:
    arrays = {}
    for key, listing in output["arrays"].items():
        name, rank, nderivs = key.rsplit(",", 2)
        arrays[(name, int(rank), int(nderivs))] = np.asarray(listing, dtype=float)
    for (name, rank, _), arr in arrays.items():
        for kind, positions in SYMMETRIES.get(name, ()):
            if max(positions) < rank:
                swapped = np.swapaxes(arr, *positions)
                if not np.allclose(arr, -swapped if kind == "anti" else swapped):
                    return f"components of {name} lack their declared symmetry"
    comps = Components(0, arrays=arrays, metric=output["metric"])
    _, val, scale = value(job["expr"], comps)
    diff = abs(float(val) - output["value"])
    if diff > 1e-9 * (1.0 + scale):
        return f"value {output['value']!r} differs from {float(val)!r}"
    return None
