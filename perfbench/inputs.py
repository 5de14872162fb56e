"""Seeded inputs for the four benchmark workloads.

Everything here is plain data (lists, strings, numbers) so it can be sent to
a worker process as JSON.  The seed varies index labels, tensor names,
factor order and coefficients, never the sizes: every seed gives the same
amount of work, so run-to-run spread measures the engine and the host, not
the generator.

An expression is a list of terms ``[num, den, factors]``; a factor is
``[name, [[label, up], ...], [deriv, ...]]``.
"""

from __future__ import annotations

import random
from fractions import Fraction

DIM = 4
WORKLOADS = ("scripts", "invariants", "rewrite", "oracle")

LABELS = [f"{c}{i}" for c in "hijkpqrsuvxy" for i in range(10)]

# Declared symmetries, by tensor name: (kind, slot positions).  The checker
# draws random components that respect exactly these and nothing more.
SYMMETRIES = {
    "g": [("sym", (0, 1))],
    "F": [("anti", (0, 1))],
    "R": [("anti", (0, 1)), ("anti", (2, 3))],
}

ALGEBRA_PREAMBLE = (
    "imetric(g)$\n"
    "decsym(F,2,0,[anti(all)],[])$\n"
    "decsym(R,4,0,[anti(1,2),anti(3,4)],[])$\n"
)

# The rule statements of scripts/maxwell.ind.
MAXWELL_PREAMBLE = (
    "imetric(g)$\n"
    "igeowedge_flag:true$\n"
    "decsym(F,0,2,[],[anti(all)])$\n"
    "matchdeclare(a,atom,b,atom)$\n"
    "apply(defrule,[Maxwell,extdiff(A([a],[]),b),F([a,b],[])])$\n"
)

MAXWELL_EXPECTED_LINES = (
    "(%o5) 0",
    "(%t13) F^{m n}",
    "(%t14) j^{m} + F^{m n}_{;n}",
    "(%t15) j^{%1}_{;%1}",
)


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))


def _term(coeff: Fraction, factors) -> list:
    return [coeff.numerator, coeff.denominator, factors]


def _fac(name, cov=(), contra=(), derivs=()) -> list:
    slots = [[lbl, False] for lbl in cov] + [[lbl, True] for lbl in contra]
    return [name, slots, list(derivs)]


def factor_text(f) -> str:
    """Functional script notation; covariant slots must precede contravariant."""
    name, slots, derivs = f
    cov = [lbl for lbl, up in slots if not up]
    contra = [lbl for lbl, up in slots if up]
    if [up for _, up in slots] != [False] * len(cov) + [True] * len(contra):
        raise ValueError(f"{name}: slot order has no functional notation")
    if not slots and not derivs:
        return name
    text = f"{name}([{','.join(cov)}],[{','.join(contra)}]"
    return text + "".join("," + d for d in derivs) + ")"


def term_text(t, first: bool) -> str:
    num, den, factors = t
    coeff = Fraction(num, den)
    body = "*".join([str(abs(coeff))] + [factor_text(f) for f in factors])
    if first:
        return ("-" if coeff < 0 else "") + body
    return ("- " if coeff < 0 else "+ ") + body


def expr_text(terms) -> str:
    return " ".join(term_text(t, i == 0) for i, t in enumerate(terms))


# ---------------------------------------------------------------------------
# field-strength and Riemann invariants


def mixed_chain(rng: random.Random, n: int) -> list:
    """c * F_{x1}^{x2} F_{x2}^{x3} ... F_{xn}^{x1}, factors shuffled."""
    xs = rng.sample(LABELS, n)
    factors = [_fac("F", [xs[i]], [xs[(i + 1) % n]]) for i in range(n)]
    rng.shuffle(factors)
    return [_term(_coeff(rng), factors)]


def explicit_chain(rng: random.Random, n: int) -> list:
    """c * F_{u1 v1} ... F_{un vn} g^{v1 u2} ... g^{vn u1}: the same chain
    written fully lowered with explicit metrics."""
    labels = rng.sample(LABELS, 2 * n)
    us, vs = labels[:n], labels[n:]
    factors = []
    for i in range(n):
        pair = [us[i], vs[i]]
        rng.shuffle(pair)
        factors.append(_fac("F", pair))
        link = [vs[i], us[(i + 1) % n]]
        rng.shuffle(link)
        factors.append(_fac("g", (), link))
    rng.shuffle(factors)
    return [_term(_coeff(rng), factors)]


def riemann_square(rng: random.Random) -> list:
    """c * R_{abcd} R^{pi(abcd)} for a random permutation pi."""
    labels = rng.sample(LABELS, 4)
    upper = labels[:]
    rng.shuffle(upper)
    factors = [_fac("R", labels), _fac("R", (), upper)]
    rng.shuffle(factors)
    return [_term(_coeff(rng), factors)]


# ---------------------------------------------------------------------------
# sums, the Maxwell rule, scalar fields


def sum_terms(rng: random.Random, n: int, free: str) -> list:
    """n terms with the free covariant index ``free`` and at most two
    dummies each; the term shapes cycle so every seed costs the same."""
    terms = []
    for i in range(n):
        d1, d2 = rng.sample([lbl for lbl in LABELS if lbl != free], 2)
        shape = i % 3
        if shape == 0:
            factors = [_fac(rng.choice("UV"), [free, d1]), _fac("w", (), [d1])]
        elif shape == 1:
            factors = [
                _fac(rng.choice("UV"), [d1], [d2]),
                _fac(rng.choice("XY"), [free], ()),
                _fac(rng.choice("XY"), [d2], ()),
                _fac("w", (), [d1]),
            ]
        else:
            factors = [_fac(rng.choice("XY"), [d1]), _fac(rng.choice("UV"), [free], [d1])]
        terms.append(_term(_coeff(rng), factors))
    return terms


def maxwell_sites(rng: random.Random, k: int) -> tuple[str, list]:
    """Script text of apply1 over k distinct curl sites, and the same sum
    with each ``extdiff(A_p, r)`` written out as ``A_{r,p} - A_{p,r}``."""
    names = [f"W{i}" for i in range(k)]
    rng.shuffle(names)
    parts, terms = [], []
    for i, name in enumerate(names):
        p, r = rng.sample(LABELS, 2)
        c = _coeff(rng)
        w = _fac(name, (), [p, r])
        parts.append(
            ("" if i == 0 else " + ")
            + f"({c})*extdiff(A([{p}],[]),{r})*{factor_text(w)}"
        )
        terms.append(_term(c, [_fac("A", [r], (), [p]), w]))
        terms.append(_term(-c, [_fac("A", [p], (), [r]), w]))
    return "apply1(" + "".join(parts) + ",Maxwell)$", terms


def scalar_field(rng: random.Random, degree: int) -> dict:
    """A scalar-field Lagrangian 1/2 g^{ab} phi_{,a} phi_{,b} + sum c_k phi^k,
    k = 1..degree, as script text plus the hand-derived field equation
    sum k c_k phi^(k-1) - (g^{ab} phi_{,a})_{;b}."""
    field = rng.choice(["phi", "psi", "chi"])
    a, b, n = rng.sample(LABELS, 3)
    coeffs = [_coeff(rng) for _ in range(degree)]
    potential = "".join(
        f" + ({c})*{field}^{k}" for k, c in enumerate(coeffs, start=1)
    )
    lagrangian = (
        f"1/2*g([],[{a},{b}])*{field}([],[],{a})*{field}([],[],{b}){potential}"
    )
    call = f"euler_lagrange({lagrangian},{field}([],[]),{n})"
    polynomial = [
        [(k * c).numerator, (k * c).denominator, k - 1]
        for k, c in enumerate(coeffs, start=1)
    ]
    return {"call": call, "field": field, "polynomial": polynomial}


# ---------------------------------------------------------------------------
# workloads


def _canform_job(name, expr, contract=False, expect_zero=False):
    return {"name": name, "kind": "canform", "expr": expr,
            "contract": contract, "expect_zero": expect_zero}


def robustness_inputs(seed: int) -> list:
    """Inputs that fail at the time the benchmark was written.  Every
    workload runs them once per run, outside the timed passes, and counts
    them in ``failed_ratio``; a fix turns a failure into a success without
    touching any timing."""
    rng = random.Random(f"robust:{seed}")
    jobs = [_canform_job("explicit_F5_canform", explicit_chain(rng, 5),
                         expect_zero=True)]
    for n in (3, 5, 7):
        jobs.append(_canform_job(f"odd_chain{n}_canform", mixed_chain(rng, n),
                                 expect_zero=True))
    jobs.append(_canform_job("explicit_F3_contract_canform",
                             explicit_chain(rng, 3), contract=True,
                             expect_zero=True))
    long_sum = sum_terms(rng, 400, "m0")
    jobs.append({"name": "sum400_eval", "kind": "stmt",
                 "text": expr_text(long_sum) + "$", "expect_terms": long_sum})
    nested = sum_terms(rng, 2, "m0")
    jobs.append({"name": "parens400_eval", "kind": "stmt",
                 "text": "(" * 400 + expr_text(nested) + ")" * 400 + "$",
                 "expect_terms": nested})
    return jobs


def build(workload: str, seed: int, maxwell_text: str) -> dict:
    """The full input set of one workload: session preamble, the timed jobs
    of one pass, and the robustness inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scripts":
        jobs = [{"name": "maxwell_replay", "kind": "script",
                 "text": maxwell_text, "trace": False,
                 "expect_lines": list(MAXWELL_EXPECTED_LINES)}]
        for degree in (4, 6):
            sf = scalar_field(rng, degree)
            text = f"imetric(g)$\nishow({sf['call']})$\n"
            jobs.append({"name": f"scalar_field_deg{degree}_script",
                         "kind": "script", "text": text, "trace": True,
                         "expect_field": sf})
        preamble = ""
    elif workload == "invariants":
        # Five inputs, so that job_ms.p50 and p90 fall mid-way into the
        # times of one input rather than between two.
        jobs = [_canform_job(f"chain{n}_canform", mixed_chain(rng, n))
                for n in (4, 6)]
        jobs.append(_canform_job("explicit_F2_contract_canform",
                                 explicit_chain(rng, 2), contract=True))
        jobs.append(_canform_job("explicit_F3_canform", explicit_chain(rng, 3)))
        jobs.append(_canform_job("riemann_square_canform", riemann_square(rng)))
        preamble = ALGEBRA_PREAMBLE
    elif workload == "rewrite":
        jobs = []
        for n in (50, 100, 200):
            terms = sum_terms(rng, n, rng.choice(LABELS[-10:]))
            jobs.append({"name": f"sum{n}_eval", "kind": "stmt",
                         "text": expr_text(terms) + "$", "expect_terms": terms})
        for k in (10, 20, 40):
            text, terms = maxwell_sites(rng, k)
            jobs.append({"name": f"maxwell{k}_apply1", "kind": "stmt",
                         "text": text, "expect_terms": terms, "curl": ["F", "A"]})
        sf = scalar_field(rng, 5)
        jobs.append({"name": "scalar_field_deg5_euler_lagrange", "kind": "stmt",
                     "text": sf["call"] + "$", "expect_field": sf})
        preamble = MAXWELL_PREAMBLE
    elif workload == "oracle":
        jobs = [{"name": f"chain{n}_numeval", "kind": "numeval",
                 "expr": mixed_chain(rng, n), "seed": rng.randrange(2**31)}
                for n in (4, 5, 6, 7)]
        jobs.append({"name": "random200_numeval", "kind": "numeval",
                     "expr": random_scalar_sum(rng, 200),
                     "seed": rng.randrange(2**31)})
        preamble = ALGEBRA_PREAMBLE
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "dim": DIM,
            "preamble": preamble, "jobs": jobs,
            "robust_preamble": ALGEBRA_PREAMBLE,
            "robust": robustness_inputs(seed)}


def random_scalar_sum(rng: random.Random, n: int) -> list:
    """n scalar terms with at most two dummies each, shapes cycling."""
    terms = []
    for i in range(n):
        d1, d2 = rng.sample(LABELS, 2)
        shape = i % 4
        if shape == 0:
            factors = [_fac("X", [d1]), _fac("Y", (), [d1])]
        elif shape == 1:
            factors = [_fac("U", [d1, d2]), _fac("V", (), [d1, d2])]
        elif shape == 2:
            factors = [_fac("X", [d1]), _fac("U", (), [d1, d2]), _fac("Y", [d2])]
        else:
            factors = [_fac("w"), _fac("F", [d1], [d2]), _fac("U", [d2], [d1])]
        terms.append(_term(_coeff(rng), factors))
    return terms
