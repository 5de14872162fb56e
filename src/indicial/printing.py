"""Renderers: the plain single-line form (re-parseable), LaTeX, and JSON.

Plain and LaTeX output share one walk: ``_render`` writes a sum and its
terms, ``_factor`` a factor's slot runs and derivative indices, or an inert
chain.  The two formats differ only in their row of spellings: the joins
between factors and between labels, the parentheses around a multi-factor
inert body, the separator before an index block, the coefficient writer,
and where derivative indices go: into the last covariant block (plain
``A_{l,k}``) or into a block of their own (LaTeX ``A_{l}{}_{,k}``).
"""

from __future__ import annotations

from .exprs import Expression, FactorLike, InertDeriv


def _latex_coeff(value) -> str:
    n, d = value.numerator, value.denominator
    return str(n) if d == 1 else rf"\frac{{{n}}}{{{d}}}"


# factor join, label join, inert body's open and close, index block
# separator, coefficient writer, derivatives join the last covariant block
_PLAIN = ("*", " ", "(", ")", "", str, True)
_LATEX = (r"\,", r"\,", r"\left(", r"\right)", "{}", _latex_coeff, False)


def _factor(f: FactorLike, row) -> str:
    """A factor's runs of same-variance slots, one index block each, and its
    derivative indices; or an inert chain, whose directly nested derivatives
    fold into one ``;`` block after the innermost body."""
    times, space, open_, close, sep, _, merge = row
    if f.__class__ is InertDeriv:
        indices = [f.index]
        inner = f.factors
        while len(inner) == 1 and inner[0].__class__ is InertDeriv:
            indices.append(inner[0].index)
            inner = inner[0].factors
        if len(inner) == 1:
            body = _factor(inner[0], row)
        else:
            body = open_ + times.join([_factor(g, row) for g in inner]) + close
        return body + sep + "_{;" + space.join(reversed(indices)) + "}"
    runs = []  # opening and labels per run of same-variance slots
    last = down = None  # down: the last covariant run
    for lbl, up in f.slots:
        if up == last:
            runs[-1] += space + lbl
        else:
            if not up:
                down = len(runs)
            runs.append(("^{" if up else "_{") + lbl)
            last = up
    tail = ""
    if f.derivs:
        derivs = "," + space.join(f.derivs)
        if merge and down is not None:
            runs[down] += derivs
        else:
            tail = sep + "_{" + derivs + "}"
    if runs:
        return f.name + ("}" + sep).join(runs) + "}" + tail
    return f.name + tail


def _render(expr: Expression, row) -> str:
    """A sum: each term's sign (but a leading ``+``), its coefficient's
    magnitude unless that is 1 on a term with factors, and its factors."""
    if not expr.terms:
        return "0"
    times, coeff = row[0], row[5]
    parts = []
    for t in expr.terms:
        c = t.coeff
        sign, magnitude = ("- ", -c) if c < 0 else ("+ ", c)
        pieces = [_factor(f, row) for f in t.factors]
        if magnitude != 1 or not pieces:
            pieces.insert(0, coeff(magnitude))
        parts.append(sign + times.join(pieces))
    text = " ".join(parts)
    return text if text[0] == "-" else text[2:]


def render_plain(expr: Expression) -> str:
    return _render(expr, _PLAIN)


def render_latex(expr: Expression) -> str:
    return _render(expr, _LATEX)


def _json_factor(f: FactorLike):
    if f.__class__ is InertDeriv:
        return {"covdiff": {"body": [_json_factor(g) for g in f.factors],
                            "index": f.index}}
    return {"name": f.name,
            "slots": [[lbl, "up" if up else "down"] for lbl, up in f.slots],
            "derivs": list(f.derivs)}


def expression_to_obj(expr: Expression):
    return {"terms": [{"coeff": str(t.coeff),
                       "factors": [_json_factor(f) for f in t.factors]}
                      for t in expr.terms]}


def render_json(expr: Expression) -> str:
    import json  # here, so that importing the library does not load it

    return json.dumps(expression_to_obj(expr), separators=(", ", ": "))


RENDERERS = {"plain": render_plain, "latex": render_latex,
             "json": render_json}


def render(expr: Expression, fmt: str = "plain") -> str:
    if fmt not in RENDERERS:
        raise ValueError(f"unknown format {fmt!r}")
    return RENDERERS[fmt](expr)
