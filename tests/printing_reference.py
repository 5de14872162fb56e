"""The renderers ``indicial.printing`` had before plain and LaTeX output
shared one walk, kept as the differential oracle for it: a plain walk and a
LaTeX walk that each write the sign between terms, the coefficient, the slot
runs and the inert-derivative blocks, and JSON with its own coefficient
helper.  ``reference(expr, fmt)`` renders as ``printing.render`` did.
"""

from __future__ import annotations

from fractions import Fraction

from indicial.exprs import Expression, Factor, FactorLike, InertDeriv, Term


def _slot_runs(f: Factor):
    """Consecutive same-variance slot groups, in slot order."""
    runs: list[tuple[bool, list[str]]] = []
    for lbl, up in f.slots:
        if runs and runs[-1][0] == up:
            runs[-1][1].append(lbl)
        else:
            runs.append((up, [lbl]))
    return runs


def _inert_chain(f: InertDeriv):
    """Unwrap directly nested inert derivatives: the indices, innermost
    first, and the factors of the innermost body."""
    indices = [f.index]
    inner = f.factors
    while len(inner) == 1 and isinstance(inner[0], InertDeriv):
        indices.insert(0, inner[0].index)
        inner = inner[0].factors
    return indices, inner


def render_factor(f: FactorLike) -> str:
    if isinstance(f, InertDeriv):
        indices, inner = _inert_chain(f)
        if len(inner) == 1 and isinstance(inner[0], Factor):
            body = render_factor(inner[0])
        else:
            body = "(" + "*".join(render_factor(g) for g in inner) + ")"
        return body + "_{;" + " ".join(indices) + "}"
    out = f.name
    runs = _slot_runs(f)
    last_down = max(
        (i for i, (up, _) in enumerate(runs) if not up), default=None
    )
    for i, (up, labels) in enumerate(runs):
        if up:
            out += "^{" + " ".join(labels) + "}"
        else:
            block = " ".join(labels)
            if i == last_down and f.derivs:
                block += "," + " ".join(f.derivs)
            out += "_{" + block + "}"
    if f.derivs and last_down is None:
        out += "_{," + " ".join(f.derivs) + "}"
    return out


def _render_coeff(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def render_term_body(t: Term) -> str:
    magnitude = abs(t.coeff)
    pieces = [render_factor(f) for f in t.factors]
    if magnitude != 1 or not pieces:
        pieces = [_render_coeff(magnitude)] + pieces
    return "*".join(pieces)


def render_plain(expr: Expression) -> str:
    if not expr.terms:
        return "0"
    parts = []
    for i, t in enumerate(expr.terms):
        body = render_term_body(t)
        if i == 0:
            parts.append(body if t.coeff >= 0 else "- " + body)
        else:
            parts.append(("+ " if t.coeff >= 0 else "- ") + body)
    return " ".join(parts)


def _latex_factor(f: FactorLike) -> str:
    if isinstance(f, InertDeriv):
        indices, inner = _inert_chain(f)
        if len(inner) == 1 and isinstance(inner[0], Factor):
            body = _latex_factor(inner[0])
        else:
            body = r"\left(" + r"\,".join(_latex_factor(g) for g in inner) + r"\right)"
        return body + "{}_{;" + r"\,".join(indices) + "}"
    out = f.name
    for i, (up, labels) in enumerate(_slot_runs(f)):
        sep = "{}" if i else ""
        if up:
            out += sep + "^{" + r"\,".join(labels) + "}"
        else:
            out += sep + "_{" + r"\,".join(labels) + "}"
    if f.derivs:
        out += "{}_{," + r"\,".join(f.derivs) + "}"
    return out


def render_latex(expr: Expression) -> str:
    if not expr.terms:
        return "0"
    parts = []
    for i, t in enumerate(expr.terms):
        magnitude = abs(t.coeff)
        body = r"\,".join(_latex_factor(f) for f in t.factors)
        if magnitude != 1 or not body:
            coeff = (
                str(magnitude.numerator)
                if magnitude.denominator == 1
                else rf"\frac{{{magnitude.numerator}}}{{{magnitude.denominator}}}"
            )
            body = coeff + (r"\," + body if body else "")
        sign = "-" if t.coeff < 0 else ("+" if i else "")
        parts.append((sign + " " if sign else "") + body)
    return " ".join(parts).strip()


def _json_factor(f: FactorLike):
    if isinstance(f, InertDeriv):
        return {
            "covdiff": {
                "body": [_json_factor(g) for g in f.factors],
                "index": f.index,
            }
        }
    return {
        "name": f.name,
        "slots": [[lbl, "up" if up else "down"] for lbl, up in f.slots],
        "derivs": list(f.derivs),
    }


def expression_to_obj(expr: Expression):
    return {
        "terms": [
            {
                "coeff": _render_coeff(t.coeff),
                "factors": [_json_factor(f) for f in t.factors],
            }
            for t in expr.terms
        ]
    }


def render_json(expr: Expression) -> str:
    import json  # here, so that importing the library does not load it

    return json.dumps(expression_to_obj(expr), separators=(", ", ": "))


REFERENCES = {
    "plain": render_plain,
    "latex": render_latex,
    "json": render_json,
}


def reference(expr: Expression, fmt: str = "plain") -> str:
    return REFERENCES[fmt](expr)
