"""Spans around the engine's public functions, installed from the outside.

Each traced function is wrapped once and the wrapper is put in place of the
original in every ``indicial.*`` module namespace that holds it (found by
identity), so calls through names imported elsewhere are caught too: ``cli``
imports ``add``/``mul`` and ``rules``, ``calculus`` and ``lagrangian`` import
``canform`` by name.  Functions left unwrapped count toward the nearest
wrapped caller.

A span is ``[function id, start, end, parent span, job id, info]``.  Spans
are kept in memory per pass; self time is a span's duration minus the
durations of its child spans (calls nest, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

# The layer boundaries: public functions of each module of src/indicial/.
LAYERS = {
    "parse": ("tokenize", "parse_program", "parse_expression"),
    "cli": ("Evaluator.execute_statement", "run_script", "evaluate_expression",
            "main"),
    "exprs": ("add", "sub", "neg", "scale", "mul", "power", "scalar",
              "validate", "validate_expression", "free_indices",
              "rename_dummies", "rename_term_dummies"),
    "algebra": ("canform", "contract", "expand", "decsym"),
    "calculus": ("fdiff", "idiff", "covdiff", "extdiff", "mapcovdiff",
                 "expand_components", "expand_christoffels", "christoffel"),
    "rules": ("apply1", "defrule", "matchdeclare", "components", "remcomps"),
    "lagrangian": ("euler_lagrange", "check_conservation"),
    "numeval": ("random_assignment", "numeric_eval", "assignment_from_fixture"),
    "printing": ("render", "render_plain", "render_latex", "render_json"),
}

# Count metrics: each must read the same in every traced pass.
COUNTS = (
    "parse.tokens", "cli.statements", "exprs.add.calls", "exprs.add.terms_in",
    "exprs.mul.calls", "exprs.validate.calls", "algebra.contract.calls",
    "algebra.canform.calls", "algebra.canform.terms_in",
    "algebra.canform.terms_out", "algebra.canform.candidates",
    "calculus.expand_components.calls", "rules.apply1.calls",
    "rules.rewrite_attempts", "rules.rewrites", "printing.chars",
)

TIMES_MS = (
    "parse.self_ms", "cli.self_ms", "exprs.self_ms", "algebra.contract.self_ms",
    "algebra.canform.self_ms", "calculus.self_ms", "rules.apply1.self_ms",
    "lagrangian.self_ms", "numeval.random_assignment.self_ms",
    "numeval.numeric_eval.self_ms", "printing.render.self_ms",
)


def _resolve(module, qualname):
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner, attr, getattr(owner, attr, None) if owner is not None else None


class Tracer:
    def __init__(self):
        import importlib

        self.names: list[str] = []  # function id -> "layer.function"
        self.layer_of: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.missing: list[str] = []
        self.patches: list[tuple] = []
        self.first_spans: list[list] | None = None
        self.passes: list[dict] = []
        self.adopted: dict[int, object] = {}
        # Per-function span info, computed after the call returns.
        self.measures = {
            "parse.tokenize": lambda idx, args, result: len(result),
            "exprs.add": lambda idx, args, result: sum(len(e.terms) for e in args),
            "algebra.canform": self._measure_canform,
        }
        for name in LAYERS["printing"]:
            self.measures[f"printing.{name}"] = lambda idx, args, result: len(result)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "indicial" or name.startswith("indicial.")]
        for layer, functions in LAYERS.items():
            module = importlib.import_module(f"indicial.{layer}")
            for qualname in functions:
                owner, attr, fn = _resolve(module, qualname)
                if fn is None:
                    self.missing.append(f"{layer}.{qualname}")
                    continue
                fid = len(self.names)
                self.names.append(f"{layer}.{qualname.split('.')[-1]}")
                self.layer_of.append(layer)
                wrapper = self._wrap(fid, fn)
                if owner is not module:  # a method: patch its class
                    self.patches.append((owner, attr, fn, wrapper))
                    continue
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            self.patches.append((m, name, fn, wrapper))
        self.fid = {name: i for i, name in enumerate(self.names)}
        self.rules_fids = {i for i, layer in enumerate(self.layer_of)
                           if layer == "rules"}

    # -- installation --

    def begin_pass(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.adopted.clear()
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def end_pass(self) -> None:
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)
        self.passes.append(self.summarize(self.spans))
        if self.first_spans is None:
            self.first_spans = list(self.spans)

    def _wrap(self, fid: int, fn):
        spans, stack = self.spans, self.stack
        from_algebra = self.names[fid] == "exprs.rename_term_dummies"
        measure = self.measures.get(self.names[fid])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            info = None
            if from_algebra:  # one orbit candidate when algebra is the caller
                info = sys._getframe(1).f_globals.get("__name__") == "indicial.algebra"
            span = [fid, 0.0, 0.0, parent, self.job, info]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if measure is not None:
                span[5] = measure(idx, args, result)
            return result

        return wrapper

    def _measure_canform(self, idx, args, result):
        """(terms in, terms out, changed): ``changed`` is 1 when a canform
        issued from rules returned a new expression, i.e. a useful rewrite,
        None when the call did not come from rules."""
        expr = args[1] if len(args) > 1 else args[0]
        parent = self.spans[idx][3]
        changed = None
        if parent >= 0 and self.spans[parent][0] in self.rules_fids:
            previous = self.adopted.get(parent)
            changed = int(previous is not None and result != previous)
            if previous is None or changed:
                self.adopted[parent] = result
        return (len(expr.terms), len(result.terms), changed)

    # -- aggregation --

    def summarize(self, spans) -> dict:
        n = len(self.names)
        calls = [0] * n
        self_s = [0.0] * n
        total_s = [0.0] * n
        child = [0.0] * len(spans)
        for fid, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (fid, start, end, _, _, _) in enumerate(spans):
            calls[fid] += 1
            total_s[fid] += end - start
            self_s[fid] += end - start - child[i]

        def fn_calls(name):
            return calls[self.fid[name]] if name in self.fid else 0

        def fn_self_ms(name):
            return self_s[self.fid[name]] * 1e3 if name in self.fid else 0.0

        def layer_ms(layer):
            return sum(s for s, l in zip(self_s, self.layer_of) if l == layer) * 1e3

        def info_sum(name, pick=lambda info: info):
            fid = self.fid.get(name)
            return sum(pick(s[5]) for s in spans if s[0] == fid and s[5] is not None)

        canform = self.fid.get("algebra.canform")
        rename = self.fid.get("exprs.rename_term_dummies")
        candidates = in_canform = 0
        for fid, _, _, parent, _, from_algebra in spans:
            if fid == rename and from_algebra:
                candidates += 1
                in_canform += parent >= 0 and spans[parent][0] == canform
        attempts = rewrites = 0
        for s in spans:
            if s[0] == canform and isinstance(s[5], tuple) and s[5][2] is not None:
                attempts += 1
                rewrites += s[5][2]
        printing = {i for i, l in enumerate(self.layer_of) if l == "printing"}
        chars = sum(s[5] for s in spans if s[0] in printing and s[5] is not None
                    and (s[3] < 0 or spans[s[3]][0] not in printing))
        out = {
            "parse.self_ms": layer_ms("parse"),
            "parse.tokens": info_sum("parse.tokenize"),
            "cli.statements": fn_calls("cli.execute_statement"),
            "cli.self_ms": layer_ms("cli"),
            "exprs.add.calls": fn_calls("exprs.add"),
            "exprs.add.terms_in": info_sum("exprs.add"),
            "exprs.mul.calls": fn_calls("exprs.mul"),
            "exprs.validate.calls": fn_calls("exprs.validate"),
            "exprs.self_ms": layer_ms("exprs"),
            "algebra.contract.calls": fn_calls("algebra.contract"),
            "algebra.contract.self_ms": fn_self_ms("algebra.contract"),
            "algebra.canform.calls": fn_calls("algebra.canform"),
            "algebra.canform.terms_in": info_sum("algebra.canform", lambda i: i[0]),
            "algebra.canform.terms_out": info_sum("algebra.canform", lambda i: i[1]),
            "algebra.canform.self_ms": fn_self_ms("algebra.canform"),
            "algebra.canform.candidates": candidates,
            "algebra.canform.us_per_candidate": (
                total_s[canform] * 1e6 / in_canform if in_canform else 0.0),
            "calculus.self_ms": layer_ms("calculus"),
            "calculus.expand_components.calls": fn_calls("calculus.expand_components"),
            "rules.apply1.calls": fn_calls("rules.apply1"),
            "rules.apply1.self_ms": fn_self_ms("rules.apply1"),
            "rules.rewrite_attempts": attempts,
            "rules.rewrites": rewrites,
            "rules.useful_ratio": rewrites / attempts if attempts else 0.0,
            "lagrangian.self_ms": layer_ms("lagrangian"),
            "numeval.random_assignment.self_ms": fn_self_ms("numeval.random_assignment"),
            "numeval.numeric_eval.self_ms": fn_self_ms("numeval.numeric_eval"),
            "printing.render.self_ms": fn_self_ms("printing.render"),
            "printing.chars": chars,
        }
        parse_s = out["parse.self_ms"] / 1e3
        out["parse.tokens_per_s"] = out["parse.tokens"] / parse_s if parse_s else 0.0
        return out

    @property
    def count_mismatch(self) -> list[str]:
        """Count metrics that differ between traced passes."""
        return [name for name in COUNTS
                if len({p[name] for p in self.passes}) > 1]

    @property
    def layer_metrics(self) -> dict:
        """Counts of one traced pass; times as the median over traced passes."""
        first = self.passes[0]
        out = {name: first[name] for name in COUNTS}
        for name in TIMES_MS + ("parse.tokens_per_s",
                                "algebra.canform.us_per_candidate",
                                "rules.useful_ratio"):
            out[name] = statistics.median(p[name] for p in self.passes)
        return out

    def write_spans(self, path: str) -> None:
        """The first traced pass, as [name, start_s, end_s, parent, job]."""
        spans = self.first_spans or []
        t0 = spans[0][1] if spans else 0.0
        rows = [[self.names[fid], start - t0, end - t0, parent, job]
                for fid, start, end, parent, job, _ in spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)
