"""Runs one workload in a fresh interpreter.

Started by ``run.py`` as ``python perfbench/worker.py MODE`` from the root of
a checkout, with the checkout's ``src/`` on ``PYTHONPATH`` and a JSON request
on standard input.  MODE is one of

``setup``  import indicial, run the workload's preamble, build its inputs,
           print one JSON line and exit (``run.py`` times this from outside);
``run``    one untimed warm-up pass, then closed-loop passes over the timed
           inputs for the requested seconds, then the robustness inputs once;
``trace``  warm-up, then untraced and traced passes in alternation.

The result is one JSON object on standard output.  This module imports
nothing heavy before ``import indicial``, so the import time and whether
numpy got loaded are the engine's own.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

perf_counter = time.perf_counter

MIN_JOBS = 110


def main() -> int:
    mode = sys.argv[1]
    request = json.load(sys.stdin)
    t0 = perf_counter()
    import indicial  # noqa: F401  (timed: the engine's import cost)

    import_s = perf_counter() - t0
    numpy_loaded = "numpy" in sys.modules
    spec = request["spec"]
    bench = Workload(spec, spec["preamble"])
    jobs = [bench.prepare(job) for job in spec["jobs"]]
    if mode == "setup":
        print(json.dumps({"import_s": import_s, "numpy_loaded": numpy_loaded}),
              flush=True)
        os._exit(0)  # ready: interpreter teardown is not part of set-up

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
    loop = Loop(jobs, tracer)
    loop.run_pass(record=False)  # warm-up; its outputs are the ones checked
    loop.run_for(request["seconds"])
    result = {
        "passes": loop.pass_times,
        "job_times": loop.job_times,
        "attempted": loop.attempted,
        "outcomes": {job.name: loop.outcome(job) for job in jobs},
        "valuations": sum(job.valuations for job in jobs),
    }
    if tracer is not None:
        result["traced_passes"] = loop.traced_pass_times
        result["layers"] = tracer.layer_metrics
        result["count_mismatch"] = tracer.count_mismatch
        result["untraced_names"] = tracer.missing
        tracer.write_spans(request["spans_path"])
    else:
        robust = Workload(spec, spec["robust_preamble"])
        result["robust"] = {job["name"]: robust.run_once(robust.prepare(job))
                            for job in spec["robust"]}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def expr_data(expr) -> list:
    """An indicial Expression as the plain-list form of ``inputs``; inert
    covariant derivatives become ``["'covdiff", [factor, ...], index]``."""
    return [[t.coeff.numerator, t.coeff.denominator,
             [factor_data(f) for f in t.factors]] for t in expr.terms]


def factor_data(f) -> list:
    if hasattr(f, "index"):
        return ["'covdiff", [factor_data(g) for g in f.factors], f.index]
    return [f.name, [[lbl, up] for lbl, up in f.slots], list(f.derivs)]


class Job:
    """One timed input: ``call`` runs it; ``data`` turns its output into
    JSON for the checker; ``key`` is what must repeat from pass to pass."""

    def __init__(self, name, call, data, key=lambda out: out, valuations=0):
        self.name = name
        self.call = call
        self.data = data
        self.key = key
        self.valuations = valuations


class Workload:
    """A session with the workload's preamble, and the jobs that run on it.

    Engine functions are looked up on their modules at call time, so the
    tracer's wrappers are seen when installed.
    """

    def __init__(self, spec, preamble: str):
        from indicial import algebra, cli, exprs, numeval, parse, session

        self.algebra, self.cli, self.numeval, self.parse = algebra, cli, numeval, parse
        self.exprs = exprs
        self.dim = spec["dim"]
        self.session = session.Session()
        self.evaluator = cli.Evaluator(self.session, out=io.StringIO())
        self.execute(self.evaluator, preamble)

    def execute(self, evaluator, text):
        value = None
        for stmt in self.parse.parse_program(text):
            value = evaluator.execute_statement(stmt)
        return value

    def expression(self, terms):
        ex = self.exprs
        built = []
        for num, den, factors in terms:
            fs = tuple(ex.Factor(name, tuple((lbl, up) for lbl, up in slots),
                                 tuple(derivs)) for name, slots, derivs in factors)
            built.append(ex.Term(Fraction(num, den), fs))
        return ex.validate_expression(ex.Expression(tuple(built)))

    def prepare(self, job) -> Job:
        kind, name = job["kind"], job["name"]
        if kind == "script":
            text, trace = job["text"], job["trace"]

            def call():
                out = io.StringIO()
                evaluator = self.cli.Evaluator(trace=trace, out=out)
                value = self.execute(evaluator, text)
                return out.getvalue(), value

            return Job(name, call, lambda out: {"transcript": out[0],
                                                "value": self.value_data(out[1])})
        if kind == "stmt":
            text = job["text"]

            def call():
                try:
                    return self.execute(self.evaluator, text)
                finally:
                    self.session.history.clear()

            return Job(name, call, self.output_data)
        if kind == "canform":
            expr = self.expression(job["expr"])
            session, algebra = self.session, self.algebra
            if job["contract"]:
                def call():
                    return algebra.canform(session, algebra.contract(session, expr))
            else:
                def call():
                    return algebra.canform(session, expr)
            return Job(name, call, self.output_data)
        if kind == "numeval":
            expr = self.expression(job["expr"])
            session, numeval, seed, dim = self.session, self.numeval, job["seed"], self.dim

            def call():
                assignment = numeval.random_assignment(session, [expr], dim=dim,
                                                       seed=seed)
                return numeval.numeric_eval(expr, assignment), assignment

            def data(out):
                value, assignment = out
                return {"value": value, "metric": assignment.metric,
                        "arrays": {f"{n},{r},{d}": arr.tolist()
                                   for (n, r, d), arr in assignment.base.items()}}

            return Job(name, call, data, key=lambda out: out[0],
                       valuations=_valuations(job["expr"], dim))
        raise ValueError(f"unknown job kind {kind!r}")

    def run_once(self, job: Job) -> dict:
        try:
            return {"output": job.data(job.call())}
        except Exception as exc:  # every failure is a counted outcome
            return {"error": _describe(exc)}

    def output_data(self, out) -> dict:
        return {"value": self.value_data(out)}

    def value_data(self, value):
        if isinstance(value, self.exprs.Expression):
            return expr_data(value)
        return repr(value)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {str(exc)[:200]}"


def _valuations(terms, dim: int) -> int:
    """Sum over terms of dim ** (number of dummy pairs)."""
    total = 0
    for _, _, factors in terms:
        labels = [lbl for _, slots, derivs in factors
                  for lbl in [s[0] for s in slots] + derivs]
        total += dim ** (len(labels) - len(set(labels)))
    return total


class Loop:
    """Closed loop: each job starts as soon as the previous one returns."""

    def __init__(self, jobs, tracer):
        self.jobs = jobs
        self.tracer = tracer
        self.pass_times: list[float] = []
        self.traced_pass_times: list[float] = []
        self.job_times: list[list[float]] = [[] for _ in jobs]
        self.first_outputs: dict = {}
        self.errors: dict[str, str] = {}  # job name -> first problem seen
        self.attempted = 0
        self.passes = 0

    def run_pass(self, record: bool, traced: bool = False) -> float:
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.begin_pass()
        total = 0.0
        for i, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = self.passes * len(self.jobs) + i
            self.attempted += 1
            t0 = perf_counter()
            try:
                out = job.call()
            except Exception as exc:  # counted, never hidden
                dt = perf_counter() - t0
                self.errors.setdefault(job.name, _describe(exc))
                out = None
            else:
                dt = perf_counter() - t0
            total += dt
            if record and not traced:
                self.job_times[i].append(dt)
            first = self.first_outputs.setdefault(job.name, out)
            if out is not None and first is not None and job.key(out) != job.key(first):
                self.errors.setdefault(job.name, "output changed between passes")
        if tracer is not None:
            tracer.end_pass()
        self.passes += 1
        return total

    def outcome(self, job: Job) -> dict:
        if job.name in self.errors:
            return {"error": self.errors[job.name]}
        return {"output": job.data(self.first_outputs[job.name])}

    def run_for(self, seconds: float) -> None:
        start = perf_counter()
        while True:
            if self.tracer is None:
                self.pass_times.append(self.run_pass(record=True))
                enough = sum(map(len, self.job_times)) >= MIN_JOBS
            else:
                self.pass_times.append(self.run_pass(record=True))
                self.traced_pass_times.append(self.run_pass(record=True, traced=True))
                enough = len(self.traced_pass_times) >= 3
            if enough and perf_counter() - start >= seconds:
                return


if __name__ == "__main__":
    sys.exit(main())
