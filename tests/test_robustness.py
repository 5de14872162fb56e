"""Random three-statement scripts over every call builtin and component
definitions, some of them cyclic: each run ends with exit status 0, 1 or 2
(never 3, an internal error), and its transcript and diagnostics are the
same under two hash seeds.  A rule whose every rewrite builds a longer
product ends in ``ProductSizeError``."""

import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from indicial.cli import run_script
from indicial.parse import BUILTINS, CALL

from test_golden import run_python

PREAMBLE = (
    "imetric(g)$\n"
    "decsym(F,0,2,[],[anti(all)])$\n"
    "decsym(S,2,0,[sym(all)],[])$\n"
    "matchdeclare(a,atom,b,atom)$\n"
    "apply(defrule,[Maxwell,extdiff(A([a],[]),b),F([a,b],[])])$\n"
    "defrule(CC,'covdiff('covdiff(F([],[a,b]),b),a),0)$\n"
)

LABELS = "mnklpq"

label = st.sampled_from(LABELS)
pair = st.lists(label, min_size=2, max_size=2, unique=True)
atom = st.one_of(
    st.builds("A([{}],[])".format, label),
    st.builds("A([],[{}])".format, label),
    pair.map("A([{0[0]}],[],{0[1]})".format),
    pair.map("F([],[{0[0]},{0[1]}])".format),
    pair.map("S([{0[0]},{0[1]}],[])".format),
    pair.map("g([],[{0[0]},{0[1]}])".format),
    st.builds("j([{}],[])".format, label),
    st.sampled_from(["phi", "phi([],[],m)", "phi([],[],n)", "2", "-1/3", "%th(1)"]),
)
# scalars, so that sums and products of them are valid
closed = st.one_of(
    pair.map("A([{0[0]}],[],{0[1]})*F([],[{0[0]},{0[1]}])".format),
    pair.map("A([{0[0]}],[])*A([],[{0[0]}])".format),
    pair.map("S([{0[0]},{0[1]}],[])*g([],[{0[0]},{0[1]}])".format),
    pair.map("j([{0[0]}],[])*A([{0[1]}],[])*g([],[{0[0]},{0[1]}])".format),
    pair.map("phi([],[],{0[0]})*phi([],[],{0[1]})*g([],[{0[0]},{0[1]}])".format),
)

CALLS = {
    "ishow": "ishow({e})",
    "canform": "canform({e})",
    "contract": "contract({e})",
    "expand": "expand({e})",
    "diff": "diff({e},A([{i}],[]))",
    "idiff": "idiff({e},{i})",
    "covdiff": "covdiff({e},{i})",
    "extdiff": "extdiff({e},{i})",
    "apply1": "apply1({e},Maxwell)",
    "lhs": "lhs({e})",
    "map": "map(lambda([x],'covdiff(x,{i})),{e})",
    "mapcovdiff": "mapcovdiff({e},{i})",
    "euler_lagrange": "euler_lagrange({e},phi([],[]),{i})",
}
assert set(CALLS) == {name for name, row in BUILTINS.items() if row.kind == CALL}


def combine(children):
    return st.one_of(
        st.tuples(children, children).map("{0[0]}*{0[1]}".format),
        st.tuples(children, children).map("{0[0]} + {0[1]}".format),
        children.map("-1/2*{}".format),
        children.map("({})^2".format),
        st.tuples(st.sampled_from(sorted(CALLS)), children, label).map(
            lambda c: CALLS[c[0]].format(e=c[1], i=c[2])),
    )


expression = st.recursive(atom | closed, combine, max_leaves=5)
# component definitions of A_m or j_m, some reaching their own signature
# directly or through the other one, which is refused
definition = st.one_of(
    st.sampled_from(["A([m],[])", "2*A([m],[])", "j([m],[])", "-j([m],[])/2",
                     "A([],[n])*g([m,n],[])", "j([n],[],m,n)"]),
    closed.map("j([m],[])*{}".format),
)
components = st.builds("components({}([m],[]),{})$".format,
                       st.sampled_from(["A", "j"]), definition)
plain = st.tuples(expression, st.sampled_from(["$", ";"])).map("".join)
statement = st.one_of(plain, plain, plain, components)  # one in four defines
script = st.lists(statement, min_size=3, max_size=3).map(
    lambda stmts: PREAMBLE + "\n".join(stmts) + "\n")

RUNNER = """
import io, json, sys
from indicial.cli import run_script
results = []
for path in sys.argv[1:]:
    out, err = io.StringIO(), io.StringIO()
    status = run_script(path, out=out, err=err)
    results.append([status, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def run_batch(paths, hashseed):
    proc = run_python(["-c", RUNNER, *map(str, paths)], hashseed)
    assert (proc.returncode, proc.stderr) == (0, "")
    return json.loads(proc.stdout)


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(scripts=st.lists(script, min_size=25, max_size=25))
def test_random_scripts_end_cleanly_and_deterministically(tmp_path, scripts):
    paths = []
    for i, text in enumerate(scripts):
        path = tmp_path / f"s{i}.ind"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    first = run_batch(paths, "0")
    for (status, _, err), text in zip(first, scripts):
        assert status in (0, 1, 2), (text, err)
    assert run_batch(paths, "1234") == first


@settings(max_examples=2, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(factor=st.sampled_from(["phi", "psi", "2*psi", "phi*psi"]), subject=closed)
def test_growing_rules_end_in_product_size_error(tmp_path, factor, subject):
    path = tmp_path / "grow.ind"
    path.write_text(PREAMBLE + f"defrule(Grow,phi,{factor}*phi)$\n"
                    f"apply1(phi*{subject},Grow);\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    assert run_script(str(path), out=out, err=err) == 2
    assert "ProductSizeError" in err.getvalue()


def test_cyclic_definitions_end_in_semantic_error(tmp_path):
    path = tmp_path / "cycle.ind"
    for text, where in (
            ("components(F([a],[]),F([a],[]))$ F([b],[]);\n", "line 1, column 1:"),
            ("components(F([a],[]),G([a],[]))$\ncomponents(G([a],[]),F([a],[]))$\n"
             "F([b],[]);\n", "line 2, column 1:")):
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        assert run_script(str(path), out=out, err=err) == 2
        assert err.getvalue().startswith(where)
        assert "SemanticError" in err.getvalue()
