"""The builtin table: every row has its handler, and the evaluator enforces
each row's kind and argument counts."""

import inspect
import re
from pathlib import Path

import pytest

from indicial import Session
from indicial.cli import Evaluator
from indicial.errors import SemanticError
from indicial.parse import BUILTINS, COMMAND, SYNTAX, parse_program

PREFIX = "_builtin_"
README = Path(__file__).resolve().parents[1] / "README.md"


def handlers():
    return {
        name[len(PREFIX):]: fn
        for name, fn in vars(Evaluator).items()
        if name.startswith(PREFIX)
    }


def run(text):
    evaluator = Evaluator(Session())
    for stmt in parse_program(text):
        evaluator.execute_statement(stmt)


def call_text(name, n):
    return f"{name}({', '.join(['x'] * n)})"


def test_every_row_has_a_handler_and_every_handler_a_row():
    rows = {name for name, row in BUILTINS.items() if row.kind != SYNTAX}
    assert set(handlers()) == rows


def test_handler_signatures_match_arities():
    for name, fn in handlers().items():
        params = list(inspect.signature(fn).parameters.values())[1:]
        required = [p for p in params if p.default is p.empty
                    and p.kind is p.POSITIONAL_OR_KEYWORD]
        variadic = any(p.kind is p.VAR_POSITIONAL for p in params)
        most = None if variadic else len(params)
        assert (len(required), most) == BUILTINS[name][1:], name


@pytest.mark.parametrize(
    "name", [n for n, row in BUILTINS.items() if row.kind != SYNTAX]
)
def test_argument_counts_outside_the_row_raise(name):
    _, fewest, most = BUILTINS[name]
    counts = [fewest - 1] if fewest else []
    if most is not None:
        counts.append(most + 1)
    for n in counts:
        with pytest.raises(SemanticError, match=f"^{name} takes"):
            run(f"{call_text(name, n)};")


def test_euler_lagrange_rejects_extra_arguments():
    with pytest.raises(SemanticError, match="euler_lagrange takes 3 to 4"):
        run("imetric(g)$ L: A([k],[])*A([],[k])$ "
            "euler_lagrange(L, F([m,n]), k, [], junk, 7);")


def test_map_checks_the_lambda_arity():
    with pytest.raises(SemanticError, match="lambda takes 2"):
        run("map(lambda([x]), y([a],[]));")


@pytest.mark.parametrize(
    "name", [n for n, row in BUILTINS.items() if row.kind == COMMAND]
)
def test_commands_are_not_expressions(name):
    with pytest.raises(SemanticError, match="is a command"):
        run(f"ishow({call_text(name, BUILTINS[name].min_args)});")


@pytest.mark.parametrize(
    "name", [n for n, row in BUILTINS.items() if row.kind == SYNTAX]
)
def test_syntax_is_not_an_expression(name):
    with pytest.raises(SemanticError, match="cannot appear in an expression"):
        run(f"{call_text(name, BUILTINS[name].min_args)};")


def test_readme_lists_the_table_row_for_row():
    rows = re.findall(
        r"^\| `(\w+)` \| (\w+) \| ([\w ]+) \|", README.read_text(encoding="utf-8"),
        re.M,
    )

    def arguments(fewest, most):
        if most is None:
            return "any"
        return str(fewest) if fewest == most else f"{fewest} to {most}"

    assert rows == [
        (name, kind, arguments(fewest, most))
        for name, (kind, fewest, most) in BUILTINS.items()
    ]
