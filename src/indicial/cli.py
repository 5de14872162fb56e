"""Statement evaluator, script runner, and interactive loop."""

from __future__ import annotations

import sys

from . import algebra, calculus, rules
from .errors import (
    HistoryError,
    IndicialError,
    ParseError,
    SemanticError,
)
from .exprs import (
    Expression,
    Factor,
    RunningProduct,
    Term,
    extend_sum,
    neg,
    power,
    scalar,
    sub,
    validate,
)
from .lagrangian import euler_lagrange
from .parse import (
    BUILTINS,
    COMMAND,
    SYNTAX,
    Bin,
    Call,
    HistRef,
    ListNode,
    Num,
    Product,
    Statement,
    Sum,
    Unary,
    VarRef,
    Wrap,
    parse_expression,
    parse_program,
    tokenize,
)
from .printing import render
from .session import Session

DONE = "done"


def _as_rational(expr: Expression):
    if expr.is_zero():
        return 0
    if len(expr.terms) == 1 and not expr.terms[0].factors:
        return expr.terms[0].coeff
    return None


def _check_arity(node: Call) -> None:
    """Raise unless the call's argument count fits its builtin table row."""
    _, fewest, most = BUILTINS[node.fn]
    n = len(node.args)
    if fewest <= n and (most is None or n <= most):
        return
    if most is None:
        count = f"at least {fewest}"
    else:
        count = str(fewest) if most == fewest else f"{fewest} to {most}"
    plural = "" if count == "1" else "s"
    raise SemanticError(f"{node.fn} takes {count} argument{plural}")


class Evaluator:
    """Executes parsed statements against a session, printing the transcript."""

    def __init__(self, session: Session | None = None, fmt: str = "plain",
                 trace: bool = False, out=None):
        self.session = session or Session()
        self.fmt = fmt
        self.trace = trace
        self.out = out if out is not None else sys.stdout
        self.stmt_no = 0

    # -- output --

    def _write(self, text: str) -> None:
        self.out.write(text + "\n")

    def render_value(self, value) -> str:
        if isinstance(value, Expression):
            return render(value, self.fmt)
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    # -- statements --

    def execute(self, statements: list[Statement]) -> None:
        for stmt in statements:
            self.execute_statement(stmt)

    def execute_statement(self, stmt: Statement):
        self.stmt_no += 1
        if stmt.assign_name == "igeowedge_flag":
            value = self._eval_flag(stmt.node)
            self.session.set_geowedge(value)
        elif stmt.assign_name is not None:
            value = self.eval_expr(stmt.node)
            self.session.bindings[stmt.assign_name] = value
        elif (isinstance(stmt.node, Call)
              and BUILTINS[stmt.node.fn].kind == COMMAND):
            value = self._run_builtin(stmt.node)
        else:
            value = self.eval_expr(stmt.node)
        self.session.record(value)
        if stmt.echo:
            self._write(f"(%o{self.stmt_no}) {self.render_value(value)}")
        return value

    def _eval_flag(self, node) -> bool:
        if isinstance(node, VarRef) and node.name in ("true", "false"):
            return node.name == "true"
        raise SemanticError("flags take the values true or false")

    # -- builtins --

    def _run_builtin(self, node: Call):
        _check_arity(node)
        return getattr(self, "_builtin_" + node.fn)(*node.args)

    @staticmethod
    def _name_arg(node, what: str) -> str:
        if isinstance(node, VarRef):
            return node.name
        raise SemanticError(f"expected a {what} name")

    def _builtin_load(self, package):
        return DONE

    def _builtin_imetric(self, name):
        self.session.set_metric(self._name_arg(name, "metric"))
        return DONE

    def _builtin_idim(self, n):
        if isinstance(n, Num):
            self.session.set_dimension(n.value)
        elif isinstance(n, VarRef) and n.name == "dim":
            self.session.dimension = None
        else:
            raise SemanticError("idim takes a positive integer or dim")
        return DONE

    def _builtin_decsym(self, name, cov_arity, contra_arity, cov_blocks,
                        contra_blocks):
        name = self._name_arg(name, "tensor")
        if not (isinstance(cov_arity, Num) and isinstance(contra_arity, Num)):
            raise SemanticError("decsym arities must be integers")

        def blocks(node):
            if not isinstance(node, ListNode):
                raise SemanticError("decsym blocks must be lists")
            specs = []
            for item in node.items:
                if not isinstance(item, Call) or item.fn not in ("sym", "anti"):
                    raise SemanticError("blocks are sym(...) or anti(...)")
                if (
                    len(item.args) == 1
                    and isinstance(item.args[0], VarRef)
                    and item.args[0].name == "all"
                ):
                    specs.append((item.fn, "all"))
                elif all(isinstance(arg, Num) for arg in item.args):
                    specs.append((item.fn, [arg.value for arg in item.args]))
                else:
                    raise SemanticError("block positions must be integers")
            return specs

        algebra.decsym(
            self.session, name, cov_arity.value, contra_arity.value,
            blocks(cov_blocks), blocks(contra_blocks),
        )
        return DONE

    def _builtin_components(self, signature, definition):
        if not isinstance(signature, Factor):
            raise SemanticError(
                "components takes a tensor signature and a definition"
            )
        rules.components(self.session, signature, self.eval_expr(definition))
        return DONE

    def _builtin_remcomps(self, name):
        rules.remcomps(self.session, self._name_arg(name, "tensor"))
        return DONE

    def _builtin_matchdeclare(self, *args):
        labels = []
        for arg in args:
            name = self._name_arg(arg, "metavariable")
            if name != "atom":
                labels.append(name)
        rules.matchdeclare(self.session, labels)
        return DONE

    def _builtin_defrule(self, name, pattern, replacement):
        name = self._name_arg(name, "rule")
        rules.defrule(
            self.session, name, self.eval_expr(pattern),
            self.eval_expr(replacement),
        )
        return name

    def _builtin_apply(self, fn, args):
        if not (
            isinstance(fn, VarRef)
            and fn.name == "defrule"
            and isinstance(args, ListNode)
        ):
            raise SemanticError("apply only wraps defrule")
        return self._run_builtin(Call("defrule", args.items))

    def _builtin_ishow(self, expr):
        value = self._expr_arg(expr)
        self._write(f"(%t{self.stmt_no}) {self.render_value(value)}")
        return value

    def _builtin_canform(self, expr):
        return algebra.canform(self.session, self._expr_arg(expr))

    def _builtin_contract(self, expr):
        return algebra.contract(self.session, self._expr_arg(expr))

    def _builtin_expand(self, expr):
        return algebra.expand(self.session, self._expr_arg(expr))

    def _builtin_diff(self, expr, target):
        expr = self._expr_arg(expr)
        if isinstance(target, VarRef):
            target = Factor(target.name)
        elif not isinstance(target, Factor):
            raise SemanticError("diff differentiates by an indexed object")
        return calculus.fdiff(self.session, expr, target)

    def _builtin_idiff(self, expr, index):
        return calculus.idiff(self._expr_arg(expr), self._index_arg(index))

    def _builtin_covdiff(self, expr, index):
        return calculus.covdiff(
            self.session, self._expr_arg(expr), self._index_arg(index)
        )

    def _builtin_extdiff(self, expr, index):
        return calculus.extdiff(
            self.session, self._expr_arg(expr), self._index_arg(index)
        )

    def _builtin_apply1(self, expr, rule):
        if not isinstance(rule, VarRef):
            raise SemanticError("apply1 takes an expression and a rule name")
        return rules.apply1(self.session, self._expr_arg(expr), rule.name)

    def _builtin_lhs(self, expr):
        return self._expr_arg(expr)

    def _builtin_map(self, lam, expr):
        shape_error = SemanticError(
            "map only supports lambda([x], 'covdiff(x, index))"
        )
        if not (isinstance(lam, Call) and lam.fn == "lambda"):
            raise shape_error
        _check_arity(lam)
        params, body = lam.args
        if not (
            isinstance(params, ListNode)
            and len(params.items) == 1
            and isinstance(params.items[0], VarRef)
        ):
            raise shape_error
        var = params.items[0].name
        if not (
            isinstance(body, Wrap)
            and len(body.indices) == 1
            and isinstance(body.body, VarRef)
            and body.body.name == var
        ):
            raise shape_error
        return calculus.mapcovdiff(self.session, self._expr_arg(expr), body.indices[0])

    def _builtin_mapcovdiff(self, expr, index):
        return calculus.mapcovdiff(
            self.session, self._expr_arg(expr), self._index_arg(index)
        )

    def _builtin_euler_lagrange(self, lagrangian, field, index, rule_list=None):
        if not isinstance(field, Factor):
            raise SemanticError(
                "euler_lagrange takes a Lagrangian, a field pattern, a "
                "derivative index, and optionally a rule list"
            )
        lagrangian = self._expr_arg(lagrangian)
        deriv_index = self._index_arg(index)
        rule_names: list[str] = []
        if rule_list is not None:
            if not isinstance(rule_list, ListNode):
                raise SemanticError("the rule list must be a list of rule names")
            rule_names = [self._name_arg(item, "rule") for item in rule_list.items]
        equation = euler_lagrange(
            self.session, lagrangian, field, deriv_index, rule_names
        )
        if self.trace:
            for label, stage in equation.trace:
                self._write(f"(trace) {label}: {self.render_value(stage)}")
        return equation.lhs

    # -- expressions --

    @staticmethod
    def _index_arg(node) -> str:
        if isinstance(node, VarRef):
            return node.name
        raise SemanticError("expected an index label")

    def _expr_arg(self, node) -> Expression:
        value = self.eval_expr(node)
        if not isinstance(value, Expression):
            raise SemanticError("expected a tensor expression")
        return value

    def eval_expr(self, node) -> Expression:
        session = self.session
        if isinstance(node, Num):
            return scalar(node.value)
        if isinstance(node, Factor):
            session.register_arity(node.name, node.rank)
            expr = Expression((validate(Term(1, (node,))),))
            return calculus.expand_components(session, expr)
        if isinstance(node, VarRef):
            bound = session.bindings.get(node.name)
            if bound is not None:
                if not isinstance(bound, Expression):
                    raise SemanticError(f"{node.name!r} is not an expression")
                return bound
            if node.name in ("true", "false"):
                raise SemanticError(f"{node.name!r} is not a tensor expression")
            # unbound bare name: a scalar symbol
            factor = Factor(node.name)
            session.register_arity(node.name, 0)
            expr = Expression((Term(1, (factor,)),))
            return calculus.expand_components(session, expr)
        if isinstance(node, HistRef):
            value = session.recall(node.n)
            if not isinstance(value, Expression):
                raise HistoryError(
                    f"history entry %th({node.n}) is not an expression"
                )
            return value
        if isinstance(node, Unary):
            return neg(self._expr_arg(node.operand))
        if isinstance(node, Sum):
            return self._eval_sum(node)
        if isinstance(node, Product):
            return self._eval_product(node)
        if isinstance(node, Bin):
            return self._eval_bin(node)
        if isinstance(node, Wrap):
            body = self._expr_arg(node.body)
            for idx in node.indices:
                body = calculus.mapcovdiff(session, body, idx)
            return body
        if isinstance(node, Call):
            kind = BUILTINS[node.fn].kind
            if kind == COMMAND:
                raise SemanticError(f"{node.fn!r} is a command, not an expression")
            if kind == SYNTAX:
                raise SemanticError(f"{node.fn!r} cannot appear in an expression")
            return self._run_builtin(node)
        if isinstance(node, ListNode):
            raise SemanticError("a list is not an expression")
        raise SemanticError(f"cannot evaluate {type(node).__name__}")

    def _eval_bin(self, node: Bin) -> Expression:
        if node.op == "^":
            base = self._expr_arg(node.left)
            exponent = self.eval_expr(node.right)
            q = _as_rational(exponent)
            if q is None or q.denominator != 1 or q < 0:
                raise SemanticError("exponents must be nonnegative integers")
            return power(base, int(q))
        if node.op == "=":
            return sub(self._expr_arg(node.left), self._expr_arg(node.right))
        raise SemanticError(f"unknown operator {node.op!r}")

    def _eval_sum(self, node: Sum) -> Expression:
        # The first operand's terms are checked together with the second's,
        # as a left-to-right chain of binary additions would check them.
        terms: list[Term] = []
        pending = self._expr_arg(node.operands[0]).terms
        for op, operand in zip(node.ops, node.operands[1:]):
            value = self._expr_arg(operand)
            if op == "-":
                value = neg(value)
            extend_sum(terms, pending + value.terms)
            pending = ()
        return Expression(tuple(terms))

    def _eval_product(self, node: Product) -> Expression:
        """The operands, in source order, multiplied into one ``RunningProduct``:
        numbers and (after a ``*``) tensor literals with no component definition
        go in directly, a literal's rank registered as evaluating it would."""
        session, product = self.session, RunningProduct()
        for op, operand in zip(("*",) + node.ops, node.operands):
            kind = operand.__class__
            if kind is Factor and op == "*" and operand.name not in session.components:
                session.register_arity(operand.name, len(operand.slots))
                product.times_factor(operand)
                continue
            if kind is Num or kind is Unary and operand.operand.__class__ is Num:
                q = operand.value if kind is Num else -operand.operand.value
            elif (q := _as_rational(value := self._expr_arg(operand))) is None:
                if op == "/":
                    raise SemanticError("division is only defined by rational scalars")
                product.times(value.terms)
                continue
            if op == "/" and not q:
                raise SemanticError("division by zero")
            product.times_number(q, op == "/")
        return product.expression()


def evaluate_expression(text: str, session: Session | None = None) -> Expression:
    """Parse and evaluate a single expression against a session."""
    evaluator = Evaluator(session or Session())
    return evaluator.eval_expr(parse_expression(text))


def run_script(path: str, session: Session | None = None, fmt: str = "plain",
               trace: bool = False, out=None, err=None) -> int:
    """Execute a script file; returns the process exit status.

    Parse errors exit 1, validation and semantic errors exit 2, an internal
    error (an exception outside the engine's hierarchy, a defect) exits 3,
    success 0.  The transcript goes to standard output, diagnostics to
    standard error, each evaluation diagnostic prefixed with the line and
    column where its statement starts.
    """
    err = err if err is not None else sys.stderr
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        err.write(f"cannot read {path}: {exc}\n")
        return 1
    try:
        statements = parse_program(text)
    except ParseError as exc:
        err.write(f"parse error: {exc}\n")
        return 1
    evaluator = Evaluator(session, fmt=fmt, trace=trace, out=out)
    for stmt in statements:
        try:
            evaluator.execute_statement(stmt)
        except IndicialError as exc:
            err.write(_diagnostic(evaluator, stmt, exc) + "\n")
            return 2
        except Exception as exc:  # a defect: report it, never a traceback
            err.write(_diagnostic(evaluator, stmt, exc) + "\n")
            return 3
    return 0


def _diagnostic(evaluator: Evaluator, stmt: Statement, exc: Exception) -> str:
    """``line L, column C: statement N: Class: message``; exceptions outside
    the engine's hierarchy are marked as internal errors."""
    kind = type(exc).__name__
    if not isinstance(exc, IndicialError):
        kind = f"internal error: {kind}"
    return (f"line {stmt.line}, column {stmt.col}: "
            f"statement {evaluator.stmt_no}: {kind}: {exc}")


def repl(session: Session | None = None, fmt: str = "plain",
         trace: bool = False) -> int:
    """Interactive loop: reads statements, keeps the session alive across
    errors, exits on quit; or end of input.  Each line is tokenized once, up
    to a comment it leaves open, to find a statement end; the entry is
    tokenized once more to run."""
    evaluator = Evaluator(session, fmt=fmt, trace=trace)
    buffer, scanned, ended = "", 0, False  # ended: a ``;`` or ``$`` seen
    while True:
        prompt = f"(%i{evaluator.stmt_no + 1}) " if not buffer else "      "
        try:
            line = input(prompt)
        except EOFError:
            print()
            return 0
        except KeyboardInterrupt:
            print()
            buffer, scanned, ended = "", 0, False
            continue
        buffer += line + "\n"
        # where a comment left open starts, or -1: as in the tokenizer, a
        # comment ends at the first */ after its /*, and no other token has /*
        opened = scanned
        while (opened := buffer.find("/*", opened)) >= 0:
            if (close := buffer.find("*/", opened + 2)) < 0:
                break
            opened = close + 2
        try:
            tokens = tokenize(buffer[scanned:opened if opened >= 0 else None])
        except ParseError:
            pass  # parsing the entry reports the error where it stands
        else:
            scanned = opened if opened >= 0 else len(buffer)
            ended = ended or any(tok.kind in (";", "$") for tok in tokens)
            if not ended or opened >= 0:
                continue
        text, buffer, scanned, ended = buffer, "", 0, False
        try:
            statements = parse_program(text)
        except ParseError as exc:
            print(f"error: {exc}")
            continue
        for stmt in statements:
            if isinstance(stmt.node, VarRef) and stmt.node.name == "quit":
                return 0
            try:
                evaluator.execute_statement(stmt)
            except Exception as exc:  # the session survives every error
                print(f"error: {_diagnostic(evaluator, stmt, exc)}")


def main(argv=None) -> int:
    import argparse  # here, so that importing the library does not load it
    import signal

    if argv is None and hasattr(signal, "SIGPIPE"):
        # as the program, a closed stdout ends the run silently, as it ends
        # cat; a caller that passes argv keeps its own process's handling
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)

    parser = argparse.ArgumentParser(
        prog="indicial",
        description="Symbolic indicial tensor algebra engine",
    )
    parser.add_argument("--script", metavar="FILE", help="run a script file")
    parser.add_argument("--repl", action="store_true", help="interactive session")
    parser.add_argument("--dim", type=int, help="fix the dimension")
    parser.add_argument(
        "--format", choices=("plain", "latex", "json"), default="plain",
        help="output rendering",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="emit the Euler-Lagrange derivation trace",
    )
    args = parser.parse_args(argv)
    if args.dim is not None and args.dim < 1:
        parser.error("argument --dim: the dimension must be a positive integer")

    session = Session()
    if args.dim is not None:
        session.set_dimension(args.dim)
    if args.script:
        return run_script(
            args.script, session, fmt=args.format, trace=args.trace
        )
    if args.repl or sys.stdin.isatty():
        return repl(session, fmt=args.format, trace=args.trace)
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
