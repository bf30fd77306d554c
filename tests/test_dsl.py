import ast
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import knightian
from knightian.dsl import (
    MAX_DEPTH,
    BinOp,
    Call,
    EvalDomainError,
    ExprDepthError,
    Lit,
    Neg,
    PayoffParseError,
    Pow,
    Var,
    evaluate,
    parse,
    pretty_print,
)

from helpers import random_payoff

DIGITS = sys.get_int_max_str_digits()  # the most digits str() writes of an int


class TestParse:
    def test_example_payoff_tree(self):
        assert parse("min(exp(x), 1)") == Call(
            "min", (Call("exp", (Var(),)), Lit(1.0))
        )

    def test_numbers(self):
        assert parse("2") == Lit(2.0)
        assert parse("2.5e-3") == Lit(0.0025)
        assert parse(".5") == Lit(0.5)

    def test_whitespace_insensitive(self):
        assert parse(" min ( exp ( x ) , 1 ) ") == parse("min(exp(x),1)")

    def test_arithmetic_precedence(self):
        assert parse("1 + 2*x") == BinOp("+", Lit(1.0), BinOp("*", Lit(2.0), Var()))
        assert parse("1 - x - 2") == BinOp("-", BinOp("-", Lit(1.0), Var()), Lit(2.0))
        assert parse("x/2/4") == BinOp("/", BinOp("/", Var(), Lit(2.0)), Lit(4.0))

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse("-x^2") == Neg(Pow(Var(), 2))
        assert evaluate(parse("-x^2"), 3.0) == -9.0

    def test_unary_minus_in_products(self):
        assert parse("-x*3") == BinOp("*", Neg(Var()), Lit(3.0))
        assert evaluate(parse("2*-3"), 0.0) == -6.0
        assert evaluate(parse("x - -1"), 2.0) == 3.0

    def test_negative_exponent(self):
        assert parse("x^-1") == Pow(Var(), -1)
        assert evaluate(parse("x^-1"), 4.0) == 0.25

    def test_parenthesized_grouping(self):
        assert evaluate(parse("(1 + x)^2"), 2.0) == 9.0

    def test_empty_input(self):
        with pytest.raises(PayoffParseError):
            parse("")
        with pytest.raises(PayoffParseError):
            parse("   ")

    def test_unknown_identifier_offset(self):
        with pytest.raises(PayoffParseError) as exc:
            parse("min(exp(y), 1)")
        assert exc.value.offset == 8

    def test_unknown_character_offset(self):
        with pytest.raises(PayoffParseError) as exc:
            parse("x + $")
        assert exc.value.offset == 4

    def test_trailing_garbage(self):
        with pytest.raises(PayoffParseError) as exc:
            parse("x 1")
        assert exc.value.offset == 2

    def test_wrong_arity(self):
        with pytest.raises(PayoffParseError, match=r"^min takes 2 arguments, got 1 \(offset 4\)$"):
            parse("x + min(x)")
        with pytest.raises(PayoffParseError, match=r"^exp takes 1 argument, got 2 \(offset 0\)$"):
            parse("exp(x, 1)")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(PayoffParseError):
            parse("x^2.5")
        with pytest.raises(PayoffParseError):
            parse("x^x")

    def test_double_power_needs_parens(self):
        with pytest.raises(PayoffParseError):
            parse("x^2^2")

    def test_non_finite_literal_rejected(self):
        for text, offset in (("1e999", 0), ("-1e999", 1), ("x + 2e308", 4)):
            with pytest.raises(PayoffParseError) as info:
                parse(text)
            assert info.value.offset == offset
        assert parse("1e-999") == Lit(0.0)  # underflow is still a finite number

    def test_nesting_limit(self):
        # x may sit inside MAX_DEPTH - 1 brackets, calls or minus signs
        inner = MAX_DEPTH - 1
        assert parse("(" * inner + "x" + ")" * inner) == Var()
        assert parse("-" * inner + "x") is not None
        assert parse("exp(" * inner + "x" + ")" * inner) is not None
        assert parse("x" + " + x" * inner) is not None
        too_deep = [
            "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
            "(" * 3000 + "x" + ")" * 3000,
            "-" * 3000 + "x",
            "exp(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
            # a flat chain parses in a loop but nests the tree as deeply
            "x" + " + x" * MAX_DEPTH,
        ]
        for text in too_deep:
            with pytest.raises(PayoffParseError, match="deeper than"):
                parse(text)

    def test_code_built_tree_depth_checked(self):
        # trees built in code skip the parser; building a node past MAX_DEPTH
        # raises, so evaluate and pretty_print never overflow the stack
        def nested(levels):
            node = Var()
            for _ in range(levels):
                node = Neg(node)
            return node

        ok = nested(MAX_DEPTH - 1)
        assert evaluate(ok, 2.0) == (-2.0 if (MAX_DEPTH - 1) % 2 else 2.0)
        assert pretty_print(ok).count("-") == MAX_DEPTH - 1
        for levels in (MAX_DEPTH, 5000):
            with pytest.raises(ExprDepthError, match="deeper than"):
                evaluate(nested(levels), np.linspace(-1.0, 1.0, 5))
            with pytest.raises(ExprDepthError, match="deeper than"):
                pretty_print(nested(levels))
        assert issubclass(ExprDepthError, ValueError)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: BinOp("%", Var(), Lit(2.0)), "unknown operator '%'"),
            (lambda: Call("min", (Var(),)), "min takes 2 arguments, got 1"),
            (lambda: Call("cos", (Var(),)), "unknown function 'cos'"),
            (lambda: Call(["min"], (Var(), Var())), "unknown function ['min']"),
            (lambda: Pow(Var(), 2.5), "exponent must be an integer, got 2.5"),
            (lambda: Pow(Var(), True), "exponent must be an integer, got True"),
            (lambda: Lit(math.inf), "literal inf is not a finite number"),
            (lambda: Lit(math.nan), "literal nan is not a finite number"),
            (lambda: Lit("2"), "literal '2' is not a finite number"),
            (lambda: Neg(2.0), "Neg takes expression nodes"),
            (lambda: BinOp("+", Var(), 2.0), "BinOp takes expression nodes"),
            (lambda: Call("max", [Var(), Var()]), "Call takes expression nodes"),
            (lambda: Call("exp", Var()), "exp takes a tuple of arguments, got Var"),
            (
                lambda: Lit(10**5000),
                f"literal ... (more than {DIGITS} digits) is not a finite number",
            ),
            (lambda: Pow(Var(), 10**5000), f"exponent of more than {DIGITS} digits is too long"),
            (lambda: Pow(Var(), -(10**5000)), f"exponent of more than {DIGITS} digits is too long"),
        ],
        ids=[
            "operator", "arity", "function", "list-function", "fractional-exponent",
            "bool-exponent", "infinite-literal", "nan-literal", "string-literal", "neg-child",
            "binop-child", "list-args", "lone-node-args", "literal-past-str-digits",
            "exponent-past-str-digits", "negative-exponent-past-str-digits",
        ],
    )
    def test_code_built_node_checked(self, build, message):
        # trees built in code skip the parser; every node checks its fields as
        # it is built, so pretty_print never writes text that does not re-parse
        with pytest.raises(PayoffParseError) as info:
            build()
        assert str(info.value) == f"{message} (offset 0)"
        assert not isinstance(info.value, ExprDepthError)

    def test_numbers_stored_as_checked(self):
        # a code-built node stores the Python float or int its check returned,
        # so equal nodes hash equal and evaluate equal
        narrow = np.float32(0.7)
        assert type(Pow(Var(), np.int64(2)).exponent) is int
        assert Pow(Var(), np.int64(2)) == Pow(Var(), 2)
        assert Lit(narrow) != Lit(0.7)
        nodes = [
            Lit(0.7), Lit(np.float64(0.7)), Lit(Fraction(7, 10)), Lit(narrow), Lit(float(narrow)),
            Lit(1), Lit(1.0), Pow(Var(), np.int64(2)), Pow(Var(), 2),
        ]
        for a in nodes:
            for b in nodes:
                if a == b:
                    assert hash(a) == hash(b)
                    assert evaluate(a, 0.5) == evaluate(b, 0.5)

    def test_literal_past_float_range_refused(self):
        # an int too large for a float is refused as any other literal is,
        # shown by its first 24 digits and its count of them
        with pytest.raises(PayoffParseError) as info:
            Lit(10**400)
        shown = "1" + "0" * 23 + "... (401 digits)"
        assert str(info.value) == f"literal {shown} is not a finite number (offset 0)"

    @pytest.mark.parametrize(
        "build, message, offset",
        [
            (lambda: Lit(10**400), "literal 100000000000000000000000... (401 digits) is", 0),
            (lambda: parse("1" * 400), f"number {'1' * 24!r}... (400 characters) is", 0),
            (lambda: parse("x + " + "9" * 5000), f"number {'9' * 24!r}... (5000 characters)", 4),
        ],
        ids=["literal", "number", "number-past-str-digits"],
    )
    def test_long_number_refused_in_short(self, build, message, offset):
        # a refusal caps the number it shows, at its first 24 digits or
        # characters, and the parser's keeps the number's offset
        with pytest.raises(PayoffParseError) as info:
            build()
        assert str(info.value).startswith(message) and len(str(info.value)) < 200
        assert info.value.offset == offset

    def test_longest_exponent_prints_and_parses_back(self):
        # Pow admits the exponents the parser reads: up to str()'s limit on digits
        for exponent in (10 ** (DIGITS - 1), -(10 ** (DIGITS - 1))):
            node = Pow(Var(), exponent)
            assert parse(pretty_print(node)) == node

    def test_depth_set_at_construction(self):
        # n = n + n shares one node per level: each node reads its children's
        # depth once, so building costs one step per level, not one per path
        node = Var()
        for _ in range(19):
            node = BinOp("+", node, node)
        assert node.depth == 20
        for _ in range(MAX_DEPTH - 20):
            node = BinOp("+", node, node)
        assert node.depth == MAX_DEPTH
        with pytest.raises(ExprDepthError, match="deeper than"):
            BinOp("+", node, node)

    def test_unclosed_paren(self):
        with pytest.raises(PayoffParseError):
            parse("min(exp(x), 1")


class TestEvaluate:
    def test_example_values(self):
        e = parse("min(exp(x), 1)")
        assert evaluate(e, 0.0) == 1.0
        assert evaluate(e, -1.0) == pytest.approx(0.36787944117144233, abs=1e-16)
        assert evaluate(e, 2.0) == 1.0

    def test_kink_complement(self):
        e = parse("1 - min(exp(x), 1)")
        assert evaluate(e, 0.0) == 0.0

    def test_vectorized_matches_scalar(self):
        e = parse("max(tanh(x), x^3 - 1) + abs(x)/2")
        xs = np.linspace(-3, 3, 41)
        vec = evaluate(e, xs)
        assert vec.shape == xs.shape
        for i, x in enumerate(xs):
            assert vec[i] == evaluate(e, float(x))

    @settings(max_examples=300)
    @given(
        st.integers(0, 2**32 - 1).map(lambda seed: random_payoff(np.random.default_rng(seed))),
        st.floats(),
    )
    @example(parse("x^3"), 0.01)
    @example(parse("x^400"), 10.0)
    def test_point_and_one_element_array_agree(self, expr, x):
        # under the CLI's floating-point regime, a point and a one-element
        # array give the same bits or fail the same way
        outcomes = []
        for point in (x, np.array([x])):
            with np.errstate(over="raise", invalid="raise"):
                try:
                    outcomes.append(np.ravel(evaluate(expr, point))[0].tobytes())
                except ArithmeticError as err:
                    outcomes.append(type(err))
        assert outcomes[0] == outcomes[1]

    def test_constant_broadcasts(self):
        xs = np.linspace(-1, 1, 5)
        out = evaluate(parse("5"), xs)
        assert out.shape == xs.shape
        assert np.all(out == 5.0)

    def test_purity(self):
        e = parse("exp(x) - sqrt(abs(x))")
        xs = np.linspace(-2, 2, 17)
        a = evaluate(e, xs)
        b = evaluate(e, xs)
        assert np.array_equal(a, b)

    def test_result_never_aliases_input(self):
        xs = np.linspace(-2, 2, 5)
        kept = xs.copy()
        evaluate(parse("x"), xs)[:] = 99.0
        assert np.array_equal(xs, kept)

    def test_log_domain(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("log(x)"), -1.0)
        with pytest.raises(EvalDomainError):
            evaluate(parse("log(x)"), 0.0)
        with pytest.raises(EvalDomainError):
            evaluate(parse("log(x)"), np.array([1.0, -2.0]))

    def test_sqrt_domain(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("sqrt(x)"), -4.0)
        assert evaluate(parse("sqrt(x)"), 9.0) == 3.0

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("1/x"), 0.0)
        with pytest.raises(EvalDomainError):
            evaluate(parse("x^-2"), 0.0)

    @pytest.mark.parametrize("x", [10**400, -(10**400), [1.0, 10**400]])
    def test_int_past_float_range_overflows(self, x):
        # not an EvalDomainError: numpy's OverflowError, an ArithmeticError too
        with pytest.raises(OverflowError, match="^int too large to convert to float$"):
            evaluate(parse("x"), x)


class TestPrettyPrint:
    def test_canonical_form(self):
        assert pretty_print(parse("min(exp(x),1)")) == "min(exp(x), 1.0)"
        assert pretty_print(parse("-x^2")) == "(-(x^2))"

    def test_roundtrip_fixed_corpus(self):
        corpus = [
            "min(exp(x), 1)",
            "1 - min(exp(x), 1)",
            "x",
            "-x^2 + 3*x - 1",
            "max(x, -x)",
            "tanh(x/2) * abs(1 - x)",
            "exp(-(x - 0.5)^2)",
            "x^-3 + 2.5e-3",
        ]
        for text in corpus:
            tree = parse(text)
            assert parse(pretty_print(tree)) == tree

    def test_roundtrip_random_trees(self):
        # one parse normalizes a programmatic tree (folds negated literals);
        # after that, printing and re-parsing is an exact fixed point and
        # values never change
        rng = np.random.default_rng(20240817)
        xs = np.linspace(-3.0, 3.0, 7)
        for _ in range(200):
            tree = random_payoff(rng, max_depth=4)
            normalized = parse(pretty_print(tree))
            assert np.array_equal(evaluate(tree, xs), evaluate(normalized, xs))
            assert parse(pretty_print(normalized)) == normalized

    def test_roundtrip_extreme_literals(self):
        for text in ("1.7976931348623157e308", "-1.7976931348623157e308", "5e-324", "1e-400"):
            tree = parse(text)
            assert parse(pretty_print(tree)) == tree
        with pytest.raises(PayoffParseError):
            parse("1e999")

    @settings(max_examples=200)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_roundtrip_any_finite_literal(self, value):
        tree = BinOp("*", Lit(value), Var())
        again = parse(pretty_print(tree))
        assert again == tree
        assert pretty_print(again) == pretty_print(tree)

    def test_negated_literal_folds(self):
        assert parse("-3") == Lit(-3.0)
        assert parse("(-2)^2") == Pow(Lit(-2.0), 2)
        assert evaluate(parse(pretty_print(Pow(Lit(-2.0), 2))), 0.0) == 4.0


def test_number_rule_has_one_owner():
    # dsl holds the library's number rule (_check_integer, _check_real); no
    # other module may name numbers.Real or numbers.Integral, so no second
    # copy of the rule can come back
    package = Path(knightian.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "dsl.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            named = (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "numbers"
                and node.attr in ("Real", "Integral")
            ) or (isinstance(node, ast.ImportFrom) and node.module == "numbers")
            assert not named, f"{path.name}:{node.lineno} names the number rule outside dsl.py"
    # config reads JSON shapes only: each value's own type judges the number
    for node in ast.walk(ast.parse((package / "config.py").read_text())):
        judged = (
            (isinstance(node, ast.Import) and any(a.name == "math" for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.module == "math")
            or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float")
        )
        assert not judged, f"config.py:{node.lineno} grows a number rule of its own"
