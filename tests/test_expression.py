"""Polynomial algebra and parser tests.

Expected values come from independent oracles: direct arithmetic evaluation
at enumerated or random points, or hand expansion for the small cases.
"""

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qubo_forge import expression
from qubo_forge.expression import (
    MAX_EXPONENT,
    MAX_POWER_TERMS,
    Comparison,
    ParseError,
    Polynomial,
    parse_constraint,
    parse_expression,
    reduce_binary_idempotence,
)
from reference import time_limit

V = Polynomial.variable


def exhaustive_equal(p: Polynomial, q: Polynomial, names, values=(0, 1), tol=1e-9):
    for point in itertools.product(values, repeat=len(names)):
        assignment = dict(zip(names, point))
        assert abs(p.evaluate(assignment) - q.evaluate(assignment)) <= tol, assignment


class TestParseExpression:
    def test_mixed_objective(self):
        poly = parse_expression("a + b*c + c**2", {"a", "b", "c"})
        assert poly.terms == {("a",): 1.0, ("b", "c"): 1.0, ("c", "c"): 1.0}

    def test_zero(self):
        assert parse_expression("0", set()).is_zero()

    def test_product_expansion_matches_unexpanded_evaluation(self):
        expanded = parse_expression("(b+c)*(b-c)", {"b", "c"})
        assert expanded.terms == {("b", "b"): 1.0, ("c", "c"): -1.0}
        points = [(0.3, -1.2), (2.0, 2.0), (-5.0, 0.25), (1.5, -1.5), (0.0, 0.0),
                  (10.0, -3.0), (0.125, 8.0), (-0.5, -0.75), (3.25, 1.0), (7.0, 7.5)]
        for b, c in points:
            direct = (b + c) * (b - c)
            assert expanded.evaluate({"b": b, "c": c}) == pytest.approx(direct, abs=1e-9)

    def test_caret_exponent_and_parenthesised_exponent(self):
        assert parse_expression("c^2", {"c"}) == parse_expression("c**(2)", {"c"})

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("a + q", "unknown variable 'q'"),
            ("a ** -2", "non-negative integer"),
            ("a ** 1.5", "non-negative integer"),
            ("a + * b", "unexpected token"),
            ("a / b", "division is not supported"),
            ("2w", "unexpected token 'w'"),
            ("(a + b", "missing ')'"),
            ("a ** (2", "missing ')' after exponent"),
            ("a ** -", "missing exponent"),
            ("a <= b", "comparison operator '<=' is not allowed in an expression"),
        ],
    )
    def test_errors_carry_position(self, text, fragment):
        with pytest.raises(ParseError) as excinfo:
            parse_expression(text, {"a", "b"})
        assert fragment in str(excinfo.value)
        assert excinfo.value.position >= 0

    @pytest.mark.parametrize("text,literal,position", [("1e400*a", "1e400", 0), ("a + 2*1e999", "1e999", 6), ("a**1e400", "1e400", 3)])
    def test_non_finite_literal_rejected_with_its_position(self, text, literal, position):
        with pytest.raises(ParseError, match=f"number '{literal}' is not finite") as info:
            parse_expression(text, {"a"})
        assert info.value.position == position


class TestRunawayAndNonFiniteInput:
    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("2**2000", "exponent 2000 is above the largest accepted", 3),
            ("6^7e79", "exponent 7e\\+79 is above the largest accepted", 2),
            ("x*10**200*10**200", "exponent 200 is above the largest accepted", 6),
            ("1e200*1e200", "the result of '\\*' is not finite", 5),
            ("x*1e300*1e10", "the result of '\\*' is not finite", 7),
            ("1e308 + 1e308*x + 1e308", "the result of '\\+' is not finite", 16),
            ("(1e200*x)**2", "the result of '\\*\\*' is not finite", 9),
        ],
    )
    def test_rejected_quickly_with_the_position(self, text, message, position):
        with time_limit(1.0), pytest.raises(ParseError, match=message) as info:
            parse_expression(text, ["x"])
        assert info.value.position == position

    def test_constraint_sides_that_overflow_are_rejected(self):
        with time_limit(1.0), pytest.raises(ParseError, match="not finite") as info:
            parse_constraint("1e308*x + 1e308 >= -1e308", ["x"])
        assert info.value.position == 16  # the comparison operator folds the two sides

    def test_nested_powers_cannot_pass_the_degree_cap(self):
        with time_limit(1.0), pytest.raises(ParseError, match="a power of degree 256 is above") as info:
            parse_expression("(((x+2)^16)^16)^16", ["x"])
        assert info.value.position == 11  # the second "^"

    def test_powers_of_long_sums_are_refused_before_expanding(self):
        names = list("abcdefgh")
        with time_limit(1.0), pytest.raises(ParseError, match="can expand to 245157 terms, above") as info:
            parse_expression("(a+b+c+d+e+f+g+h)^16", names)
        assert info.value.position == 17  # the "^"
        assert math.comb(8 + 8 - 1, 8) <= MAX_POWER_TERMS < math.comb(8 + 9 - 1, 9)
        with time_limit(1.0):
            assert len(parse_expression("(a+b+c+d+e+f+g+h)^8", names)) == math.comb(8 + 8 - 1, 8)
        with pytest.raises(ParseError, match="can expand to 11440 terms"):
            parse_expression("(a+b+c+d+e+f+g+h)^9", names)

    def test_products_are_bounded_like_powers(self):
        names = list("abcdefgh")
        twelve = "*".join(["(a+b+c+d+e+f+g+h)"] * 12)
        with time_limit(1.0), pytest.raises(ParseError, match="a product of 6435 and 8 terms can expand to 11440") as info:
            parse_expression(twelve, names)
        assert info.value.position == 143  # the eighth "*": a ninth factor makes C(16, 9) degree-9 monomials
        with time_limit(1.0), pytest.raises(ParseError, match="a product of degree 17 is above") as info:
            parse_expression("*".join(["c"] * 20), ["c"])
        assert info.value.position == 31  # the sixteenth "*"
        with time_limit(1.0):
            assert parse_expression("*".join(["c"] * MAX_EXPONENT), ["c"]).terms == {("c",) * MAX_EXPONENT: 1.0}
            assert len(parse_expression("*".join(["(a+b+c+d+e+f+g+h)"] * 6), names)) == math.comb(8 + 6 - 1, 6)

    def test_products_are_bounded_by_their_distinct_monomials(self):
        """Seven or eight sums multiply out like the power of one sum, not like a product of term counts."""
        names = list("abcdefgh")
        with time_limit(1.0):
            assert len(parse_expression("*".join(["(a+b+c+d+e+f+g+h)"] * 7), names)) == math.comb(8 + 7 - 1, 7) == 3432
            eight = parse_expression("*".join(["(a+b+c+d+e+f+g+h)"] * 8), names)
            assert eight == parse_expression("(a+b+c+d+e+f+g+h)^8", names) and len(eight) == 6435
        with pytest.raises(ParseError, match="can expand to 11440 terms"):
            parse_expression("*".join(["(a+b+c+d+e+f+g+h)"] * 9), names)
        # mixed degrees: x*(1 + a + ... + h) has 9 terms; the monomial count bounds it by degree range [1, 2]
        assert len(parse_expression("x*(1+a+b+c+d+e+f+g+h)", [*names, "x"])) == 9

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet="x21.e^*+-() ", max_size=24))
    def test_any_text_parses_or_raises_parse_error_within_a_second(self, text):
        with time_limit(1.0):
            try:
                poly = parse_expression(text, ["x"])
            except ParseError:
                return
        assert all(math.isfinite(coeff) for _, coeff in poly) and poly.degree() <= MAX_EXPONENT

    def test_largest_accepted_exponent_still_parses(self):
        with time_limit(1.0):
            assert parse_expression(f"x**{MAX_EXPONENT}", ["x"]).terms == {("x",) * MAX_EXPONENT: 1.0}
            assert parse_expression(f"2**{MAX_EXPONENT}", []).constant_term == 2.0**MAX_EXPONENT
        with pytest.raises(ParseError, match="above the largest accepted"):
            parse_expression(f"x**{MAX_EXPONENT + 1}", ["x"])


class TestParseConstraint:
    def test_simple_inequality(self):
        comparison = parse_constraint("b + c >= 2", {"b", "c"})
        assert comparison.lhs.terms == {("b",): 1.0, ("c",): 1.0}
        assert comparison.op == ">=" and comparison.rhs == 2.0

    def test_self_comparison_cancels(self):
        comparison = parse_constraint("x = x", {"x"})
        assert comparison.lhs.is_zero() and comparison.op == "=" and comparison.rhs == 0.0

    def test_rearrangement(self):
        comparison = parse_constraint("2*w + 3 <= 5 - w", {"w"})
        assert comparison.lhs.terms == {("w",): 3.0}
        assert comparison.rhs == 2.0

    def test_double_equals_accepted(self):
        assert parse_constraint("x == 1", {"x"}).op == "="

    def test_missing_and_duplicate_comparators(self):
        with pytest.raises(ParseError, match="missing comparison"):
            parse_constraint("x + 1", {"x"})
        with pytest.raises(ParseError, match="more than one comparison"):
            parse_constraint("x <= 1 <= 2", {"x"})


class TestArithmetic:
    def test_one_hot_square_reduction(self):
        squared = (V("b1") + V("b2") + V("b3") - 1) ** 2
        reduced = reduce_binary_idempotence(squared, {"b1", "b2", "b3"})
        assert reduced.terms == {
            ("b1",): -1.0,
            ("b2",): -1.0,
            ("b3",): -1.0,
            ("b1", "b2"): 2.0,
            ("b1", "b3"): 2.0,
            ("b2", "b3"): 2.0,
            (): 1.0,
        }

    def test_a_number_minus_a_polynomial(self):
        assert (1 - V("x")).terms == {(): 1.0, ("x",): -1.0}

    def test_a_polynomial_is_never_equal_to_another_type(self):
        assert V("x") != "x" and Polynomial.zero() != 0

    def test_multiplicative_identity(self):
        poly = parse_expression("3*x - y", {"x", "y"})
        assert poly * Polynomial.constant(1.0) == poly

    def test_log_encoded_square_against_brute_force(self):
        affine = 0.25 * V("b4") + 0.5 * V("b5") + V("b6") + 2 * V("b7") + 0.25 * V("b8") - 2
        squared = affine**2
        # Frozen from the brute-force expansion: 5 squares + 10 couplers + 5
        # linear + constant before reduction, 16 terms after.
        assert len(squared) == 21
        assert squared.constant_term == 4.0
        reduced = reduce_binary_idempotence(squared, squared.variables())
        assert len(reduced) == 16
        names = sorted(affine.variables())
        for bits in itertools.product([0, 1], repeat=5):
            assignment = dict(zip(names, bits))
            direct = affine.evaluate(assignment) ** 2
            assert squared.evaluate(assignment) == direct
            assert reduced.evaluate(assignment) == direct

    def test_pow_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            V("x") ** -1
        with pytest.raises(ValueError):
            V("x") ** 0.5


class TestIdempotenceReduction:
    def test_square_collapses(self):
        assert reduce_binary_idempotence(V("b") ** 2, {"b"}) == V("b")

    def test_constant_untouched(self):
        five = Polynomial.constant(5.0)
        assert reduce_binary_idempotence(five, {"b"}) == five

    def test_mixed_powers(self):
        poly = parse_expression("b**3 * c**2 + b", {"b", "c"})
        reduced = reduce_binary_idempotence(poly, {"b", "c"})
        assert reduced.terms == {("b", "c"): 1.0, ("b",): 1.0}
        exhaustive_equal(poly, reduced, ["b", "c"])

    def test_only_listed_variables_collapse(self):
        poly = parse_expression("b**2 + c**2", {"b", "c"})
        reduced = reduce_binary_idempotence(poly, {"b"})
        assert reduced.terms == {("b",): 1.0, ("c", "c"): 1.0}


class TestSubstitute:
    def test_discrete_encoding_substitution(self):
        poly = parse_expression("b*c", {"b", "c"})
        replacement = parse_expression("-1*b1 + 1*b2 + 3*b3", {"b1", "b2", "b3"})
        result = poly.substitute("b", replacement)
        assert result.terms == {("b1", "c"): -1.0, ("b2", "c"): 1.0, ("b3", "c"): 3.0}

    def test_identity_substitution(self):
        poly = parse_expression("x**2 + 2*x", {"x"})
        assert poly.substitute("x", V("x")) == poly

    def test_power_substitution_matches_prebound_evaluation(self):
        poly = parse_expression("c**2", {"c"})
        replacement = parse_expression("0.5*b4 - 2", {"b4"})
        result = poly.substitute("c", replacement)
        assert result.terms == {("b4", "b4"): 0.25, ("b4",): -2.0, (): 4.0}
        for b4 in (0, 1):
            bound = replacement.evaluate({"b4": b4})
            assert result.evaluate({"b4": b4}) == poly.evaluate({"c": bound})


class TestEvaluate:
    def test_worked_optimum(self):
        poly = parse_expression("a + b*c + c**2", {"a", "b", "c"})
        assert poly.evaluate({"a": 0, "b": 3, "c": -1}) == -2.0

    def test_empty_polynomial(self):
        assert Polynomial.zero().evaluate({"anything": 99}) == 0.0

    def test_fractional_point(self):
        poly = parse_expression("(b + c - 2)**2", {"b", "c"})
        assert poly.evaluate({"b": 1, "c": 0.5}) == 0.25

    def test_missing_variable(self):
        with pytest.raises(ValueError, match="no value assigned"):
            V("x").evaluate({})


class TestCanonicalText:
    def test_ordering_degree_then_lexicographic(self):
        poly = parse_expression("1 + a + c*b + a**2", {"a", "b", "c"})
        assert poly.to_text() == "a**2 + b*c + a + 1"

    def test_zero_prints_as_zero(self):
        assert Polynomial.zero().to_text() == "0"
        assert parse_expression("0", set()) == parse_expression(Polynomial.zero().to_text(), set())


# -- property tests -------------------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "d", "e"])
_coeffs = st.integers(min_value=-64, max_value=64).filter(lambda k: k != 0).map(lambda k: k / 4.0)
_monomials = st.lists(_names, min_size=0, max_size=3).map(lambda vs: tuple(sorted(vs)))
_polys = st.dictionaries(_monomials, _coeffs, max_size=6).map(Polynomial)
_points = st.fixed_dictionaries({name: st.integers(-3, 3).map(float) for name in "abcde"})


@given(_polys)
@settings(max_examples=150)
def test_canonical_round_trip(poly):
    assert parse_expression(poly.to_text(), {"a", "b", "c", "d", "e"}) == poly


@given(_polys, _polys, _points)
@settings(max_examples=150)
def test_product_evaluation_homomorphism(p, q, point):
    lhs = (p * q).evaluate(point)
    rhs = p.evaluate(point) * q.evaluate(point)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@given(_polys, _polys, _points)
@settings(max_examples=100)
def test_sum_evaluation_homomorphism(p, q, point):
    assert (p + q).evaluate(point) == pytest.approx(p.evaluate(point) + q.evaluate(point), rel=1e-9, abs=1e-9)


@given(_polys, st.sampled_from(["a", "b", "c"]), _polys, _points)
@settings(max_examples=100)
def test_substitute_then_evaluate_equals_prebound(p, name, replacement, point):
    substituted = p.substitute(name, replacement)
    bound = dict(point)
    bound[name] = replacement.evaluate(point)
    assert substituted.evaluate(point) == pytest.approx(p.evaluate(bound), rel=1e-9, abs=1e-9)


@given(st.dictionaries(st.lists(st.sampled_from("abcdefghij"), min_size=0, max_size=6).map(tuple), _coeffs, max_size=8))
@settings(max_examples=100)
def test_idempotence_preserves_binary_evaluation(terms):
    poly = Polynomial(terms)
    reduced = reduce_binary_idempotence(poly, poly.variables())
    names = sorted(poly.variables())
    if len(names) > 10:
        return
    exhaustive_equal(poly, reduced, names)


class _ChainedSumParser(expression._Parser):
    """The parser summing as ``result + rhs`` per term, which copies the sum so far each time."""

    def parse_expr(self):
        result = self.parse_term()
        while True:
            token = self.peek()
            if token is None or token[1] not in ("+", "-"):
                return result
            self.advance()
            rhs = self.parse_term()
            result = expression._finite(result + rhs if token[1] == "+" else result - rhs, token, rhs)


def _chained_parse(text, names):
    parser = _ChainedSumParser(expression._tokenize(text), set(names), len(text))
    poly = parser.parse_expr()
    parser.expect_end()
    return poly


_SUMMANDS = ["x", "2*x", "0.1*x", "0.2*x", "0.3*x", "x*y", "y**2", "3", "0.1", "1e-13*x", "1e308*x", "1e308", "(x - y)", "(0.1 + x*y)"]


@given(terms=st.lists(st.tuples(st.sampled_from("+-"), st.sampled_from(_SUMMANDS)), min_size=1, max_size=14), nest=st.booleans())
@example(terms=[("+", "0.1*x"), ("+", "0.2*x"), ("-", "0.3*x"), ("+", "y**2"), ("+", "x")], nest=False)  # x cancels, comes back
@example(terms=[("+", "1e308*x"), ("+", "1e308*x")], nest=True)  # an overflow inside parentheses
@settings(max_examples=300)
def test_one_accumulator_sum_matches_chained_addition(terms, nest):
    """Same terms in the same order, coefficients equal as float hex, and the same errors at the same positions."""
    text = " ".join(f"{sign} {summand}" for sign, summand in terms)
    if nest:
        text = f"x*({text}) - ({text}) + y"
    try:
        expected = _chained_parse(text, ["x", "y"])
    except ParseError as error:
        with pytest.raises(ParseError) as info:
            parse_expression(text, ["x", "y"])
        assert (str(info.value), info.value.position) == (str(error), error.position)
        return
    assert [(mono, coeff.hex()) for mono, coeff in parse_expression(text, ["x", "y"])] == [
        (mono, coeff.hex()) for mono, coeff in expected
    ]


def test_a_dense_sum_parses_in_linear_time():
    """3,240 products over 80 variables: summing them one copy at a time took seconds."""
    names = [f"c_{i}" for i in range(80)]
    text = " + ".join(f"{(i + 2 * j + 1) / 7:.6f}*{names[i]}*{names[j]}" for i in range(80) for j in range(i, 80))
    with time_limit(1.0):
        assert len(parse_expression(text, names)) == 3240


def test_comparison_requires_known_operator():
    with pytest.raises(ValueError):
        Comparison(lhs=V("x"), op="!=", rhs=0.0)
