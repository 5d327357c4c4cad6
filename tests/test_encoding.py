"""Encoding plans: weights, offsets, induced constraints, and decoding.

The continuous-encoding weight lists for [-2, 2], the worked reference
values, are acceptance criterion 02; everything here is checked against the
affine definition (decode = offset + weighted bit sum) and grid-coverage
searches.
"""

import itertools

import numpy as np
import pytest

from qubo_forge.compiler import COMPILE_BUDGET, compile_problem
from qubo_forge.encoding import EncodingPlan, encode, encode_range
from qubo_forge.problem import Problem
from qubo_forge.solvers import solve_exhaustive
from reference import time_limit


def plan_for(kind: str, **kwargs) -> EncodingPlan:
    problem = Problem()
    if kind == "binary":
        problem.add_binary_variable("v")
    elif kind == "bipolar":
        problem.add_bipolar_variable("v")
    elif kind == "discrete":
        problem.add_discrete_variable("v", kwargs["levels"])
    else:
        problem.add_continuous_variable("v", **kwargs)
    return encode(problem.variable("v"))


def representable_values(plan: EncodingPlan, require_valid: bool = True):
    names = plan.binary_names()
    values = set()
    for bits in itertools.product([0, 1], repeat=len(names)):
        assignment = dict(zip(names, bits))
        if require_valid and not plan.encoding_valid(assignment):
            continue
        values.add(round(plan.decode(assignment), 9))
    return values


class TestBinaryKinds:
    def test_unipolar_one_to_one(self):
        plan = plan_for("binary")
        assert plan.binaries == (("v#0", 1.0),)
        assert plan.offset == 0.0 and plan.induced == ()

    def test_bipolar_weight_two_offset_minus_one(self):
        plan = plan_for("bipolar")
        assert plan.binaries == (("v#0", 2.0),)
        assert plan.offset == -1.0
        assert {plan.decode({"v#0": b}) for b in (0, 1)} == {-1.0, 1.0}


class TestDiscrete:
    def test_levels_become_weights_with_one_hot(self):
        plan = plan_for("discrete", levels=[-1, 1, 3])
        assert [w for _, w in plan.binaries] == [-1.0, 1.0, 3.0]
        assert plan.offset == 0.0
        assert len(plan.induced) == 1
        one_hot = plan.induced[0].comparison
        assert one_hot.op == "=" and one_hot.rhs == 1.0

    def test_exactly_one_valid_pattern_per_level(self):
        plan = plan_for("discrete", levels=[-1, 1, 3])
        names = plan.binary_names()
        valid = [bits for bits in itertools.product([0, 1], repeat=3)
                 if plan.encoding_valid(dict(zip(names, bits)))]
        assert sorted(valid) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        assert representable_values(plan) == {-1.0, 1.0, 3.0}

    def test_violated_one_hot_still_decodes_weighted_sum(self):
        plan = plan_for("discrete", levels=[-1, 1, 3])
        bits = dict(zip(plan.binary_names(), (1, 0, 1)))
        assert not plan.encoding_valid(bits)
        assert plan.decode(bits) == 2.0  # -1 + 3, flagged invalid above

    def test_declared_levels_are_kept_exactly(self):
        # only the weights the encoder computes are rounded, not a level the user wrote
        problem = Problem()
        problem.add_discrete_variable("b", [0.1234567890123, 1])
        problem.add_objective("b")
        assert solve_exhaustive(compile_problem(problem.freeze())).best_decoded == {"b": 0.1234567890123}


class TestContinuousReferenceEncodings:
    """v in [-2, 2].  The reference weight lists are acceptance criterion 02."""

    def test_bounded_coefficient_capped_at_one(self):
        plan = plan_for("continuous", low=-2, high=2, precision=0.5, encoding="bounded", bound=1.0)
        weights = [w for _, w in plan.binaries]
        assert all(w <= 1.0 + 1e-9 for w in weights)
        assert sum(weights) == pytest.approx(4.0, abs=1e-9)  # the all-ones pattern reaches high

    def test_domain_wall_wall_positions(self):
        plan = plan_for("continuous", low=-2, high=2, precision=0.5, encoding="domain_wall")
        names = plan.binary_names()
        assert len(plan.induced) == len(names) - 1
        for k in range(len(names) + 1):
            bits = {name: int(i >= len(names) - k) for i, name in enumerate(names)}
            assert plan.encoding_valid(bits)
            assert plan.decode(bits) == pytest.approx(-2.0 + 0.5 * k, abs=1e-9)
        broken = dict.fromkeys(names, 0)
        broken[names[0]] = 1  # 1 followed by 0s breaks the monotone chain
        assert not plan.encoding_valid(broken)


class TestDecode:
    def test_worked_optimum_value(self):
        plan = plan_for("continuous", low=-2, high=2, precision=0.25, encoding="logarithmic")
        bits = dict.fromkeys(plan.binary_names(), 0)
        bits["v#2"] = 1  # weight 1.0 above the -2 offset
        assert plan.decode(bits) == -1.0

    def test_all_zeros_decode_to_offset(self):
        for method in ("logarithmic", "unitary", "arithmetic", "domain_wall"):
            plan = plan_for("continuous", low=-2, high=2, precision=0.5, encoding=method)
            assert plan.decode(dict.fromkeys(plan.binary_names(), 0)) == plan.offset == -2.0

    def test_unitary_three_bits(self):
        plan = plan_for("continuous", low=-2, high=2, precision=0.5, encoding="unitary")
        bits = {name: int(i < 3) for i, name in enumerate(plan.binary_names())}
        assert plan.decode(bits) == -0.5

    def test_missing_bit_raises(self):
        plan = plan_for("binary")
        with pytest.raises(ValueError, match="missing bit"):
            plan.decode({})


class TestEncodingProperties:
    GRID_CASES = [
        ("dictionary", -2, 2, 0.5, {}),
        ("logarithmic", -2, 2, 0.25, {}),
        ("logarithmic", -1, 2.5, 0.5, {"base": 3}),
        ("unitary", -2, 2, 0.5, {}),
        ("arithmetic", -2, 2, 0.2, {}),
        ("bounded", -2, 2, 0.5, {"bound": 1.0}),
        ("bounded", 0, 5, 0.5, {"bound": 2.0}),
        ("unitary", 0.5, 2.2, 0.25, {}),
        ("dictionary", -1.5, 0.7, 0.3, {}),  # not a whole number of steps: the grid adds the upper end
        # not a whole number of steps either: each stepped method ends on a residual weight
        ("arithmetic", -1, 1.7, 0.3, {}),
        ("bounded", 0, 5.5, 0.5, {"bound": 2.0}),
        ("domain_wall", 0.5, 2.2, 0.25, {}),
        ("logarithmic", -2, 2, 0.25, {"base": 4}),
    ]

    @pytest.mark.parametrize("method,low,high,precision,kwargs", GRID_CASES)
    def test_surjectivity_onto_grid(self, method, low, high, precision, kwargs):
        plan = encode_range("v", low, high, precision, method=method, **kwargs)
        assert len(plan.binaries) <= 12
        values = representable_values(plan)
        point = low
        while point <= high + 1e-9:
            assert any(abs(point - v) < 1e-6 for v in values), f"grid point {point} unreachable"
            point += precision
        assert any(abs(high - v) < 1e-6 for v in values), f"the upper end {high} is unreachable"

    @pytest.mark.parametrize(
        "method,kwargs",
        [
            pytest.param("logarithmic", {}, id="logarithmic"),
            pytest.param("unitary", {}, id="unitary"),
            pytest.param("arithmetic", {}, id="arithmetic"),
            pytest.param("bounded", {"bound": 1.0}, id="bounded"),
            pytest.param("domain_wall", {}, id="domain_wall"),
            pytest.param("logarithmic", {"base": 3}, id="logarithmic-base3"),
        ],
    )
    @pytest.mark.parametrize("low,high,precision", [(-2, 2, 0.25), (0, 3, 1.0), (-1.5, 0.7, 0.3)])
    def test_weight_sum_exactness(self, method, kwargs, low, high, precision):
        plan = encode_range("v", low, high, precision, method=method, **kwargs)
        assert sum(w for _, w in plan.binaries) == pytest.approx(high - low, abs=1e-9)

    @pytest.mark.parametrize("method,kwargs", [
        ("logarithmic", {}), ("unitary", {}), ("arithmetic", {}), ("dictionary", {}),
        ("domain_wall", {}), ("bounded", {"bound": 1.0}),
    ])
    def test_representable_values_stay_in_padded_range(self, method, kwargs):
        plan = encode_range("v", -2, 2, 0.5, method=method, **kwargs)
        values = representable_values(plan)
        assert min(values) >= -2 - 0.25 and max(values) <= 2 + 0.25
        assert max(values) >= 2 - 0.5 and min(values) <= -2 + 0.5

    def test_substituting_affine_matches_decoded_evaluation(self):
        rng = np.random.default_rng(5)
        from qubo_forge.expression import Polynomial

        plan = encode_range("v", -2, 2, 0.25, method="logarithmic")
        names = plan.binary_names()
        poly = Polynomial({("v",): 3.0, ("v", "v"): 1.5, (): -0.5})
        affine = Polynomial({**{(name,): weight for name, weight in plan.binaries}, (): plan.offset})
        substituted = poly.substitute("v", affine)
        for _ in range(100):
            bits = {name: int(rng.integers(0, 2)) for name in names}
            assert substituted.evaluate(bits) == pytest.approx(
                poly.evaluate({"v": plan.decode(bits)}), abs=1e-9
            )


class TestEncodingErrors:
    def test_precision_larger_than_range(self):
        with pytest.raises(ValueError, match="precision"):
            encode_range("v", 0, 1, 2.0)

    def test_bounded_needs_bound_at_least_precision(self):
        with pytest.raises(ValueError, match="bound"):
            encode_range("v", 0, 4, 1.0, method="bounded", bound=0.5)

    def test_empty_range(self):
        with pytest.raises(ValueError, match=r"empty range \[1.0, 1.0\] for 'v'"):
            encode_range("v", 1.0, 1.0, 0.5)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown continuous encoding"):
            encode_range("v", 0, 1, 0.5, method="gray")

    @pytest.mark.parametrize("method,kwargs", [("unitary", {}), ("domain_wall", {}), ("bounded", {"bound": 1e-9}), ("dictionary", {})])
    def test_a_grid_past_the_compile_budget_is_refused_by_name(self, method, kwargs):
        message = rf"^the {method} encoding of 'v' at precision 1e-09 needs more binaries than the compile budget of 150000$"
        with time_limit(1.0), pytest.raises(ValueError, match=message):
            encode_range("v", 0, 1, 1e-9, method=method, **kwargs)

    def test_the_budget_caps_the_binaries_not_the_grid(self):
        # the same grid needs 44,721 arithmetic and 30 logarithmic binaries, under the budget
        assert len(encode_range("v", 0, 1, 1e-9, method="arithmetic").binaries) == 44_721
        assert len(encode_range("v", 0, 1, 1e-9, method="logarithmic").binaries) == 30
        # a plan of exactly COMPILE_BUDGET binaries is built, one more is refused
        assert len(encode_range("v", 0, COMPILE_BUDGET, 1.0, method="unitary").binaries) == COMPILE_BUDGET
        assert len(encode_range("v", 1, COMPILE_BUDGET, 1.0, method="dictionary").binaries) == COMPILE_BUDGET
        for method, high in (("unitary", COMPILE_BUDGET + 1), ("dictionary", COMPILE_BUDGET)):
            with pytest.raises(ValueError, match="needs more binaries than the compile budget"):
                encode_range("v", 0, high, 1.0, method=method)
