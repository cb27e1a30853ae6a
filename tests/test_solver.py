"""Unit and property tests for the MIP solver substrate."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.solver import (
    LinearExpr,
    MIPModel,
    ScipyMilpBackend,
    Sense,
    SolveStatus,
    default_backend,
)
from repro.solver.expr import Variable, lin_sum


class TestExpressions:
    def test_variable_arithmetic_builds_expressions(self):
        model = MIPModel()
        x, y = model.add_continuous("x"), model.add_continuous("y")
        expr = 2 * x + 3 * y - 1
        assert isinstance(expr, LinearExpr)
        assert expr.coefficient(x) == 2
        assert expr.coefficient(y) == 3
        assert expr.constant == -1

    def test_expression_evaluation(self):
        model = MIPModel()
        x, y = model.add_continuous("x"), model.add_continuous("y")
        expr = x - 2 * y + 5
        assert expr.evaluate({x: 3, y: 1}) == 6

    def test_subtraction_and_negation(self):
        model = MIPModel()
        x = model.add_continuous("x")
        expr = 10 - x
        assert expr.coefficient(x) == -1
        assert (-x).coefficient(x) == -1

    def test_lin_sum_merges_terms(self):
        model = MIPModel()
        xs = [model.add_binary(f"x{i}") for i in range(5)]
        expr = lin_sum(x * 2 for x in xs)
        assert all(expr.coefficient(x) == 2 for x in xs)
        assert lin_sum([]).constant == 0

    def test_comparison_creates_constraints(self):
        model = MIPModel()
        x = model.add_continuous("x")
        constraint = x <= 5
        assert constraint.sense is Sense.LE
        assert constraint.bound == 5

    def test_invalid_scaling(self):
        model = MIPModel()
        x, y = model.add_continuous("x"), model.add_continuous("y")
        with pytest.raises(TypeError):
            _ = x.to_expr() * y.to_expr()

    def test_variable_validation(self):
        with pytest.raises(ValueError):
            Variable("bad", kind="mystery")
        with pytest.raises(ValueError):
            Variable("bad", lower=2, upper=1)

    def test_binary_bounds_are_forced(self):
        var = Variable("b", kind="binary", lower=-3, upper=7)
        assert (var.lower, var.upper) == (0.0, 1.0)


class TestModel:
    def test_counts(self):
        model = MIPModel("m")
        x = model.add_binary("x")
        y = model.add_integer("y", upper=4)
        model.add_constraint(x + y <= 4)
        model.set_objective(x + y, minimize=False)
        assert model.num_variables == 2
        assert model.num_constraints == 1

    def test_add_constraint_rejects_booleans(self):
        model = MIPModel()
        model.add_binary("x")
        with pytest.raises(TypeError):
            model.add_constraint(True)

    def test_matrix_form_senses(self):
        model = MIPModel()
        x, y = model.add_continuous("x"), model.add_continuous("y")
        model.add_constraint(x + y <= 4)
        model.add_constraint(x - y >= 1)
        model.add_constraint(x + 2 * y == 3)
        form = model.to_matrix_form()
        assert form.a_ub.shape == (2, 2)
        assert form.a_eq.shape == (1, 2)

    def test_constraint_satisfaction_helper(self):
        model = MIPModel()
        x = model.add_continuous("x")
        constraint = x >= 2
        assert constraint.satisfied_by({x: 3})
        assert not constraint.satisfied_by({x: 1})


def _solve_with(backend, build):
    model = MIPModel()
    handles = build(model)
    solution = model.solve(backend)
    return model, handles, solution


def _knapsack(model):
    """0/1 knapsack with known optimum 11 (items 1 and 2)."""
    values = [6, 5, 6, 1]
    weights = [4, 3, 3, 1]
    xs = [model.add_binary(f"x{i}") for i in range(4)]
    model.add_constraint(lin_sum(w * x for w, x in zip(weights, xs)) <= 6)
    model.set_objective(lin_sum(v * x for v, x in zip(values, xs)), minimize=False)
    return xs


def brute_force_optimum(model):
    """Optimal objective of a pure-binary ``model`` by full enumeration."""
    best = None
    for bits in itertools.product((0, 1), repeat=len(model.variables)):
        values = dict(zip(model.variables, bits))
        if all(c.satisfied_by(values) for c in model.constraints):
            value = model.objective.evaluate(values)
            if best is None or (value < best if model.minimize else value > best):
                best = value
    return best


@pytest.mark.parametrize("backend", [ScipyMilpBackend()], ids=["scipy-highs"])
class TestBackends:
    def test_knapsack_optimum(self, backend):
        _, xs, solution = _solve_with(backend, _knapsack)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(11)
        chosen = [i for i, x in enumerate(xs) if solution.rounded(x) == 1]
        assert chosen == [1, 2]

    def test_pure_lp(self, backend):
        def build(model):
            x = model.add_continuous("x", upper=10)
            y = model.add_continuous("y", upper=10)
            model.add_constraint(x + y <= 7)
            model.set_objective(2 * x + 3 * y, minimize=False)
            return x, y

        _, (x, y), solution = _solve_with(backend, build)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(21)
        assert solution.value(y) == pytest.approx(7)

    def test_infeasible_detected(self, backend):
        def build(model):
            x = model.add_binary("x")
            model.add_constraint(x >= 2)
            model.set_objective(x.to_expr())
            return x

        _, _, solution = _solve_with(backend, build)
        assert solution.status is SolveStatus.INFEASIBLE

    def test_equality_constraints(self, backend):
        def build(model):
            x = model.add_integer("x", upper=10)
            y = model.add_integer("y", upper=10)
            model.add_constraint(x + y == 7)
            model.add_constraint(x - y <= 1)
            model.set_objective(x.to_expr(), minimize=False)
            return x, y

        _, (x, y), solution = _solve_with(backend, build)
        assert solution.is_optimal
        assert solution.rounded(x) + solution.rounded(y) == 7
        assert solution.rounded(x) == 4

    def test_assignment_problem(self, backend):
        """3x3 assignment with a unique optimum."""
        cost = [[4, 1, 3], [2, 0, 5], [3, 2, 2]]

        def build(model):
            x = {(i, j): model.add_binary(f"x_{i}{j}") for i in range(3) for j in range(3)}
            for i in range(3):
                model.add_constraint(lin_sum(x[i, j] for j in range(3)) == 1)
            for j in range(3):
                model.add_constraint(lin_sum(x[i, j] for i in range(3)) == 1)
            model.set_objective(lin_sum(cost[i][j] * x[i, j] for i in range(3) for j in range(3)))
            return x

        _, x, solution = _solve_with(backend, build)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(5)
        assignment = {i: j for (i, j), var in x.items() if solution.rounded(var) == 1}
        assert assignment == {0: 1, 1: 0, 2: 2}

    def test_mixed_integer_continuous(self, backend):
        def build(model):
            x = model.add_integer("x", upper=5)
            y = model.add_continuous("y", upper=5)
            model.add_constraint(x + y <= 4.5)
            model.set_objective(3 * x + 2 * y, minimize=False)
            return x, y

        _, (x, y), solution = _solve_with(backend, build)
        assert solution.is_optimal
        assert solution.rounded(x) == 4
        assert solution.value(y) == pytest.approx(0.5)
        assert solution.objective == pytest.approx(13)

    def test_solution_reports_all_constraints_satisfied(self, backend):
        model, _, solution = _solve_with(backend, _knapsack)
        assert all(c.satisfied_by(solution.values) for c in model.constraints)


class TestBackendAgreement:
    """HiGHS must find the brute-force optimum of random tiny binary models."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_knapsacks_agree(self, seed):
        rng = random.Random(seed)
        num_items = rng.randint(3, 8)
        values = [rng.randint(1, 20) for _ in range(num_items)]
        weights = [rng.randint(1, 10) for _ in range(num_items)]
        capacity = max(1, sum(weights) // 2)

        def build(model):
            xs = [model.add_binary(f"x{i}") for i in range(num_items)]
            model.add_constraint(lin_sum(w * x for w, x in zip(weights, xs)) <= capacity)
            model.set_objective(lin_sum(v * x for v, x in zip(values, xs)), minimize=False)
            return xs

        model, _, solution = _solve_with(ScipyMilpBackend(), build)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(brute_force_optimum(model))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_covering_problems_agree(self, seed):
        rng = random.Random(seed)
        num_vars, num_sets = rng.randint(4, 7), rng.randint(3, 6)
        membership = [
            [rng.random() < 0.5 for _ in range(num_vars)] for _ in range(num_sets)
        ]
        # Guarantee feasibility: every constraint covers at least one variable.
        for row in membership:
            if not any(row):
                row[rng.randrange(num_vars)] = True
        costs = [rng.randint(1, 5) for _ in range(num_vars)]

        def build(model):
            xs = [model.add_binary(f"x{i}") for i in range(num_vars)]
            for row in membership:
                model.add_constraint(lin_sum(x for x, used in zip(xs, row) if used) >= 1)
            model.set_objective(lin_sum(c * x for c, x in zip(costs, xs)))
            return xs

        model, _, solution = _solve_with(ScipyMilpBackend(), build)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(brute_force_optimum(model))


class TestDefaultBackend:
    def test_default_backend_is_usable(self):
        backend = default_backend()
        assert isinstance(backend, ScipyMilpBackend)
        _, _, solution = _solve_with(backend, _knapsack)
        assert solution.is_optimal

    def test_model_solve_uses_default_backend(self):
        model = MIPModel()
        x = model.add_binary("x")
        model.set_objective(x.to_expr(), minimize=False)
        solution = model.solve()
        assert solution.is_optimal
        assert solution.rounded(x) == 1
