"""Tests for the linear-expression algebra."""

import numpy as np
import pytest

from repro.ilp.expr import Constraint, LinExpr, Sense, VarType, Variable, lin_sum
from repro.ilp.model import Model


@pytest.fixture
def x():
    return Variable("x", 0, 0.0, 1.0, VarType.BINARY)


@pytest.fixture
def y():
    return Variable("y", 1, 0.0, 10.0, VarType.INTEGER)


def _model_over_x_y() -> Model:
    """A model whose columns 0 and 1 match the ``x`` and ``y`` fixtures."""
    m = Model()
    m.add_binary("x")
    m.add_integer("y", 0, 10)
    return m


def _satisfied(con: Constraint, x) -> bool:
    """Whether ``con`` holds at the dense point ``x`` (rows only)."""
    m = _model_over_x_y()
    m.add(con)
    violations = m.check_feasible(np.asarray(x, dtype=float))
    return not [v for v in violations if v.startswith("constraint")]


class TestVariable:
    def test_repr_mentions_name_and_type(self, x):
        assert "x" in repr(x)
        assert "binary" in repr(x)

    def test_is_integer(self, x):
        assert x.is_integer()

    def test_continuous_is_not_integer(self):
        v = Variable("c", 2, 0.0, 1.0, VarType.CONTINUOUS)
        assert not v.is_integer()

    def test_hashable_by_index(self, x):
        assert hash(x) == hash(Variable("other", 0, 0, 1, VarType.BINARY))


class TestAlgebra:
    def test_add_variables(self, x, y):
        expr = x + y
        assert expr.coeffs == {0: 1.0, 1: 1.0}
        assert expr.constant == 0.0

    def test_add_constant(self, x):
        expr = x + 5
        assert expr.constant == 5.0

    def test_radd(self, x):
        expr = 5 + x
        assert expr.constant == 5.0
        assert expr.coeffs == {0: 1.0}

    def test_subtract(self, x, y):
        expr = x - y
        assert expr.coeffs == {0: 1.0, 1: -1.0}

    def test_rsub(self, x):
        expr = 3 - x
        assert expr.constant == 3.0
        assert expr.coeffs == {0: -1.0}

    def test_negate(self, x):
        expr = -x
        assert expr.coeffs == {0: -1.0}

    def test_scale(self, x, y):
        expr = 3 * x + y * 2
        assert expr.coeffs == {0: 3.0, 1: 2.0}

    def test_divide(self, x):
        expr = x / 4
        assert expr.coeffs == {0: 0.25}

    def test_scale_by_expression_rejected(self, x, y):
        with pytest.raises(TypeError):
            x * y  # bilinear terms are not linear

    def test_combining_expressions(self, x, y):
        a = 2 * x + 1
        b = 3 * y - 2
        combined = a + b
        assert combined.coeffs == {0: 2.0, 1: 3.0}
        assert combined.constant == -1.0

    def test_same_variable_coefficients_merge(self, x):
        expr = x + 2 * x - 0.5 * x
        assert expr.coeffs == {0: pytest.approx(2.5)}

    def test_unknown_operand_rejected(self, x):
        with pytest.raises(TypeError):
            x + "nonsense"


class TestLinExprEvaluate:
    def test_evaluate(self, x, y):
        m = _model_over_x_y()
        m.minimize(2 * x + 3 * y + 1)
        assert m.objective_of(np.array([1.0, 2.0])) == pytest.approx(9.0)

    def test_bool_raises(self, x):
        with pytest.raises(TypeError):
            bool(x + 1)


class TestLinSum:
    def test_mixed_terms(self, x, y):
        expr = lin_sum([x, y, 2, x])
        assert expr.coeffs == {0: 2.0, 1: 1.0}
        assert expr.constant == 2.0

    def test_empty(self):
        expr = lin_sum([])
        assert expr.coeffs == {}
        assert expr.constant == 0.0

    def test_generator_input(self, x):
        expr = lin_sum(2 * x for _ in range(3))
        assert expr.coeffs == {0: 6.0}

    def test_rejects_strings(self):
        with pytest.raises(TypeError):
            lin_sum(["bad"])


class TestConstraints:
    def test_le_builds_constraint(self, x, y):
        con = x + y <= 1
        assert isinstance(con, Constraint)
        assert con.sense is Sense.LE

    def test_ge(self, x):
        con = x >= 1
        assert con.sense is Sense.GE

    def test_eq(self, x, y):
        con = x == y
        assert con.sense is Sense.EQ

    def test_ne_rejected(self, x):
        with pytest.raises(TypeError):
            x != 1

    def test_satisfied_le(self, x, y):
        con = x + y <= 1
        assert _satisfied(con, [0.0, 1.0])
        assert not _satisfied(con, [1.0, 1.0])

    def test_satisfied_eq_tolerance(self, x):
        con = x == 1
        assert _satisfied(con, [1.0 + 1e-9, 0.0])
        assert not _satisfied(con, [0.9, 0.0])

    def test_satisfied_ge(self, x, y):
        con = x - y >= 0
        assert _satisfied(con, [1.0, 0.0])
        assert not _satisfied(con, [0.0, 1.0])

    def test_named(self, x):
        con = (x <= 1).named("cap")
        assert con.name == "cap"
        assert "cap" in repr(con)

    def test_constraint_against_expression(self, x, y):
        con = 2 * x <= y + 3
        # normalized: 2x - y - 3 <= 0
        assert con.expr.coeffs == {0: 2.0, 1: -1.0}
        assert con.expr.constant == -3.0
