"""Tests for the Model container and its matrix lowering."""

import numpy as np
import pytest

from repro.ilp.expr import VarType, lin_sum
from repro.ilp.model import Model, ObjectiveSense


@pytest.fixture
def simple_model():
    m = Model("simple")
    x = m.add_binary("x")
    y = m.add_integer("y", 0, 5)
    z = m.add_continuous("z", -1.0, 1.0)
    m.add(x + y <= 4, name="cap")
    m.add(y - z >= 0, name="link")
    m.add(x + z == 1, name="eq")
    m.minimize(x + 2 * y + 3 * z)
    return m


class TestVariables:
    def test_duplicate_name_rejected(self):
        m = Model()
        m.add_binary("x")
        with pytest.raises(ValueError, match="duplicate"):
            m.add_binary("x")

    def test_bad_bounds_rejected(self):
        m = Model()
        with pytest.raises(ValueError, match="lb"):
            m.add_var("x", 2.0, 1.0)

    def test_lookup(self, simple_model):
        x, y, z = simple_model.variables
        assert (x.name, y.name, z.name) == ("x", "y", "z")
        assert y.vartype is VarType.INTEGER
        assert z.vartype is VarType.CONTINUOUS

    def test_indices_are_contiguous(self, simple_model):
        assert [v.index for v in simple_model.variables] == [0, 1, 2]


class TestConstraintsAndObjective:
    def test_add_requires_constraint(self):
        m = Model()
        x = m.add_binary("x")
        with pytest.raises(TypeError):
            m.add(x + 1)  # an expression, not a constraint

    def test_add_all(self):
        m = Model()
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add_all([x <= 1, y <= 1])
        assert m.num_constraints == 2

    def test_objective_sense(self, simple_model):
        assert simple_model.objective_sense is ObjectiveSense.MINIMIZE
        simple_model.maximize(simple_model.variables[0])
        assert simple_model.objective_sense is ObjectiveSense.MAXIMIZE

    def test_stats(self, simple_model):
        s = simple_model.stats()
        assert s["binary"] == 1
        assert s["integer"] == 1
        assert s["continuous"] == 1
        assert s["constraints"] == 3

    def test_repr(self, simple_model):
        assert "vars=3" in repr(simple_model)


class TestFeasibilityChecking:
    def test_feasible_assignment(self, simple_model):
        # Dense vectors in column order: (x, y, z).
        assert simple_model.check_feasible(np.array([1.0, 1.0, 0.0])) == []

    def test_bound_violation_reported(self, simple_model):
        violations = simple_model.check_feasible(np.array([2.0, 0.0, 1.0]))
        assert any("outside" in v for v in violations)

    def test_integrality_violation_reported(self, simple_model):
        violations = simple_model.check_feasible(np.array([0.5, 0.0, 0.5]))
        assert any("not integral" in v for v in violations)

    def test_constraint_violation_reported(self, simple_model):
        violations = simple_model.check_feasible(np.array([1.0, 5.0, 0.0]))
        assert any("cap" in v for v in violations)

    def test_wrong_length_assignment_rejected(self, simple_model):
        with pytest.raises(ValueError, match="shape"):
            simple_model.check_feasible(np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="shape"):
            simple_model.objective_of(np.zeros(4))

    def test_objective_of(self, simple_model):
        assert simple_model.objective_of(np.array([1.0, 1.0, 0.0])) == pytest.approx(3.0)


class TestLowering:
    def test_shapes(self, simple_model):
        form = simple_model.lower()
        assert form.num_vars == 3
        assert form.num_rows == 3
        assert form.a_matrix.shape == (3, 3)

    def test_objective_vector(self, simple_model):
        form = simple_model.lower()
        np.testing.assert_allclose(form.c, [1.0, 2.0, 3.0])
        assert form.sign == 1.0

    def test_row_bounds(self, simple_model):
        form = simple_model.lower()
        # cap: x + y <= 4 -> (-inf, 4]
        assert form.row_lb[0] == -np.inf
        assert form.row_ub[0] == 4.0
        # link: y - z >= 0 -> [0, inf)
        assert form.row_lb[1] == 0.0
        assert form.row_ub[1] == np.inf
        # eq: x + z == 1 -> [1, 1]
        assert form.row_lb[2] == form.row_ub[2] == 1.0

    def test_integrality_flags(self, simple_model):
        form = simple_model.lower()
        np.testing.assert_array_equal(form.integrality, [1, 1, 0])

    def test_maximize_negates(self):
        m = Model()
        x = m.add_binary("x")
        m.maximize(3 * x + 2)
        form = m.lower()
        assert form.sign == -1.0
        np.testing.assert_allclose(form.c, [-3.0])
        # objective_value undoes the negation: at x=1, 3*1+2=5.
        assert form.objective_value(np.array([1.0])) == pytest.approx(5.0)

    def test_constant_offset_round_trip(self):
        m = Model()
        x = m.add_binary("x")
        m.minimize(x + 10)
        form = m.lower()
        assert form.objective_value(np.array([1.0])) == pytest.approx(11.0)
