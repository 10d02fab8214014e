"""Block-API equivalence: columnar and per-expression construction agree.

Property suite for the acceptance criterion that the two construction
styles are indistinguishable downstream: for random small models built
through *both* the per-expression path (``Model.add`` with operator
exprs) and the block path (``Model.add_block`` with COO arrays),

- ``Model.lower()`` produces equivalent (here: exactly equal)
  ``MatrixForm``s,
- ``objective_of`` / ``check_feasible`` agree with direct matrix-form
  evaluation on random assignments, and
- HiGHS returns bit-identical status + objective for both builds.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ilp.expr import Sense, VarType, lin_sum
from repro.ilp.highs_backend import HighsBackend, HighsOptions
from repro.ilp.model import Model

pytestmark = pytest.mark.ilp

SENSES = [Sense.LE, Sense.GE, Sense.EQ]

coef_st = st.integers(-4, 4).filter(lambda c: c != 0).map(float)
rhs_st = st.integers(-6, 6).map(float)


@st.composite
def random_spec(draw):
    """A random model spec: vars, rows (unique cols per row), objective."""
    num_vars = draw(st.integers(1, 7))
    vartypes = draw(
        st.lists(
            st.sampled_from([VarType.BINARY, VarType.INTEGER, VarType.CONTINUOUS]),
            min_size=num_vars,
            max_size=num_vars,
        )
    )
    num_rows = draw(st.integers(0, 8))
    rows = []
    for _ in range(num_rows):
        cols = draw(
            st.lists(
                st.integers(0, num_vars - 1), min_size=1, max_size=num_vars, unique=True
            )
        )
        coefs = draw(
            st.lists(coef_st, min_size=len(cols), max_size=len(cols))
        )
        rows.append((cols, coefs, draw(st.sampled_from(SENSES)), draw(rhs_st)))
    obj_cols = draw(
        st.lists(st.integers(0, num_vars - 1), min_size=0, max_size=num_vars, unique=True)
    )
    obj_coefs = draw(st.lists(coef_st, min_size=len(obj_cols), max_size=len(obj_cols)))
    maximize = draw(st.booleans())
    return vartypes, rows, (obj_cols, obj_coefs, draw(rhs_st), maximize)


def _add_variables(model: Model, vartypes) -> list:
    out = []
    for idx, vartype in enumerate(vartypes):
        if vartype is VarType.BINARY:
            out.append(model.add_binary(f"v{idx}"))
        elif vartype is VarType.INTEGER:
            out.append(model.add_integer(f"v{idx}", 0, 3))
        else:
            out.append(model.add_continuous(f"v{idx}", -2.0, 2.0))
    return out


def _set_objective(model: Model, variables, objective) -> None:
    obj_cols, obj_coefs, constant, maximize = objective
    expr = lin_sum(
        [c * variables[i] for i, c in zip(obj_cols, obj_coefs)] + [constant]
    )
    (model.maximize if maximize else model.minimize)(expr)


def build_expression(spec) -> Model:
    vartypes, rows, objective = spec
    model = Model("expr")
    variables = _add_variables(model, vartypes)
    for pos, (cols, coefs, sense, rhs) in enumerate(rows):
        lhs = lin_sum(c * variables[i] for i, c in zip(cols, coefs))
        if sense is Sense.LE:
            con = lhs <= rhs
        elif sense is Sense.GE:
            con = lhs >= rhs
        else:
            con = lhs == rhs
        model.add(con, name=f"row_{pos}")
    _set_objective(model, variables, objective)
    return model


def build_block(spec) -> Model:
    vartypes, rows, objective = spec
    model = Model("block")
    variables = _add_variables(model, vartypes)
    if rows:
        r_idx, c_idx, data, senses, rhs = [], [], [], [], []
        for pos, (cols, coefs, sense, rhs_val) in enumerate(rows):
            r_idx += [pos] * len(cols)
            c_idx += cols
            data += coefs
            senses.append(sense)
            rhs.append(rhs_val)
        model.add_block(
            np.array(r_idx),
            np.array(c_idx),
            np.array(data),
            np.array([{Sense.LE: 0, Sense.GE: 1, Sense.EQ: 2}[s] for s in senses]),
            np.array(rhs),
            num_rows=len(rows),
            name=[f"row_{pos}" for pos in range(len(rows))],
        )
    _set_objective(model, variables, objective)
    return model


def assert_forms_equal(fa, fb) -> None:
    np.testing.assert_array_equal(fa.c, fb.c)
    np.testing.assert_array_equal(fa.row_lb, fb.row_lb)
    np.testing.assert_array_equal(fa.row_ub, fb.row_ub)
    np.testing.assert_array_equal(fa.var_lb, fb.var_lb)
    np.testing.assert_array_equal(fa.var_ub, fb.var_ub)
    np.testing.assert_array_equal(fa.integrality, fb.integrality)
    assert fa.offset == fb.offset
    assert fa.sign == fb.sign
    assert fa.a_matrix.shape == fb.a_matrix.shape
    assert abs(fa.a_matrix - fb.a_matrix).nnz == 0


@settings(max_examples=60, deadline=None)
@given(spec=random_spec())
def test_lowering_identical(spec):
    form_expr = build_expression(spec).lower()
    form_block = build_block(spec).lower()
    assert_forms_equal(form_expr, form_block)


@settings(max_examples=40, deadline=None)
@given(spec=random_spec(), data=st.data())
def test_evaluation_matches_matrix_form(spec, data):
    model_expr = build_expression(spec)
    model_block = build_block(spec)
    form = model_expr.lower()
    n = form.num_vars
    x = np.array(
        data.draw(
            st.lists(
                st.integers(-3, 3).map(float), min_size=n, max_size=n
            )
        )
    )
    # objective_of must equal matrix-form evaluation in both models.
    expected_obj = form.sign * (float(form.c @ x) + form.offset)
    assert model_expr.objective_of(x) == pytest.approx(expected_obj, abs=1e-9)
    assert model_block.objective_of(x) == pytest.approx(expected_obj, abs=1e-9)
    # check_feasible must agree with a direct matrix-form check ...
    tol = 1e-6
    ax = form.a_matrix @ x
    matrix_feasible = bool(
        np.all(x >= form.var_lb - tol)
        and np.all(x <= form.var_ub + tol)
        and np.all(np.abs(x[form.integrality > 0] - np.round(x[form.integrality > 0])) <= tol)
        and np.all(ax <= form.row_ub + tol)
        and np.all(ax >= form.row_lb - tol)
    )
    assert (model_expr.check_feasible(x) == []) == matrix_feasible
    # ... and both construction styles must report identical violations.
    assert model_expr.check_feasible(x) == model_block.check_feasible(x)


def test_add_block_does_not_alias_caller_buffers():
    """Mutating input arrays after add_block must not change the model."""
    model = Model("alias")
    model.add_binary("a")
    model.add_binary("b")
    rows = np.array([0, 0], dtype=np.int64)
    cols = np.array([0, 1], dtype=np.int64)
    coefs = np.array([1.0, -1.0])
    rhs = np.array([1.0])
    senses = np.array([0], dtype=np.int8)
    model.add_block(rows, cols, coefs, senses, rhs, num_rows=1)
    coefs[:] = 99.0
    cols[:] = 0
    rhs[:] = -5.0
    senses[:] = 2
    system = model.row_system()
    assert system.a_matrix.toarray().tolist() == [[1.0, -1.0]]
    assert system.rhs.tolist() == [1.0]
    assert system.sense_code.tolist() == [0]


@settings(max_examples=25, deadline=None)
@given(spec=random_spec())
def test_solver_results_bit_identical(spec):
    """HiGHS receives identical inputs from both builds, so status and
    objective must match bit for bit (the acceptance criterion)."""
    backend = HighsBackend(HighsOptions(time_limit=5.0))
    res_expr = backend.solve(build_expression(spec))
    res_block = backend.solve(build_block(spec))
    assert res_expr.status is res_block.status
    assert res_expr.objective == res_block.objective  # exact, not approx
