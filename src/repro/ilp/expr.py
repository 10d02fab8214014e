"""Linear expressions over decision variables.

This module provides a tiny, dependency-free algebraic layer (in the spirit
of PuLP / OR-Tools' model builders) used by :mod:`repro.ilp.model` to state
ILP formulations declaratively.  Expressions are affine combinations of
variables; comparisons against expressions or numbers produce
:class:`Constraint` objects, which :meth:`~repro.ilp.model.Model.add`
decomposes into one columnar row each.  Nothing here evaluates an
assignment: solutions are dense vectors, checked and scored by the
model's assembled matrix.

Operator-built expressions are the *convenience* path: every ``x + y <= 1``
allocates a coefficient dict per intermediate, so cost grows with the
number of Python-level terms.  :class:`~repro.ilp.model.Model` stores all
constraints columnarly regardless of how they were stated; when a builder
can phrase a whole constraint family as index arithmetic over NumPy
arrays, it should call :meth:`~repro.ilp.model.Model.add_block` directly
and skip this layer entirely — that is the O(nnz) fast path.  Prefer
operators for small models, tests and one-off rows; prefer ``add_block``
for anything sized by the instance (neurons x slots, synapse lists).
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping

Number = (int, float)


class VarType(enum.Enum):
    """Domain of a decision variable."""

    BINARY = "binary"
    INTEGER = "integer"
    CONTINUOUS = "continuous"


class Sense(enum.Enum):
    """Constraint comparison sense."""

    LE = "<="
    GE = ">="
    EQ = "=="


class _Algebra:
    """Mixin implementing affine arithmetic shared by Variable and LinExpr."""

    def _as_expr(self) -> "LinExpr":
        raise NotImplementedError

    def __add__(self, other) -> "LinExpr":
        return self._as_expr()._add(other, 1.0)

    def __radd__(self, other) -> "LinExpr":
        return self.__add__(other)

    def __sub__(self, other) -> "LinExpr":
        return self._as_expr()._add(other, -1.0)

    def __rsub__(self, other) -> "LinExpr":
        return (-self._as_expr())._add(other, 1.0)

    def __neg__(self) -> "LinExpr":
        return self._as_expr() * -1.0

    def __mul__(self, scalar) -> "LinExpr":
        if not isinstance(scalar, Number):
            raise TypeError(f"can only scale by a number, got {type(scalar)!r}")
        expr = self._as_expr()
        coeffs = {idx: c * scalar for idx, c in expr.coeffs.items()}
        return LinExpr(coeffs, expr.constant * scalar)

    def __rmul__(self, scalar) -> "LinExpr":
        return self.__mul__(scalar)

    def __truediv__(self, scalar) -> "LinExpr":
        if not isinstance(scalar, Number):
            raise TypeError(f"can only divide by a number, got {type(scalar)!r}")
        return self.__mul__(1.0 / scalar)

    def __le__(self, other) -> "Constraint":
        return Constraint(self._as_expr() - other, Sense.LE)

    def __ge__(self, other) -> "Constraint":
        return Constraint(self._as_expr() - other, Sense.GE)

    # NOTE: we deliberately hijack == for constraint construction, as PuLP
    # does.  Identity checks on variables must use `is`.
    def __eq__(self, other) -> "Constraint":  # type: ignore[override]
        return Constraint(self._as_expr() - other, Sense.EQ)

    def __ne__(self, other):  # type: ignore[override]
        raise TypeError("!= constraints are not expressible in linear programs")

    __hash__ = None  # type: ignore[assignment]


class Variable(_Algebra):
    """A single decision variable.

    Instances are created by :meth:`repro.ilp.model.Model.add_var`; the
    ``index`` is the column of the variable in the lowered matrix form.
    """

    __slots__ = ("name", "index", "lb", "ub", "vartype")

    def __init__(
        self,
        name: str,
        index: int,
        lb: float,
        ub: float,
        vartype: VarType,
    ) -> None:
        self.name = name
        self.index = index
        self.lb = lb
        self.ub = ub
        self.vartype = vartype

    def _as_expr(self) -> "LinExpr":
        return LinExpr({self.index: 1.0}, 0.0)

    def is_integer(self) -> bool:
        return self.vartype in (VarType.BINARY, VarType.INTEGER)

    def __hash__(self) -> int:  # variables are hashable by identity index
        return hash((id(type(self)), self.index))

    def __repr__(self) -> str:
        return f"Variable({self.name!r}, idx={self.index}, {self.vartype.value})"


class LinExpr(_Algebra):
    """An affine expression ``sum(coeffs[i] * var_i) + constant``.

    Coefficients are keyed by variable *index* (column), which keeps the
    structure cheap to lower into sparse matrices.
    """

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: Mapping[int, float] | None = None, constant: float = 0.0):
        self.coeffs: dict[int, float] = dict(coeffs) if coeffs else {}
        self.constant = float(constant)

    def _as_expr(self) -> "LinExpr":
        return self

    def _add(self, other, sign: float) -> "LinExpr":
        coeffs = dict(self.coeffs)
        constant = self.constant
        if isinstance(other, Number):
            constant += sign * other
        elif isinstance(other, Variable):
            coeffs[other.index] = coeffs.get(other.index, 0.0) + sign
        elif isinstance(other, LinExpr):
            for idx, c in other.coeffs.items():
                coeffs[idx] = coeffs.get(idx, 0.0) + sign * c
            constant += sign * other.constant
        else:
            raise TypeError(f"cannot combine LinExpr with {type(other)!r}")
        return LinExpr(coeffs, constant)

    def __bool__(self) -> bool:
        raise TypeError(
            "LinExpr has no truth value; did you mean to add it as a constraint?"
        )

    def __repr__(self) -> str:
        terms = " + ".join(f"{c:g}*v{i}" for i, c in sorted(self.coeffs.items()))
        return f"LinExpr({terms or '0'} + {self.constant:g})"


def lin_sum(items: Iterable) -> LinExpr:
    """Sum variables/expressions/numbers into a single :class:`LinExpr`.

    Unlike the builtin :func:`sum`, this runs in linear time in the total
    number of terms (no quadratic dict copying).
    """
    coeffs: dict[int, float] = {}
    constant = 0.0
    for item in items:
        if isinstance(item, Number):
            constant += item
        elif isinstance(item, Variable):
            coeffs[item.index] = coeffs.get(item.index, 0.0) + 1.0
        elif isinstance(item, LinExpr):
            for idx, c in item.coeffs.items():
                coeffs[idx] = coeffs.get(idx, 0.0) + c
            constant += item.constant
        else:
            raise TypeError(f"cannot sum {type(item)!r}")
    return LinExpr(coeffs, constant)


class Constraint:
    """A linear constraint ``expr (<=|>=|==) 0`` in normalized form."""

    __slots__ = ("expr", "sense", "name")

    def __init__(self, expr: LinExpr, sense: Sense, name: str = ""):
        self.expr = expr
        self.sense = sense
        self.name = name

    def named(self, name: str) -> "Constraint":
        """Attach a name (useful for debugging infeasibilities)."""
        self.name = name
        return self

    def __repr__(self) -> str:
        label = f" [{self.name}]" if self.name else ""
        return f"Constraint({self.expr!r} {self.sense.value} 0{label})"
