"""Relational predicate expressions over table attributes.

The paper's motivating queries combine k-NN operators with relational
predicates ("price within my budget", "provides seafood").  Predicates
here are small composable expression trees evaluated vectorized over
row sets, with selectivity estimated by sampling — the input the
optimizer needs to cost the incremental-browsing plan (``k' = k / σ``).

Usage::

    from repro.engine import column
    pred = (column("price") < 50.0) & (column("stars") >= 4)
    mask = pred.evaluate(table, row_ids)
    sigma = pred.estimate_selectivity(table)
"""

from __future__ import annotations

import abc
import operator
from typing import Callable

import numpy as np

from repro.engine.table import SpatialTable

_OPS: dict[str, Callable[[np.ndarray, object], np.ndarray]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}

#: Default sample size for selectivity estimation.
SELECTIVITY_SAMPLE = 2_000


class Predicate(abc.ABC):
    """A boolean expression over a table's attribute columns."""

    @abc.abstractmethod
    def evaluate(self, table: SpatialTable, row_ids: np.ndarray) -> np.ndarray:
        """Vectorized evaluation: a boolean mask aligned with ``row_ids``."""

    @abc.abstractmethod
    def columns(self) -> frozenset[str]:
        """The attribute columns the predicate reads."""

    def evaluate_row(self, table: SpatialTable, row_id: int) -> bool:
        """Evaluate on a single row."""
        return bool(self.evaluate(table, np.array([row_id]))[0])

    def estimate_selectivity(
        self, table: SpatialTable, sample_size: int = SELECTIVITY_SAMPLE, seed: int = 0
    ) -> float:
        """Estimate the qualifying fraction by uniform row sampling.

        Returns a value clamped into ``(0, 1]`` — a zero estimate would
        make the incremental plan's effective k infinite, so the floor
        is one qualifying row in the sample.
        """
        if table.n_rows == 0:
            return 1.0
        rng = np.random.default_rng(seed)
        n = min(sample_size, table.n_rows)
        rows = rng.choice(table.n_rows, size=n, replace=False)
        hits = int(np.count_nonzero(self.evaluate(table, rows)))
        return max(hits, 1) / n

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    def __and__(self, other: "Predicate") -> "And":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


class AttributePredicate(Predicate):
    """A comparison of one attribute column against a constant.

    Args:
        column: Column name.
        op: One of ``< <= > >= == !=``.
        value: The constant to compare with.
    """

    def __init__(self, column: str, op: str, value) -> None:
        if op not in _OPS:
            raise ValueError(f"unknown operator {op!r}; expected one of {sorted(_OPS)}")
        self.column = column
        self.op = op
        self.value = value

    def evaluate(self, table: SpatialTable, row_ids: np.ndarray) -> np.ndarray:
        values = table.column_values(self.column)[row_ids]
        return _OPS[self.op](values, self.value)

    def columns(self) -> frozenset[str]:
        return frozenset({self.column})

    def __repr__(self) -> str:
        return f"({self.column} {self.op} {self.value!r})"


class And(Predicate):
    """Conjunction of two predicates."""

    def __init__(self, left: Predicate, right: Predicate) -> None:
        self.left = left
        self.right = right

    def evaluate(self, table: SpatialTable, row_ids: np.ndarray) -> np.ndarray:
        return self.left.evaluate(table, row_ids) & self.right.evaluate(table, row_ids)

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} AND {self.right!r})"


class Or(Predicate):
    """Disjunction of two predicates."""

    def __init__(self, left: Predicate, right: Predicate) -> None:
        self.left = left
        self.right = right

    def evaluate(self, table: SpatialTable, row_ids: np.ndarray) -> np.ndarray:
        return self.left.evaluate(table, row_ids) | self.right.evaluate(table, row_ids)

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} OR {self.right!r})"


class Not(Predicate):
    """Negation of a predicate."""

    def __init__(self, inner: Predicate) -> None:
        self.inner = inner

    def evaluate(self, table: SpatialTable, row_ids: np.ndarray) -> np.ndarray:
        return ~self.inner.evaluate(table, row_ids)

    def columns(self) -> frozenset[str]:
        return self.inner.columns()

    def __repr__(self) -> str:
        return f"(NOT {self.inner!r})"


class _ColumnBuilder:
    """Fluent builder: ``column("price") < 50`` -> AttributePredicate."""

    def __init__(self, name: str) -> None:
        self._name = name

    def __lt__(self, value) -> AttributePredicate:
        return AttributePredicate(self._name, "<", value)

    def __le__(self, value) -> AttributePredicate:
        return AttributePredicate(self._name, "<=", value)

    def __gt__(self, value) -> AttributePredicate:
        return AttributePredicate(self._name, ">", value)

    def __ge__(self, value) -> AttributePredicate:
        return AttributePredicate(self._name, ">=", value)

    def __eq__(self, value) -> AttributePredicate:  # type: ignore[override]
        return AttributePredicate(self._name, "==", value)

    def __ne__(self, value) -> AttributePredicate:  # type: ignore[override]
        return AttributePredicate(self._name, "!=", value)

    def __hash__(self) -> int:  # __eq__ override disables default hash
        return hash(self._name)


def column(name: str) -> _ColumnBuilder:
    """Start a predicate on attribute ``name`` (see module docstring)."""
    return _ColumnBuilder(name)
