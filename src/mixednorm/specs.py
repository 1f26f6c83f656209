"""Finite weighted product spaces and mixed-norm specifications.

These are the exact descriptions the rest of the package works from: a
space is a tuple of named axes with positive atom weights, and a spec is an
ordered tuple of (exponent, axis) columns, innermost first.  Nothing here
needs numpy, so the exact commands (plan, orbit, decompose, coeffs) start
without it; the arrays live in `spaces`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import ValidationError
from .exponents import Exponent, as_exponent, exponent_to_doc

# The most columns the specs of an orbit or a subset family may hold
# together (M specs over n axes hold M * n), checked before any is listed.
_MAX_COLUMNS = 100_000


def check_family_size(counts, columns: int) -> None:
    """Reject a family of specs of `columns` columns, one per arrangement of
    a row with these multiplicities (an orbit, or the k-subsets of n axes as
    the arrangements of (k, n - k)), holding over _MAX_COLUMNS columns.  The
    multinomial grows by factors of at least 2, so none far past it is formed."""
    total, placed = columns, 0
    for count in counts:
        low = min(count, placed)
        for i in range(1, low + 1):
            total = total * (placed + count - low + i) // i
            if total > _MAX_COLUMNS:
                break
        placed += count
        if total > _MAX_COLUMNS:
            raise ValidationError(f"the family's specs hold over {_MAX_COLUMNS} columns together")


def as_axis_id(value) -> str:
    """An axis id: a nonempty str, never converted from another type."""
    if not isinstance(value, str) or not value:
        raise ValidationError(f"axis id must be a nonempty string, got {value!r}")
    return value


@dataclass(frozen=True)
class Axis:
    """One factor of a product space: finitely many atoms with positive weights.

    The constructor checks its arguments; `Axis._of` skips the checks for an
    axis the package draws itself, whose id is a nonempty str and whose
    weights are a nonempty tuple of positive finite floats."""

    id: str
    weights: tuple[float, ...]

    def __post_init__(self):
        as_axis_id(self.id)
        try:
            if isinstance(self.weights, (str, bytes, bytearray)):  # text, or bytes read as their codes
                raise TypeError
            ws = tuple(self.weights)
            for w in ws:
                if isinstance(w, bool) or not isinstance(w, numbers.Real):  # float() would parse text, cast a bool
                    raise TypeError
            ws = tuple(map(float, ws))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"axis {self.id!r}: weights must be numbers") from exc
        except OverflowError:
            raise ValidationError(f"axis {self.id!r}: a weight is beyond the float range") from None
        if not ws:
            raise ValidationError(f"axis {self.id!r} has no atoms")
        for i, w in enumerate(ws):
            if not math.isfinite(w) or w <= 0:
                raise ValidationError(
                    f"axis {self.id!r}, atom {i}: weight {w!r} is not a positive finite number"
                )
        object.__setattr__(self, "weights", ws)

    @classmethod
    def _of(cls, id: str, weights: tuple[float, ...]) -> "Axis":
        axis = object.__new__(cls)
        object.__setattr__(axis, "id", id)
        object.__setattr__(axis, "weights", weights)
        return axis

    @property
    def size(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class ProductSpace:
    axes: tuple[Axis, ...]

    def __post_init__(self):
        axes = tuple(self.axes)
        if not axes:
            raise ValidationError("a product space needs at least one axis")
        if len(axes) > 62:  # numpy's 64 dimensions, less the kernel's set and row axes
            raise ValidationError(f"a product space has at most 62 axes, got {len(axes)}")
        ids = [a.id for a in axes]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"duplicate axis ids: {ids}")
        object.__setattr__(self, "axes", axes)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.axes)

    def position(self, axis_id: str) -> int:
        for i, a in enumerate(self.axes):
            if a.id == axis_id:
                return i
        raise ValidationError(f"no axis {axis_id!r} in space with axes {list(self.ids)}")

    def axis(self, axis_id: str) -> Axis:
        return self.axes[self.position(axis_id)]


@dataclass(frozen=True)
class NormSpec:
    """A mixed-norm specification: ordered (exponent, axis) columns, innermost first.

    The constructor parses each exponent (as_exponent) and axis id, so it
    takes any spelling a document may hold; a spec is checked once, where it
    enters.  `NormSpec._of` skips the parse for columns derived from checked
    ones: a nonempty tuple of (Fraction or INF, str) pairs with distinct ids."""

    columns: tuple[tuple[Exponent, str], ...]

    def __post_init__(self):
        cols = []
        for col in self.columns:
            try:
                p_raw, aid = col
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"norm spec column {col!r} is not an (exponent, axis) pair"
                ) from exc
            cols.append((as_exponent(p_raw), as_axis_id(aid)))
        if not cols:
            raise ValidationError("norm spec needs at least one column")
        ids = [a for _, a in cols]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"norm spec repeats an axis: {ids}")
        object.__setattr__(self, "columns", tuple(cols))

    @classmethod
    def _of(cls, columns: tuple[tuple[Exponent, str], ...]) -> "NormSpec":
        spec = object.__new__(cls)
        object.__setattr__(spec, "columns", columns)
        return spec

    @property
    def n(self) -> int:
        return len(self.columns)

    @property
    def exponents(self) -> tuple[Exponent, ...]:
        return tuple(p for p, _ in self.columns)

    @property
    def axis_ids(self) -> tuple[str, ...]:
        return tuple(a for _, a in self.columns)

    def exponent_for(self, axis_id: str) -> Exponent:
        for p, a in self.columns:
            if a == axis_id:
                return p
        raise ValidationError(f"norm spec has no axis {axis_id!r}")

    def is_nonincreasing(self) -> bool:
        exps = self.exponents
        return all(exps[i] >= exps[i + 1] for i in range(len(exps) - 1))

    def validate_for(self, space: ProductSpace) -> None:
        if {a for _, a in self.columns} != set(space.ids):
            raise ValidationError(
                f"norm spec axes {sorted(self.axis_ids)} do not match "
                f"space axes {sorted(space.ids)}"
            )

    @classmethod
    def uniform(cls, p, axis_ids) -> "NormSpec":
        return cls(tuple((p, a) for a in axis_ids))

    def to_doc(self) -> dict:
        return {"columns": [{"p": exponent_to_doc(p), "axis": a} for p, a in self.columns]}

    @classmethod
    def from_doc(cls, doc) -> "NormSpec":
        if not isinstance(doc, dict) or "columns" not in doc:
            raise ValidationError("norm spec document must be an object with a 'columns' list")
        cols = doc["columns"]
        if not isinstance(cols, list):
            raise ValidationError("norm spec 'columns' must be a list")
        pairs = []
        for i, c in enumerate(cols):
            if not isinstance(c, dict) or "p" not in c or "axis" not in c:
                raise ValidationError(f"norm spec column {i} must have 'p' and 'axis'")
            pairs.append((c["p"], c["axis"]))
        return cls(tuple(pairs))
