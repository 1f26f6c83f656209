"""Permutations acting on norm specs: the raising/lowering calculus.

A norm spec is a double row (exponents over axes).  A permutation acts on
the right in three ways: moving whole columns, moving only the exponent
row, or moving only the axis row.  All three are right actions:
applying sigma then rho equals applying sigma∘rho once.

A permutation *raises* a spec when every pair of columns it reverses moves
the smaller exponent outward past the larger one (inf counts as larger than
everything finite); *lowers* is the mirror image.  Raising permutations can
only increase the mixed norm, and they factor into adjacent transpositions
— one per inversion — each of which raises the intermediate spec.  That
factorization, with the intermediate specs, is the checkable certificate
produced by `decompose`.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .errors import ValidationError, as_count
from .exponents import Exponent, harmonic_mean
from .specs import NormSpec, check_family_size


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n}, stored as the tuple of images (1-based)."""

    images: tuple[int, ...]

    def __post_init__(self):
        imgs = tuple(as_count(v, "permutation image", 1) for v in self.images)
        n = len(imgs)
        if sorted(imgs) != list(range(1, n + 1)):
            raise ValidationError(f"not a permutation of 1..{n}: {list(imgs)}")
        object.__setattr__(self, "images", imgs)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, j: int) -> "Permutation":
        """The adjacent transposition swapping positions j and j+1 (1-based)."""
        if not 1 <= j < n:
            raise ValidationError(f"adjacent transposition position {j} out of range for n={n}")
        imgs = list(range(1, n + 1))
        imgs[j - 1], imgs[j] = imgs[j], imgs[j - 1]
        return cls(tuple(imgs))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    @property
    def is_identity(self) -> bool:
        return self.images == tuple(range(1, self.n + 1))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for k, v in enumerate(self.images, start=1):
            inv[v - 1] = k
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """Function composition self∘other: (self∘other)(k) = self(other(k))."""
        if self.n != other.n:
            raise ValidationError(f"cannot compose permutations of sizes {self.n} and {other.n}")
        return Permutation(tuple(self(other(k)) for k in range(1, self.n + 1)))

    def to_doc(self) -> list:
        return list(self.images)

    @classmethod
    def from_doc(cls, doc) -> "Permutation":
        if not isinstance(doc, list):
            raise ValidationError("permutation document must be a JSON array of 1-based images")
        return cls(tuple(doc))


def all_permutations(n: int):
    """All of S_n as Permutation objects, in lexicographic order."""
    for imgs in itertools.permutations(range(1, n + 1)):
        yield Permutation(imgs)


def inversion_count(perm: Permutation) -> int:
    imgs = perm.images
    return sum(
        1
        for i in range(len(imgs))
        for j in range(i + 1, len(imgs))
        if imgs[i] > imgs[j]
    )


def apply_permutation(spec: NormSpec, perm: Permutation, mode: str = "both") -> NormSpec:
    """Right action of perm on spec: column k of the result is entry perm(k).

    mode 'both' moves whole columns, 'exponents' moves only the exponent row,
    'variables' moves only the axis row.
    """
    if perm.n != spec.n:
        raise ValidationError(f"permutation size {perm.n} does not match spec size {spec.n}")
    cols = spec.columns  # checked already: each mode rearranges them into a valid spec
    if mode == "both":
        return NormSpec._of(tuple(cols[perm(k) - 1] for k in range(1, spec.n + 1)))
    if mode == "exponents":
        return NormSpec._of(
            tuple((cols[perm(k) - 1][0], cols[k - 1][1]) for k in range(1, spec.n + 1))
        )
    if mode == "variables":
        return NormSpec._of(
            tuple((cols[k - 1][0], cols[perm(k) - 1][1]) for k in range(1, spec.n + 1))
        )
    raise ValidationError(f"unknown permutation mode {mode!r}")


def _kept_pairs(exponents, direction: str) -> list[tuple[int, int]]:
    """The column pairs (i, j), i < j, that a raising permutation must keep
    in order, those with p_i > p_j; for direction "lower", those with
    p_j > p_i.  Listed by i, then j."""
    n = len(exponents)
    return [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if (exponents[i - 1] > exponents[j - 1] if direction == "raise" else exponents[j - 1] > exponents[i - 1])
    ]


def _first_violation(perm: Permutation, spec: NormSpec, direction: str):
    """First column pair witnessing that perm fails to raise (or lower) spec.

    A pair (i, j), i < j, is *reversed* by perm when column j ends up before
    column i.  Raising requires p_i <= p_j on every reversed pair; lowering
    requires p_j <= p_i.  Returns None when the predicate holds.
    """
    if perm.n != spec.n:
        raise ValidationError(f"permutation size {perm.n} does not match spec size {spec.n}")
    inv = perm.inverse()
    return next(((i, j) for i, j in _kept_pairs(spec.exponents, direction) if inv(j) < inv(i)), None)


def raises(perm: Permutation, spec: NormSpec) -> bool:
    """True when perm only moves smaller exponents outward past larger ones."""
    return _first_violation(perm, spec, "raise") is None


def lowers(perm: Permutation, spec: NormSpec) -> bool:
    return _first_violation(perm, spec, "lower") is None


@dataclass(frozen=True)
class RaiseStep:
    position: int  # adjacent transposition swapping columns (position, position+1)
    state: NormSpec  # spec after applying this step


@dataclass(frozen=True)
class RaiseTrace:
    """Certificate: target = tau_1 ∘ ... ∘ tau_m, one adjacent swap per inversion.

    steps[k].state is the spec after the first k+1 swaps; each swap raises
    (or lowers, per direction) the spec before it, which is checkable from
    adjacent exponents alone.
    """

    direction: str
    initial: NormSpec
    target: Permutation
    steps: tuple[RaiseStep, ...]

    @property
    def final_spec(self) -> NormSpec:
        return self.steps[-1].state if self.steps else self.initial

    def recompose(self) -> Permutation:
        """Product tau_1 ∘ ... ∘ tau_m of the recorded adjacent transpositions."""
        acc = Permutation.identity(self.initial.n)
        for step in self.steps:
            acc = acc.compose(Permutation.transposition(self.initial.n, step.position))
        return acc

    def to_doc(self) -> list:
        return [{"swap_at": s.position, "state": s.state.to_doc()} for s in self.steps]


def decompose(perm: Permutation, spec: NormSpec, direction: str = "raise") -> RaiseTrace:
    """Factor a raising (or lowering) permutation into adjacent transpositions.

    The factorization has exactly one swap per inversion of perm, and every
    intermediate swap raises (lowers) the spec it is applied to.  Raises
    ValidationError, naming a witnessing column pair, if perm does not
    raise/lower spec in the first place.  Bubble-sorting perm's images at
    the first descent picks the swaps, replayed in reverse on spec's columns.
    """
    if direction not in ("raise", "lower"):
        raise ValidationError(f"direction must be 'raise' or 'lower', got {direction!r}")
    witness = _first_violation(perm, spec, direction)
    if witness is not None:
        i, j = witness
        raise ValidationError(
            f"permutation does not {direction} the spec: columns {i} and {j} "
            f"(exponents {spec.exponents[i - 1]} and {spec.exponents[j - 1]}) "
            f"are reversed the wrong way"
        )
    imgs, picked = list(perm.images), []
    while k := next((j for j in range(1, perm.n) if imgs[j - 1] > imgs[j]), 0):
        picked.append(k)
        imgs[k - 1], imgs[k] = imgs[k], imgs[k - 1]
    cols, steps = list(spec.columns), []
    for k in reversed(picked):
        cols[k - 1], cols[k] = cols[k], cols[k - 1]
        steps.append(RaiseStep(k, NormSpec._of(tuple(cols))))
    return RaiseTrace(direction, spec, perm, tuple(steps))


def sorting_permutations(spec: NormSpec) -> tuple[Permutation, Permutation]:
    """(descending raiser, ascending lowerer) with stable tie-breaking.

    The first sorts exponents nonincreasing (and raises spec), the second
    nondecreasing (and lowers spec); equal exponents keep their original
    relative order, so both are deterministic.
    """
    exps = spec.exponents
    n = spec.n
    order_desc = sorted(range(n), key=lambda i: exps[i], reverse=True)
    order_asc = sorted(range(n), key=lambda i: exps[i])
    return (
        Permutation(tuple(i + 1 for i in order_desc)),
        Permutation(tuple(i + 1 for i in order_asc)),
    )


def _multiset_permutations(seq_sorted):
    """All distinct permutations of a sorted list of comparable items, lex order."""
    seq = list(seq_sorted)
    n = len(seq)
    yield list(seq)
    while True:
        i = n - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1:] = reversed(seq[i + 1:])
        yield list(seq)


def orbit(spec: NormSpec, mode: str = "exponents") -> list[NormSpec]:
    """All distinct specs reachable by permuting one row of spec.

    Both modes are one walk: every distinct arrangement of the exponent row,
    in ascending lexicographic order of exponent rows.

    mode='exponents': each arrangement over the fixed axis row.

    mode='variables': requires the exponent row to be nonincreasing.  Each
    arrangement is laid over the sorted axis ids, and its columns are then
    stably sorted by descending exponent, which keeps the exponent row and
    assigns the axes to its blocks of equal exponents, ascending inside a
    block (reordering axes within an equal-exponent block does not change
    the norm).  The specs are listed in lexicographic order of axis-id rows.
    """
    exps = spec.exponents
    check_family_size(Counter(exps).values(), len(exps))
    if mode == "variables":
        if not spec.is_nonincreasing():
            raise ValidationError(
                "variable-row orbits need exponents sorted nonincreasing; "
                f"got {[str(e) for e in exps]}"
            )
        ids = sorted(spec.axis_ids)
    elif mode == "exponents":
        ids = spec.axis_ids
    else:
        raise ValidationError(f"unknown orbit mode {mode!r}")
    distinct = sorted(set(exps))
    rank_of = {e: r for r, e in enumerate(distinct)}
    result = []
    for row in _multiset_permutations(sorted(rank_of[e] for e in exps)):
        cols = range(len(row))
        if mode == "variables":
            cols = sorted(cols, key=row.__getitem__, reverse=True)  # stable
        result.append(NormSpec._of(tuple((distinct[row[k]], ids[k]) for k in cols)))
    if mode == "variables":
        result.sort(key=lambda s: s.axis_ids)
    return result


@dataclass(frozen=True)
class OrbitInfo:
    """Distinct exponent values (descending), their multiplicities, the orbit
    size n!/(n_1!...n_r!), and the exact harmonic mean of the exponent row."""

    values: tuple[Exponent, ...]
    multiplicities: tuple[int, ...]
    size: int
    harmonic_mean: Exponent


def orbit_info(spec: NormSpec) -> OrbitInfo:
    counts = Counter(spec.exponents)
    distinct = tuple(sorted(counts, reverse=True))
    size = math.factorial(spec.n)
    for c in counts.values():
        size //= math.factorial(c)
    multiplicities = tuple(counts[d] for d in distinct)
    return OrbitInfo(distinct, multiplicities, size, harmonic_mean(spec.exponents))
