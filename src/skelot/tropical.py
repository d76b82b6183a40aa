"""Min-plus valuations of monomial sections and their linear algebra.

A section is a finite set of monomial terms; its valuation at a point x of a
face is min over terms of <x, alpha> + t_order, one integer product over the
section's exponent table.  Wall detection, equivalence classes of exponents
and the independence verdict are exact (Fraction).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from ._linalg import _int_dtype, over_lcm
from .errors import PointOffFace, TieOnRegion
from .polyhedral import Face, Point, as_point


@dataclass(frozen=True)
class MonomialTerm:
    exponent: tuple[int, ...]
    t_order: int = 0
    coeff_id: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "exponent", tuple(int(a) for a in self.exponent))
        object.__setattr__(self, "t_order", int(self.t_order))

    def value_at(self, x: Sequence[Fraction]) -> Fraction:
        nums, L = over_lcm([Fraction(c) for c in x])
        return Fraction(self.scaled_value(nums, L), L)

    def scaled_value(self, nums: Sequence[int], L: int) -> int:
        """L times the value at the point nums / L, an integer."""
        return sum(c * a for c, a in zip(nums, self.exponent)) \
            + self.t_order * L


@dataclass(frozen=True)
class TropicalSection:
    terms: tuple[MonomialTerm, ...]
    level: int = 1
    label: Optional[tuple] = None

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a section needs at least one term")
        keys = [(t.exponent, t.t_order) for t in self.terms]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate (exponent, t_order) pair in section")

    @cached_property
    def valuation_table(self) -> tuple:
        """(E, t, max|E|, max|t|): the exponents as rows, zero-padded to the
        longest (zip truncates, so a missing coordinate weighs nothing), and
        the t-orders, each in `_int_dtype` of its largest magnitude.  Built
        on the first `val_at`, never with the section."""
        width = max(len(t.exponent) for t in self.terms)
        E = [t.exponent + (0,) * (width - len(t.exponent)) for t in self.terms]
        t = [term.t_order for term in self.terms]
        e_max = max((abs(a) for row in E for a in row), default=0)
        t_max = max(map(abs, t))
        return (np.array(E, dtype=_int_dtype(e_max)).reshape(len(E), width),
                np.array(t, dtype=_int_dtype(t_max)), e_max, t_max)


def val_at(section: TropicalSection, x: Sequence, face: Optional[Face] = None) -> Fraction:
    """Minimal weighted vanishing order of the section at x (exact).

    With x = nums / L over its common denominator, L times the valuation is
    the least entry of one integer product E nums + t L over the section's
    `valuation_table`.  Every factor and partial sum is below (max|E| + 1)
    (sum|nums| + 1) + (max|t| + 1) L, which picks the dtype (`_int_dtype`)."""
    pt = as_point(x)
    if face is not None and not face.contains(pt):
        raise PointOffFace(f"{pt} is not on the face")
    nums, L = over_lcm(pt)
    E, t, e_max, t_max = section.valuation_table
    nums = nums[:E.shape[1]]
    dtype = _int_dtype((e_max + 1) * (sum(map(abs, nums)) + 1) + (t_max + 1) * L)
    vals = E[:, :len(nums)].astype(dtype, copy=False) @ np.array(nums, dtype=dtype) \
        + t.astype(dtype, copy=False) * L
    return Fraction(int(vals.min()), L)


def val_argmin(section: TropicalSection, x: Sequence) -> tuple[Fraction, list[int]]:
    pt = as_point(x)
    vals = [t.value_at(pt) for t in section.terms]
    best = min(vals)
    return best, [i for i, v in enumerate(vals) if v == best]


# -- dominance regions ---------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """An open polyhedral domain of a face with per-section dominant terms."""

    face: Face
    chart_interval: Optional[tuple[Fraction, Fraction]]  # None: whole face
    sample: Point
    dominant: tuple[Optional[int], ...]  # term index per section, None on tie
    tie: bool


def _dominant_at(sections: Sequence[TropicalSection], x: Point):
    dom: list[Optional[int]] = []
    tie = False
    for s in sections:
        _, idxs = val_argmin(s, x)
        if len(idxs) == 1:
            dom.append(idxs[0])
        else:
            dom.append(idxs[0])  # lowest index, flagged
            tie = True
    return tuple(dom), tie


def dominant_regions(sections: Sequence[TropicalSection], face: Face) -> list[Region]:
    """Partition of the face interior by dominant monomial terms.

    Walls are found exactly on 1-dimensional faces.  On higher-dimensional
    faces only the wall-free case is decomposed; anything else collapses to a
    single whole-face region carrying the tie flag.
    """
    if face.dim == 1:
        lo = min(face.chart(v)[0] for v in face.vertices)
        hi = max(face.chart(v)[0] for v in face.vertices)
        walls: set[Fraction] = set()
        for s in sections:
            for i in range(len(s.terms)):
                for j in range(i + 1, len(s.terms)):
                    # value difference is affine in the chart coordinate
                    f0 = s.terms[i].value_at(face.unchart([lo])) - \
                        s.terms[j].value_at(face.unchart([lo]))
                    f1 = s.terms[i].value_at(face.unchart([hi])) - \
                        s.terms[j].value_at(face.unchart([hi]))
                    if f0 == f1:
                        continue
                    root = lo + (hi - lo) * f0 / (f0 - f1)
                    if lo < root < hi:
                        walls.add(root)
        cuts = [lo] + sorted(walls) + [hi]
        regions = []
        for a, b in zip(cuts, cuts[1:]):
            mid = (a + b) / 2
            sample = face.unchart([mid])
            dom, tie = _dominant_at(sections, sample)
            regions.append(Region(face, (a, b), sample, dom, tie))
        return regions

    # wall-free check on higher-dimensional faces
    centroid = tuple(sum(col) / len(face.vertices) for col in zip(*face.vertices))
    dom, tie = _dominant_at(sections, centroid)
    if not tie:
        # a term minimal at every vertex is minimal on the whole simplex
        for s, d in zip(sections, dom):
            for v in face.vertices:
                vals = [t.value_at(v) for t in s.terms]
                if vals[d] > min(vals):
                    tie = True
                    break
    return [Region(face, None, centroid, dom, tie)]


# -- exponent classes and independence ----------------------------------------


def exponent_classes(terms: Sequence[Sequence[int]],
                     b: Sequence[int]) -> list[list[int]]:
    """Partition indices of exponent vectors by alpha ~ alpha + n*b, n in Z."""
    vecs = [tuple(int(a) for a in t) for t in terms]
    bv = tuple(int(x) for x in b)
    if any(len(v) != len(bv) for v in vecs):
        raise ValueError("exponent length does not match multiplicity vector")
    # alpha - floor(alpha_k / b_k) b, k the first nonzero entry of b, is the
    # same for the whole class; alpha itself when b = 0
    k = next((k for k, x in enumerate(bv) if x), None)
    groups: dict[tuple, list[int]] = {}
    for i, v in enumerate(vecs):
        q = 0 if k is None else v[k] // bv[k]
        groups.setdefault(tuple(a - q * x for a, x in zip(v, bv)), []).append(i)
    return list(groups.values())


@dataclass(frozen=True)
class IndependenceWitness:
    class_sections: tuple[int, ...]      # section indices in the failing class
    kernel: tuple[Fraction, ...]         # combination with vanishing coefficients
    sample: Point


@dataclass(frozen=True)
class IndependenceVerdict:
    independent: bool
    witness: Optional[IndependenceWitness] = None


def _kernel_vector(vectors: list[list[Fraction]]) -> Optional[list[Fraction]]:
    from . import _linalg
    cols = [list(row) for row in zip(*vectors)]  # matrix with vectors as columns
    ker = _linalg.nullspace(cols)
    return ker[0] if ker else None


def check_valuative_independence(
        sections: Sequence[TropicalSection],
        where: Union[Region, Face],
        coeff_vectors: dict,
        b: Optional[Sequence[int]] = None) -> IndependenceVerdict:
    """Verdict on the independence of sections over a region (or whole face).

    Dominant terms are grouped into exponent classes modulo Z*b; within each
    class the coefficient vectors must be linearly independent.  A failing
    class is reported with a kernel combination as witness.
    """
    if isinstance(where, Face):
        regions = dominant_regions(sections, where)
    else:
        regions = [where]
    for region in regions:
        if region.tie:
            raise TieOnRegion("dominant term not unique; refine the region")
        dom_terms = [s.terms[d] for s, d in zip(sections, region.dominant)]
        if b is not None:
            bv = tuple(int(x) for x in b)
        elif region.face.multiplicities is not None:
            bv = region.face.multiplicities
        else:
            bv = tuple(0 for _ in dom_terms[0].exponent)
        classes = exponent_classes([t.exponent for t in dom_terms], bv)
        for members in classes:
            if len(members) < 2:
                continue
            vecs = [[Fraction(v) for v in coeff_vectors[dom_terms[i].coeff_id]]
                    for i in members]
            ker = _kernel_vector(vecs)
            if ker is not None:
                return IndependenceVerdict(
                    independent=False,
                    witness=IndependenceWitness(tuple(members), tuple(ker),
                                                region.sample))
    return IndependenceVerdict(independent=True)
