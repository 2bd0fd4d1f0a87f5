"""Monomial basis enumeration and evaluation.

Every neuron applies a weighted sum over all monomials of total degree at
most D in its F (masked) inputs.  The basis order is fixed so that weight
files and emitted RTL are portable: terms are sorted by total degree, ties
broken by descending lexicographic order on the exponent tuple.  For
(F=2, D=3) this yields

    [1, x0, x1, x0^2, x0*x1, x1^2, x0^3, x0^2*x1, x0*x1^2, x1^3]

The constant term doubles as the bias, so a degree-1 basis reproduces the
plain affine neuron exactly.

One index table, MonomialBasis.lowered, drives evaluation and
differentiation: term i is its parent lowered[i, v] times x_v (v the last
variable of the term), and d m_i / d x_j is e_ij * m[lowered[i, j]], a
gather of computed terms.  No power is taken.

A neuron's value is sum_i w_i * m_i, summed term by term in basis order
with elementwise multiply-adds, so that it depends on neither the batch
size nor the BLAS kernel.  weighted_expand forms each term and adds its
weighted value in the same step, keeping only the terms of degree < D
(the only parents); it gives the bits of weighted_sum(expand(x), w)
without the (..., M) monomial array.  The inference path and the training
forward use it; backward, which needs every term, calls expand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Refuse to enumerate bases beyond this many terms.
MAX_TERMS = 1 << 20

_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class MonomialBasis:
    """Ordered exponent vectors of degree <= degree over fan_in variables,
    and lowered[i, j]: the index of term i with the exponent of variable
    j lowered by one, or 0 when e_ij == 0."""

    fan_in: int
    degree: int
    exponents: np.ndarray  # (M, fan_in) non-negative ints
    lowered: np.ndarray  # (M, fan_in) term indices

    def __len__(self) -> int:
        return self.exponents.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialBasis)
            and self.fan_in == other.fan_in
            and self.degree == other.degree
            and np.array_equal(self.exponents, other.exponents)
        )

    @cached_property
    def steps(self) -> list:
        """(parent, v) per term after the constant: term i is term
        lowered[i, v] times x_v, where v is the last variable of term i."""
        last = [int(np.flatnonzero(e)[-1]) for e in self.exponents[1:]]
        return [(int(self.lowered[i, v]), v) for i, v in enumerate(last, start=1)]

    @cached_property
    def vjp_terms(self) -> list:
        """(i, lowered[i, j], e_ij) per variable j over the terms i holding x_j."""
        return [(i, self.lowered[i, j], e[i]) for j, e in enumerate(self.exponents.T)
                for i in [np.flatnonzero(e)]]

    @cached_property
    def parents(self) -> int:
        """The number of terms of degree < degree: the basis prefix that
        later terms are multiplied from."""
        return count_monomials(self.fan_in, self.degree - 1)


def count_monomials(fan_in: int, degree: int) -> int:
    """Number of monomials of total degree <= degree in fan_in variables.

    Equals C(fan_in + degree, degree), computed exactly.
    """
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    n = math.comb(fan_in + degree, degree)
    if n > _INT64_MAX:
        raise OverflowError(
            f"monomial count C({fan_in + degree},{degree}) exceeds 64-bit range"
        )
    return n


def _gen_exponents(fan_in: int, total: int):
    """All exponent tuples of length fan_in summing to total, descending lex."""
    if fan_in == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _gen_exponents(fan_in - 1, total - first):
            yield (first,) + rest


def enumerate_basis(fan_in: int, degree: int, max_terms: int = MAX_TERMS) -> MonomialBasis:
    """Build the graded-lex monomial basis for (fan_in, degree).  The result
    is frozen, with read-only arrays, so one object can serve every layer of
    that shape."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    n = count_monomials(fan_in, degree)
    if n > max_terms:
        raise ValueError(f"basis has {n} terms, exceeding cap {max_terms}")
    rows = []
    for d in range(degree + 1):
        rows.extend(_gen_exponents(fan_in, d))
    exps = np.array(rows, dtype=np.int64)
    assert exps.shape == (n, fan_in)
    index = {row: i for i, row in enumerate(rows)}  # a lowered 0 exponent is absent
    lowered = np.array([[index.get(r[:j] + (r[j] - 1,) + r[j + 1 :], 0) for j in range(fan_in)]
                        for r in rows], dtype=np.int64)
    exps.setflags(write=False)
    lowered.setflags(write=False)
    return MonomialBasis(fan_in=fan_in, degree=degree, exponents=exps, lowered=lowered)


def expand(x: np.ndarray, basis: MonomialBasis) -> np.ndarray:
    """Evaluate every basis monomial at x.

    x may be a length-F vector or any array whose last axis has length F;
    the result appends an axis of length M in place of it.  Term 0 is 1;
    every later term is one earlier term times one variable, which
    multiplies out each monomial left to right (x0*x0*x1 for x0^2*x1).
    The terms are stored one after another (the result is a view of an
    (M, ...) array), so each term is contiguous.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != basis.fan_in:
        raise ValueError(f"expected last axis {basis.fan_in}, got {x.shape[-1]}")
    lead = tuple(range(x.ndim - 1))
    xt = x.transpose((x.ndim - 1,) + lead).copy()
    out = np.empty((len(basis),) + x.shape[:-1], dtype=np.float64)
    out[0] = 1.0
    for i, (parent, v) in enumerate(basis.steps, start=1):
        np.multiply(out[parent], xt[v], out=out[i, ...])
    return out.transpose(tuple(a + 1 for a in lead) + (0,))


def expand_vjp(m: np.ndarray, dm: np.ndarray, basis: MonomialBasis) -> np.ndarray:
    """Pull a gradient dm with respect to the monomials m = expand(x) back
    to x: entry j is sum_i dm_i * e_ij * m[lowered[i, j]].

    For m and dm of shape (n, W, M), the gathered product has its terms
    outermost in memory, so einsum adds (dm_i * m_parent) * e_ij into a
    zeroed sum one term at a time, in basis order, when n * W > 1.  When
    n * W == 1 that product is one contiguous row and einsum takes its dot
    path instead, which may round differently.
    """
    out = np.empty(m.shape[:-1] + (basis.fan_in,), dtype=np.float64)
    for j, (i, parent, e) in enumerate(basis.vjp_terms):
        out[..., j] = np.einsum("...k,k->...", dm[..., i] * m[..., parent], e)
    return out


def weighted_sum(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """z[..., k] = sum_i w[k, i] * m[..., k, i] (m's neuron axis may be 1),
    summed term by term in basis order with elementwise multiply-adds, so
    a row's result depends on neither the batch size nor the BLAS kernel."""
    wt = np.ascontiguousarray(w.T)
    z = m[..., 0] * wt[0]
    for i in range(1, len(wt)):
        z += m[..., i] * wt[i]
    return z


def weighted_expand(x: np.ndarray, basis: MonomialBasis, w: np.ndarray) -> np.ndarray:
    """weighted_sum(expand(x, basis), w), bit for bit, without the monomials.

    x is (..., K, F) with K the neuron count W of w (W, M), or 1 when all
    neurons share their inputs; the result is (..., W).  The terms read
    the (M, W) transpose of w, which is copied unless w is in Fortran
    order: a caller that runs many chunks transposes once and passes
    that (model.layer_eval does).  Each term is
    multiplied out as expand does and its weighted value added at once,
    in basis order.  Only the basis.parents terms of degree < D are kept,
    so the memory per row of x is parents + F floats per code row plus a
    few (..., W) sums.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != basis.fan_in:
        raise ValueError(f"expected last axis {basis.fan_in}, got {x.shape[-1]}")
    lead = tuple(range(x.ndim - 1))
    xt = x.transpose((x.ndim - 1,) + lead).copy()
    wt = np.ascontiguousarray(np.asarray(w, dtype=np.float64).T)
    if len(wt) != len(basis):
        raise ValueError(f"expected {len(basis)} weights per neuron, got {len(wt)}")
    kept = basis.parents
    terms = np.empty((kept,) + x.shape[:-1], dtype=np.float64)
    terms[0] = 1.0
    z = terms[0] * wt[0]
    top = np.empty(x.shape[:-1], dtype=np.float64)  # a degree-D term, used once
    weighted = np.empty_like(z)
    for i, (parent, v) in enumerate(basis.steps, start=1):
        term = terms[i, ...] if i < kept else top
        np.multiply(terms[parent], xt[v], out=term)
        z += np.multiply(term, wt[i], out=weighted)
    return z
