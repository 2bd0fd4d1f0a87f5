"""Monomial basis enumeration and evaluation.

Every neuron applies a weighted sum over all monomials of total degree at
most D in its F (masked) inputs.  The basis order is fixed so that weight
files and emitted RTL are portable: terms are sorted by total degree, ties
broken by descending lexicographic order on the exponent tuple.  For
(F=2, D=3) this yields

    [1, x0, x1, x0^2, x0*x1, x1^2, x0^3, x0^2*x1, x0*x1^2, x1^3]

The constant term doubles as the bias, so a degree-1 basis reproduces the
plain affine neuron exactly.

Each term after the constant is an earlier term, its parent, times one
variable x_v, v the last variable of the term.  Dividing the terms that
hold x_j by x_j maps them one-to-one, in basis order, onto the
basis.parents terms of degree < D (the prefix rule), so a term's parent
is its rank among the terms that hold its last variable, and the parents
of d m_i / d x_j = e_ij * m_parent, over the terms that hold x_j, are
the basis prefix in order.  No power is taken and no index table is kept.

A neuron's value is sum_i w_i * m_i, summed term by term in basis order
with elementwise multiply-adds, so that it depends on neither the batch
size nor the BLAS kernel.  Two kernels give those bits:

- weighted_expand forms each term and adds its weighted value in the
  same step, keeping only the terms of degree < D (the only parents).
  It serves inference (layer_eval: tabulation, forward_codes and the
  equivalence check), whose row chunks are sized by what it keeps.
  Codes shared by all W neurons are laid out neuron-major, so each
  elementwise pass runs along the rows: tabulation's, and the
  source-code tuples that model.memo_layer_eval evaluates once.  Each
  neuron's own codes (a chunk the memo does not serve) keep the
  row-major (..., W) layout.  The two layouts give the same bits.
- weighted_sum weighs a term-major (M, ..., W) array in place and adds
  its rows with one outer-axis reduce.  It serves training, whose
  backward pass needs every term of the layer anyway: the forward pass
  expands a layer once, term-major as expand returns it, and sums it in
  a few whole-array calls instead of three calls per term.  expand_vjp
  reads the same term-major layout without a gather: each variable's
  parents are the basis prefix, so it forms each variable's products
  from the weights, the sums' gradient and the rows terms[:parents].
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
    """Ordered exponent vectors of degree <= degree over fan_in variables."""

    fan_in: int
    degree: int
    exponents: np.ndarray  # (M, fan_in) non-negative ints

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
        """(parent, v) per term after the constant: term i is its parent
        times x_v, where v is the last variable of term i, and by the
        prefix rule the parent is term i's rank among the terms that
        hold x_v: the count of earlier terms that hold it."""
        held, steps = [0] * self.fan_in, []  # per variable, the terms so far that hold it
        for row in self.exponents[1:].tolist():
            v = max(j for j, e in enumerate(row) if e)
            steps.append((held[v], v))
            held = [h + (e > 0) for h, e in zip(held, row)]
        return steps

    @cached_property
    def vjp_terms(self) -> list:
        """(i, e_ij) per variable j over the terms i holding x_j, whose
        parents are the basis prefix arange(parents) (see expand_vjp)."""
        return [(i, e[i]) for e in self.exponents.T for i in [np.flatnonzero(e)]]

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


def enumerate_basis(fan_in: int, degree: int) -> MonomialBasis:
    """Build the graded-lex monomial basis for (fan_in, degree).  The result
    is frozen, with a read-only array, so one object can serve every layer
    of that shape.  A basis of more than MAX_TERMS terms is refused before
    any term is enumerated."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    n = count_monomials(fan_in, degree)
    if n > MAX_TERMS:
        raise ValueError(f"basis has {n} terms, exceeding cap {MAX_TERMS}")
    rows = []
    for d in range(degree + 1):
        rows.extend(_gen_exponents(fan_in, d))
    exps = np.array(rows, dtype=np.int64)
    assert exps.shape == (n, fan_in)
    exps.setflags(write=False)
    return MonomialBasis(fan_in=fan_in, degree=degree, exponents=exps)


def expand(x: np.ndarray, basis: MonomialBasis) -> np.ndarray:
    """Evaluate every basis monomial at x.

    x may be a length-F vector or any array whose last axis has length F;
    the result is a C-contiguous term-major (M, ...) array, term i at
    [i], so each term is contiguous.  Term 0 is 1; every later term is
    its parent times one variable, which multiplies out each monomial
    left to right (x0*x0*x1 for x0^2*x1).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != basis.fan_in:
        raise ValueError(f"expected last axis {basis.fan_in}, got {x.shape[-1]}")
    out = np.empty((len(basis),) + x.shape[:-1], dtype=np.float64)
    # one flat view per term and variable, made once: training calls this per batch
    rows, xt = list(out.reshape(len(out), -1)), list(x.reshape(-1, basis.fan_in).T.copy())
    rows[0][...] = 1.0
    for i, (parent, v) in enumerate(basis.steps, start=1):
        np.multiply(rows[parent], xt[v], out=rows[i])
    return out


def expand_vjp(terms: np.ndarray, w: np.ndarray, dz: np.ndarray,
               basis: MonomialBasis) -> np.ndarray:
    """Pull the gradient dz (..., W) of a layer's sums z = sum_i w[:, i] *
    m_i back to its inputs x, given the monomials terms (M, ..., W),
    expand(x), and the weights w (W, M): the result is (..., W, F), and
    entry j is sum_i dm_i * e_ij * m_parent with dm_i = w[:, i] * dz and
    m_parent the term m_i / x_j.

    Every variable's parents are the basis prefix: by the prefix rule the
    parents of the terms that hold x_j are the basis.parents terms of
    degree < D, in basis order, so terms[:parents] is their parent rows,
    read without a gather.  For each variable one (parents, ..., W) buffer,
    reused across variables, is filled with dm_i and multiplied in place
    by the parents, so no (M, ..., W) gradient and no gathered monomial
    rows are built.  einsum then adds (dm_i * m_parent) * e_ij into a
    zeroed sum one term at a time, in basis order, when a row has more
    than one element.  When it has one, the product is one contiguous
    row and einsum takes its dot path instead, which may round
    differently.
    """
    wt = np.asarray(w, dtype=np.float64).T
    wt = wt.reshape(wt.shape[:1] + (1,) * (dz.ndim - 1) + wt.shape[1:])
    parents = terms[:basis.parents]
    dm = np.empty(parents.shape, dtype=np.float64)
    out = np.empty(terms.shape[1:] + (basis.fan_in,), dtype=np.float64)
    for j, (i, e) in enumerate(basis.vjp_terms):
        np.multiply(wt[i], dz, out=dm)
        dm *= parents
        out[..., j] = np.einsum("k...,k->...", dm, e)
    return out


def weighted_sum(terms: np.ndarray, w: np.ndarray) -> np.ndarray:
    """z[..., k] = sum_i w[k, i] * terms[i, ..., k] over term-major terms
    (M, ..., W), expand(x), or (M, ..., 1) when all W neurons share them.
    A C-contiguous (M, ..., W) array, such as expand's result, is
    overwritten with its weighted terms; other terms are weighed into a
    new C-ordered array.

    The weighted terms are added in basis order, each sum starting from
    its first term, so a row's result depends on neither the batch size
    nor the BLAS kernel: a reduce over the outer, C-ordered axis adds
    whole rows one after another (onto -0.0, which changes no value).
    When a row is one element the reduce axis is the contiguous one,
    where numpy sums pairwise, so those rows are added one at a time.
    """
    wt = np.asarray(w, dtype=np.float64).T
    if len(wt) != len(terms):
        raise ValueError(f"expected {len(terms)} weights per neuron, got {len(wt)}")
    wt = wt.reshape(wt.shape[:1] + (1,) * (terms.ndim - 2) + wt.shape[1:])
    in_place = terms.shape[-1] == wt.shape[-1] and terms.flags.c_contiguous
    terms = np.multiply(terms, wt, out=terms if in_place else None, order="C")
    if terms[0].size != 1:
        return np.add.reduce(terms, axis=0, initial=-0.0)
    z = terms[0].copy()
    for row in terms[1:]:
        z += row
    return z


def weighted_expand(x: np.ndarray, basis: MonomialBasis, w: np.ndarray) -> np.ndarray:
    """weighted_sum(expand(x, basis), w), bit for bit, without the monomials.

    x is (..., K, F) with K the neuron count W of w (W, M), or 1 when all
    neurons share their inputs; the result is (..., W).  The terms read
    the (M, W) transpose of w, which is copied unless w is in Fortran
    order: a caller that runs many chunks transposes once and passes
    that (model.layer_eval does).  Each term is multiplied out as expand
    does and its weighted value added at once, in basis order.  Only the
    basis.parents terms of degree < D are kept, so the memory per row of
    x is parents + F floats per code row plus a few (..., W) sums.

    The layout follows K.  Per-neuron codes (K == W) keep x's shape: the
    terms are (..., W) and each ufunc runs along the neurons.  Shared
    codes (K == 1: tabulation's addresses, and the new source-code
    tuples of a memo fill in forward_codes and the equivalence check)
    are laid out neuron-major: the terms are (...) rows,
    the sums (W, ...), and the result is the (..., W) transposed view of
    those sums.  Each ufunc then runs along the rows, not along a short
    axis of W neurons against a broadcast term: a shared chunk of a
    narrow layer (16 or 5 neurons on thousands of rows, F 3, D 4) is
    2-3x faster, and one of a wide layer (nid-lite's 686 neurons on 123
    rows) about even.  Per-neuron codes keep the (..., W) layout: their
    chunks can be a few rows of a wide layer, where neuron-major was
    slower (a 5-row nid-lite layer-0 chunk took 2.4 -> 3.0 ms).  Either
    way every element gets the same multiplies and adds in the same
    order.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != basis.fan_in:
        raise ValueError(f"expected last axis {basis.fan_in}, got {x.shape[-1]}")
    wt = np.ascontiguousarray(np.asarray(w, dtype=np.float64).T)
    if len(wt) != len(basis):
        raise ValueError(f"expected {len(basis)} weights per neuron, got {len(wt)}")
    shared = x.ndim > 1 and x.shape[-2] == 1
    if shared:
        x = x[..., 0, :]
        wt = wt.reshape(wt.shape + (1,) * (x.ndim - 1))
    xt = x.transpose((x.ndim - 1,) + tuple(range(x.ndim - 1))).copy()
    kept = basis.parents
    terms = np.empty((kept,) + xt.shape[1:], dtype=np.float64)
    terms[0] = 1.0
    z = terms[0] * wt[0]
    top = np.empty(xt.shape[1:], dtype=np.float64)  # a degree-D term, used once
    weighted = np.empty_like(z)
    for i, (parent, v) in enumerate(basis.steps, start=1):
        term = terms[i, ...] if i < kept else top
        np.multiply(terms[parent], xt[v], out=term)
        z += np.multiply(term, wt[i], out=weighted)
    return np.moveaxis(z, 0, -1) if shared else z
