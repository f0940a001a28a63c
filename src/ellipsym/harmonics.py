"""Orthonormal real spherical harmonics of degree 0..4 on S^{d-1}, any d >= 2.

The basis is built by Gram-Schmidt orthonormalization of monomial
restrictions to the sphere.  Restrictions of the monomials of degree k,
together with all lower degrees of the same parity, span the harmonic
spaces H_k + H_{k-2} + ..., so orthogonalizing them in degree order (lex
order within a degree) leaves exactly dim H_k new functions per degree;
candidates that are linearly dependent on their predecessors drop out.

Everything up to the final normalization runs in exact integer arithmetic.
Moments of monomials under the uniform probability measure on the sphere,

    E[prod u_j^{a_j}] = prod_j (a_j - 1)!!  /  prod_{t=0}^{M-1} (d + 2t),

with M = (sum a_j)/2 (zero when any a_j is odd), share the common
denominator prod_{t<4}(d+2t) (M <= 4 for two monomials' product), so the
Gram matrix of the monomials is an integer matrix over that denominator
and the Gram-Schmidt recurrence can be run fraction-free.  Exact arithmetic
makes two things trivial that are delicate in floating point: rank
decisions (a dependent candidate reduces to exactly zero) and parity (each
basis function is supported on monomials of a single exponent-parity
class, so psi(-u) = (-1)^k psi(u) holds exactly).

The moment matrix is block diagonal across exponent-parity classes
(moments vanish unless every coordinate's exponent parity matches), so the
orthogonalization runs independently per class, which keeps the integer
sizes and the run time small.

Evaluation uses the same structure.  Per chunk of 2048 points the monomials
are built degree by degree, each as its parent times one coordinate, and each
parity class yields its functions from one small matmul with its own
monomials, skipping the zero coefficients (155 of 3,850 at d = 4 are not).
One chunk loop, reusing one monomial buffer and one (m, 2048) table per
call, serves ``evaluate`` and both harmonic reductions (ks and mpq), which
fold each chunk into a running sum and so never hold more than one chunk.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .exceptions import UsageError, _integer
from .linalg import _real

MAX_DEGREE = 4

_UNIT_TOL = 1e-8

#: points per evaluation chunk; the monomial table of a chunk is N x _CHUNK
_CHUNK = 2048


def harmonic_dim(d: int, k: int) -> int:
    """Dimension of the space of spherical harmonics of degree k on S^{d-1}.

    C(d+k-1, k) - C(d+k-3, k-2) for k >= 2; 1 for k = 0; d for k = 1.
    """
    d, k = _integer("d", d, 2), _integer("k", k, 0)
    if k == 0:
        return 1
    if k == 1:
        return d
    return math.comb(d + k - 1, k) - math.comb(d + k - 3, k - 2)


def _monomials_of_degree(d: int, k: int) -> list[tuple[int, ...]]:
    """Exponent tuples summing to k, in ascending lexicographic order."""
    if k == 0:
        return [(0,) * d]
    out = set()
    for combo in combinations_with_replacement(range(d), k):
        e = [0] * d
        for j in combo:
            e[j] += 1
        out.add(tuple(e))
    return sorted(out)


def _double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def _moment_numerator(exps: Sequence[int], d: int) -> int:
    """Integer numerator of E[prod u_j^{a_j}] over the common denominator
    prod_{t<MAX_DEGREE}(d+2t).  Zero if any exponent is odd."""
    M = 0
    num = 1
    for a in exps:
        if a & 1:
            return 0
        M += a >> 1
        num *= _double_factorial(a - 1)
    for t in range(M, MAX_DEGREE):
        num *= d + 2 * t
    return num


@dataclass(frozen=True)
class HarmonicBasis:
    """An evaluable orthonormal basis of spherical harmonics of degrees 0..4.

    Attributes
    ----------
    d : dimension of the ambient space.
    degrees : integer array of length m, the degree of each basis function.
        Functions are ordered by degree; the first is the constant 1.
    exponents : (N, d) integer array of the monomials the functions are
        expressed in.
    coefficients : (m, N) float array; function s is
        sum_t coefficients[s, t] * u ** exponents[t].
    """

    d: int
    degrees: NDArray[np.int64]
    exponents: NDArray[np.int64]
    coefficients: NDArray[np.float64]
    # evaluation plan: runs (dst, src, length, j) meaning mono[dst:dst+length]
    # = mono[src:src+length] * u_j, and per parity class (monomials,
    # coefficient block, functions)
    _steps: tuple = field(repr=False, compare=False)
    _classes: tuple = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.degrees)

    def degree_slice(self, k: int) -> slice:
        """Index slice of the degree-k functions."""
        idx = np.flatnonzero(self.degrees == k)
        if idx.size == 0:
            raise UsageError(f"basis has no degree-{k} functions")
        return slice(int(idx[0]), int(idx[-1]) + 1)

    def evaluate(self, U) -> NDArray[np.float64]:
        """Evaluate the basis at unit vectors.

        Chunk by chunk, as the module docstring describes; each monomial is
        a product of coordinates in a fixed order, so psi(-u) = (-1)^k psi(u)
        holds bit for bit.

        Parameters
        ----------
        U : array_like, shape (n, d)
            Points on the unit sphere (validated to 1e-8).

        Returns
        -------
        (n, m) array of evaluations, in basis order: the transpose of a
        C-contiguous (m, n) array, so each function's values are contiguous.
        """
        A = _real(U, UsageError, "U is not a real numeric array")
        if A.ndim != 2 or A.shape[1] != self.d:
            raise UsageError(f"expected points of dimension {self.d}, got shape {A.shape}")
        sq = np.einsum("ij,ij->i", A, A)
        bad = np.abs(np.sqrt(sq) - 1.0) > _UNIT_TOL
        if np.any(bad):
            i = int(np.argmax(bad))
            raise UsageError(
                f"point {i} is not on the unit sphere (norm {math.sqrt(sq[i]):.6g})"
            )
        out = np.empty((self.size, len(A)))
        for _, lo, table in self._chunks(A[None]):
            out[:, lo : lo + table.shape[1]] = table
        return out.T

    def cumulative_peaks(self, U) -> NDArray[np.float64]:
        """Per (n, d) sample of a (k, n, d) stack of unit vectors (not
        checked), the largest squared norm of the running sum of the basis
        evaluations in row order, the constant centred at its spherical mean.
        The sum is carried across chunks, bit-identical to cumulating the
        table of :meth:`evaluate`, which is never built."""
        peaks = np.zeros(len(U))
        for i, lo, cum in self._chunks(U):
            cum[0] -= 1.0
            if lo:
                cum[:, 0] += carry
            np.cumsum(cum, axis=1, out=cum)
            carry = cum[:, -1].copy()
            peaks[i] = np.maximum(peaks[i], np.einsum("ij,ij->j", cum, cum).max())
        return peaks

    def sums(self, U) -> NDArray[np.float64]:
        """The basis evaluations summed over the rows of an (n, d) array of
        unit vectors (not checked): each chunk's row sums are added in order
        to zeros, so the table of :meth:`evaluate` is never built."""
        total = np.zeros(self.size)
        for _, _, table in self._chunks(U[None]):
            total += table.sum(axis=1)
        return total

    def _chunks(self, U):
        """Yield (sample, chunk start, table) over a (k, n, d) stack of unit
        vectors, the (m, w) table holding the basis at the chunk's w points,
        whose coordinates alone are transposed.  The monomial buffer and the
        table are reused: each table is valid until the next one is drawn."""
        n = U.shape[1]
        mono = np.empty((self.exponents.shape[0], min(n, _CHUNK)))
        out = np.empty((self.size, min(n, _CHUNK)))
        for i in range(len(U)):
            for lo in range(0, n, _CHUNK):
                w = min(_CHUNK, n - lo)
                P, M, table = U[i, lo : lo + w].T.copy(), mono[:, :w], out[:, :w]
                M[0] = 1.0
                for dst, src, length, j in self._steps:
                    np.multiply(M[src : src + length], P[j], out=M[dst : dst + length])
                for members, block, funcs in self._classes:
                    table[funcs] = block @ M[members]
                yield i, lo, table


def _orthogonalize_class(
    members: list[int],
    candidates: list[tuple[int, int]],
    exps: list[tuple[int, ...]],
    d: int,
) -> list[tuple[int, list[int], int]]:
    """Fraction-free Gram-Schmidt within one exponent-parity class.

    ``members`` are global monomial indices of the class, ``candidates``
    pairs (degree, global index) in processing order.  Returns accepted
    triples (global candidate index, integer coefficient vector over the
    class members, squared-norm numerator alpha), where the true squared
    norm is alpha / prod_{t<4}(d+2t).
    """
    local = {gidx: i for i, gidx in enumerate(members)}
    nloc = len(members)
    gram = [
        [_moment_numerator([a + b for a, b in zip(exps[gi], exps[gj])], d)
         for gj in members]
        for gi in members
    ]
    accepted: list[tuple[int, list[int], int]] = []
    basis_vecs: list[tuple[list[int], list[int], int]] = []  # (v, Gv, alpha)
    for _, gidx in candidates:
        v = [0] * nloc
        v[local[gidx]] = 1
        for nvec, wvec, alpha in basis_vecs:
            beta = sum(a * b for a, b in zip(v, wvec))
            if beta:
                v = [alpha * a - beta * b for a, b in zip(v, nvec)]
                g = 0
                for x in v:
                    g = math.gcd(g, x)
                if g > 1:
                    v = [x // g for x in v]
        w = [sum(v[i] * gram[i][j] for i in range(nloc)) for j in range(nloc)]
        alpha = sum(a * b for a, b in zip(v, w))
        if alpha == 0:
            # v is a nonzero polynomial but the zero function on the sphere
            # (e.g. x^2 + y^2 - 1): the candidate is dependent, skip it.
            continue
        if alpha < 0:
            raise ArithmeticError("moment Gram matrix lost positive semidefiniteness")
        basis_vecs.append((v, w, alpha))
        accepted.append((gidx, v, alpha))
    return accepted


def _to_float(v: list[int], alpha: int, denom: int) -> NDArray[np.float64]:
    """Convert an integer coefficient vector to floats, dividing by the
    exact norm sqrt(alpha/denom).  Large integers are pre-scaled by a power
    of two so the conversion cannot overflow."""
    shift = max(0, max(abs(x).bit_length() for x in v) - 500)
    scale = 1 << shift
    vf = np.array([float(Fraction(x, scale)) for x in v])
    norm = math.sqrt(float(Fraction(alpha, denom * scale * scale)))
    return vf / norm


@functools.cache
def _build(d: int) -> HarmonicBasis:
    mono: list[tuple[int, ...]] = []
    degree_of: list[int] = []
    for k in range(MAX_DEGREE + 1):
        ms = _monomials_of_degree(d, k)
        mono.extend(ms)
        degree_of.extend([k] * len(ms))
    N = len(mono)

    classes: dict[tuple[int, ...], list[int]] = {}
    for idx, e in enumerate(mono):
        classes.setdefault(tuple(a & 1 for a in e), []).append(idx)

    denom = 1
    for t in range(MAX_DEGREE):
        denom *= d + 2 * t

    # (degree, generating candidate index, dense coefficient row, class)
    rows: list[tuple[int, int, NDArray[np.float64], int]] = []
    for c, members in enumerate(classes.values()):
        cands = sorted((degree_of[g], g) for g in members)
        for gidx, v, alpha in _orthogonalize_class(members, cands, mono, d):
            dense = np.zeros(N)
            dense[members] = _to_float(v, alpha, denom)
            rows.append((degree_of[gidx], gidx, dense, c))
    rows.sort(key=lambda r: (r[0], r[1]))

    degrees = np.array([r[0] for r in rows], dtype=np.int64)
    coefficients = np.vstack([r[2] for r in rows])
    blocks = []
    for c, members in enumerate(classes.values()):
        funcs = np.array([s for s, r in enumerate(rows) if r[3] == c], dtype=np.intp)
        block = coefficients[np.ix_(funcs, members)]
        blocks.append((np.array(members), block, funcs))

    # Each monomial but 1 is its parent times u_j, j its first used coordinate.
    # In lex order the C(d-j+k-2, k) degree-k monomials in coordinates j+1..
    # come first, then those with first coordinate j, whose parents are, in
    # order, the leading C(d-j+k-2, k-1) of degree k - 1 (coordinates j..).
    start = [degree_of.index(k) for k in range(MAX_DEGREE + 1)]
    steps = tuple(
        (start[k] + math.comb(d - j + k - 2, k), start[k - 1], math.comb(d - j + k - 2, k - 1), j)
        for k in range(1, MAX_DEGREE + 1) for j in range(d)
    )
    for k in range(MAX_DEGREE + 1):
        got = int(np.count_nonzero(degrees == k))
        if got != harmonic_dim(d, k):
            raise ArithmeticError(
                f"degree {k} produced {got} functions, expected {harmonic_dim(d, k)}"
            )
    return HarmonicBasis(
        d=d,
        degrees=degrees,
        exponents=np.array(mono, dtype=np.int64),
        coefficients=coefficients,
        _steps=steps,
        _classes=tuple(blocks),
    )


def build_basis(d: int) -> HarmonicBasis:
    """Orthonormal spherical-harmonic basis of degrees 0..4 on S^{d-1}.

    The basis for each d is cached after its first build; the construction
    is deterministic (monomials in degree order, lex order within a degree),
    so builds that race on a first call agree bit for bit.

    Parameters
    ----------
    d : int
        Ambient dimension, at least 2.
    """
    return _build(_integer("d", d, 2))
