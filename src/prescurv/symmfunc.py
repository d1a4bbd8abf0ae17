"""Elementary symmetric function calculus on spectra and symmetric matrices.

A spectrum is an ndarray whose last axis holds the n principal curvatures;
every routine broadcasts over leading axes, so batches of spectra (or of
symmetric matrices, shape (..., n, n)) are handled in one call.  The cone
Gamma_k = {lambda : sigma_l(lambda) > 0 for l = 1..k} is the admissibility
domain used by the solvers.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConeViolationError

_ORACLE_MAX_N = 12


def sigma(values, l):
    """l-th elementary symmetric polynomial of the last axis of ``values``.

    Uses the one-pass Horner-style recurrence on e_0..e_l (cost O(n*l)),
    not subset enumeration.  sigma_0 is 1 by the empty-product convention.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    if not 0 <= l <= n:
        raise ValueError(f"sigma index l={l} out of range 0..{n}")
    batch = values.shape[:-1]
    if l == 0:
        return np.ones(batch) if batch else 1.0
    e = [np.ones(batch)] + [np.zeros(batch) for _ in range(l)]
    for i in range(n):
        x = values[..., i]
        for j in range(min(i + 1, l), 0, -1):
            e[j] = e[j] + x * e[j - 1]
    return e[l] if batch else float(e[l])


def sigma_subset_oracle(values, l):
    """sigma_l by explicit enumeration of all size-l index subsets.

    Independent test oracle only; refuses n > 12 to bound the C(n,l) cost.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    if n > _ORACLE_MAX_N:
        raise ValueError(f"enumeration oracle refuses n={n} > {_ORACLE_MAX_N}")
    if not 0 <= l <= n:
        raise ValueError(f"sigma index l={l} out of range 0..{n}")
    total = np.zeros(values.shape[:-1])
    for subset in itertools.combinations(range(n), l):
        term = np.ones(values.shape[:-1])
        for i in subset:
            term = term * values[..., i]
        total = total + term
    return total if values.ndim > 1 else float(total)


@functools.lru_cache(maxsize=None)
def _delete_one_indices(n):
    """Per entry i, the indices of the n - 1 other entries."""
    return np.array([[j for j in range(n) if j != i] for i in range(n)], dtype=int)


def sigma_grad(values, l):
    """Gradient of sigma_l: component i is sigma_{l-1} of the spectrum with
    entry i deleted.  Satisfies Euler's identity sum_i lambda_i g_i = l sigma_l.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    if not 1 <= l <= n:
        raise ValueError(f"gradient index l={l} out of range 1..{n}")
    deleted = values[..., _delete_one_indices(n)]  # (..., n, n-1)
    out = sigma(deleted, l - 1)
    return out if values.ndim > 1 else np.asarray(out, dtype=float)


@functools.lru_cache(maxsize=None)
def _delete_two_indices(n):
    """Pairs i < j and, per pair, the indices of the n - 2 other entries."""
    i, j = np.triu_indices(n, 1)
    keep = [[m for m in range(n) if m not in pair] for pair in zip(i, j)]
    return i, j, np.array(keep, dtype=int).reshape(len(i), n - 2)


def sigma_diag_derivs(values, B, l):
    """d/dt and d^2/dt^2 of sigma_l(diag(values) + t B) at t = 0.

    At a diagonal matrix both have closed forms (Caffarelli, Nirenberg &
    Spruck, Acta Math. 155, 1985):
        first  = sum_i sigma_{l-1}(values | i) B_ii,
        second = sum_{i != j} sigma_{l-2}(values | ij) (B_ii B_jj - B_ij^2),
    where (values | i) and (values | ij) delete entries i, and i and j.
    values (..., n) and B (..., n, n) broadcast over their leading axes.
    """
    values = np.asarray(values, dtype=float)
    B = np.asarray(B, dtype=float)
    n = values.shape[-1]
    if B.shape[-2:] != (n, n):
        raise ValueError("B must be a square matrix matching the spectrum")
    diag = np.diagonal(B, axis1=-2, axis2=-1)
    first = np.sum(sigma_grad(values, l) * diag, axis=-1)
    if l < 2:
        return first, np.zeros_like(first)
    i, j, keep = _delete_two_indices(n)
    minors = diag[..., i] * diag[..., j] - B[..., i, j] ** 2
    second = 2.0 * np.sum(sigma(values[..., keep], l - 2) * minors, axis=-1)
    return first, second


def sigma_hess_dir(A, B, l):
    """Second directional derivative d^2/dt^2 sigma_l(A + t B) at t = 0.

    sigma_l is invariant under orthogonal similarity, so with A = Q
    diag(lambda) Q^T it is the second derivative of sigma_l(diag(lambda) +
    t Q^T B Q), which sigma_diag_derivs gives in closed form.  Any
    orthonormal eigenbasis Q serves, so a repeated eigenvalue needs no
    special case.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[-1]
    if A.shape[-2:] != (n, n) or B.shape[-2:] != (n, n):
        raise ValueError("A and B must be square matrices with matching size")
    if not 1 <= l <= n:
        raise ValueError(f"hessian index l={l} out of range 1..{n}")
    lam, Q = np.linalg.eigh(A)
    out = sigma_diag_derivs(lam, np.swapaxes(Q, -1, -2) @ B @ Q, l)[1]
    return out if np.ndim(out) else float(out)


def cone_margin(sigmas):
    """Smallest of sigma_1..sigma_k (per node when arrays): positive exactly
    on Gamma_k."""
    return functools.reduce(np.minimum, sigmas)


def in_gamma_k(values, k):
    """Membership of the spectrum in the cone Gamma_k.

    Returns (ok, margin): ok is True iff sigma_l > 0 for every l = 1..k and
    margin is the smallest of the raw sigma_l values (line-search currency;
    callers wanting scale invariance normalise themselves).
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"cone index k={k} out of range 1..{n}")
    if values.ndim == 1:
        return _in_gamma_k_scalar(values.tolist(), k)
    margin = cone_margin(sigma(values, l) for l in range(1, k + 1))
    return margin > 0.0, margin


def _in_gamma_k_scalar(values, k):
    """(ok, margin) of one spectrum given as Python floats.

    One pass of sigma's recurrence up to e_k: e_l for l < k sees the same
    operations in the same order as sigma(values, l), and the running
    minimum keeps np.minimum's choice (the later value on ties, NaN wins),
    so the result equals the batched path's bit for bit.
    """
    e = _recurrence(len(values), k)(*values)
    margin = e[0]
    for v in e[1:]:
        if not (margin < v or margin != margin):
            margin = v
    return margin > 0.0, margin


@functools.lru_cache(maxsize=256)
def _recurrence(n, k):
    """sigma's recurrence on n floats up to e_k as one straight-line
    function returning (e_1, ..., e_k): the same operations in the same
    order as the loop ``e[j] = e[j] + x_i * e[j - 1]`` for i = 0..n-1,
    j = min(i + 1, k)..1 with e_0 = 1, without the loop's indexing, which
    costs several times the arithmetic on the short spectra that the
    rejection sampler tests one at a time."""
    xs = [f"x{i}" for i in range(n)]
    es = [f"e{j}" for j in range(1, k + 1)]
    lines = [f"def recurrence({', '.join(xs)}):", f"    {' = '.join(es)} = 0.0"]
    for i, x in enumerate(xs):
        for j in range(min(i + 1, k), 0, -1):
            lines.append(f"    e{j} = e{j} + {x} * {f'e{j - 1}' if j > 1 else '1.0'}")
    lines.append(f"    return ({', '.join(es)},)")
    scope = {}
    exec("\n".join(lines), scope)
    return scope["recurrence"]


@dataclass(frozen=True)
class OperatorSpec:
    """Curvature operator: sigma_k or the quotient sigma_k / sigma_l.

    ``homogeneity`` is the degree of the operator as a function of the
    spectrum (k for sigma_k, k - l for the quotient); the a priori bound
    report and the round-sphere start both consume it.
    """

    kind: str = "sigma_k"
    k: int = 2
    l: int = 0

    def __post_init__(self):
        if self.kind not in ("sigma_k", "quotient"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.k < 1:
            raise ValueError("operator order k must be >= 1")
        if self.kind == "quotient" and not 0 <= self.l < self.k:
            raise ValueError("quotient denominator index must satisfy 0 <= l < k")

    @property
    def homogeneity(self):
        return self.k - (self.l if self.kind == "quotient" else 0)

    def value_on_sigmas(self, sig):
        """Operator value from sig[l] = sigma_l (sigma_0 = 1); quotient included."""
        if self.kind == "sigma_k":
            return sig[self.k]
        return sig[self.k] / sig[self.l]

    def value_on_spectrum(self, lam):
        """Operator value from a spectrum array (..., n); quotient included."""
        return self.value_on_sigmas({l: sigma(lam, l) for l in (self.k, self.l)})

    def label(self):
        if self.kind == "sigma_k":
            return f"sigma_{self.k}"
        return f"sigma_{self.k}/sigma_{self.l}"


def operator_value_grad(A, op):
    """Value and gradient matrix of F(A) = sigma_k(A) (or sigma_k/sigma_l).

    The gradient of a symmetric spectral function is Q diag(df/dlambda) Q^T
    in the eigenbasis Q of A; this is exact also at degenerate eigenvalues,
    so no divided-difference switching is needed at first order.  For the
    quotient, sigma_l(A) must be positive.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    if A.shape[-2:] != (n, n):
        raise ValueError("A must be square")
    if np.max(np.abs(A - np.swapaxes(A, -1, -2))) > 1e-12 * (1.0 + np.max(np.abs(A))):
        raise ValueError("A must be symmetric as stored")
    if not 1 <= op.k <= n:
        raise ValueError(f"operator order k={op.k} out of range 1..{n}")
    lam, Q = np.linalg.eigh(A)
    sk = sigma(lam, op.k)
    gk = sigma_grad(lam, op.k)
    if op.kind == "sigma_k":
        value, gspec = sk, gk
    else:
        sl = sigma(lam, op.l)
        if np.any(np.asarray(sl) <= 0.0):
            raise ConeViolationError(
                f"quotient denominator sigma_{op.l} <= 0 at an admissibility-required point"
            )
        if op.l == 0:
            value, gspec = sk, gk
        else:
            gl = sigma_grad(lam, op.l)
            value = sk / sl
            gspec = (np.asarray(sl)[..., None] * gk - np.asarray(sk)[..., None] * gl) / (
                np.asarray(sl)[..., None] ** 2
            )
    grad = np.einsum("...ik,...k,...jk->...ij", Q, np.asarray(gspec), Q)
    grad = 0.5 * (grad + np.swapaxes(grad, -1, -2))
    return value, grad
