"""Trivariate monomial-list polynomials.

Serializable data format shared by the sphere density phi(x) (evaluated on
unit vectors) and the graph right-hand side H(x1, x2, g): a finite list of
(coefficient, (i, j, k)) monomial terms.  Smooth by construction and JSON
friendly, so run configs need no expression parser.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Poly3:
    """Polynomial sum_m c_m * a^i * b^j * c^k in three scalar arguments."""

    terms: tuple  # of (coef, (i, j, k))

    def __post_init__(self):
        cleaned = []
        for coef, powers in self.terms:
            i, j, k = (int(p) for p in powers)
            if i < 0 or j < 0 or k < 0:
                raise ValueError("monomial powers must be nonnegative")
            cleaned.append((float(coef), (i, j, k)))
        object.__setattr__(self, "terms", tuple(cleaned))

    @classmethod
    def constant(cls, value):
        return cls(terms=((float(value), (0, 0, 0)),))

    @classmethod
    def from_list(cls, entries):
        """Build from [[coef, i, j, k], ...] as parsed from JSON."""
        return cls(terms=tuple((e[0], (e[1], e[2], e[3])) for e in entries))

    def to_list(self):
        return [[c, i, j, k] for c, (i, j, k) in self.terms]

    def __call__(self, a, b, c):
        """Real or complex arguments (complex-step differentiation of H(x, g))."""
        a, b, c = (np.asarray(v, dtype=np.result_type(v, float)) for v in (a, b, c))
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape, c.shape))
        for coef, (i, j, k) in self.terms:
            out = out + coef * a**i * b**j * c**k
        return out if out.shape else out.item()

    def eval_unit_vectors(self, x):
        """Evaluate at points x of shape (..., 3) (sphere density usage)."""
        x = np.asarray(x, dtype=float)
        return self(x[..., 0], x[..., 1], x[..., 2])

    def is_constant(self):
        return all(powers == (0, 0, 0) or coef == 0.0 for coef, powers in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return sum(c for c, _ in self.terms)
