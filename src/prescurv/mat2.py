"""Closed-form helpers for stacks of symmetric 2x2 matrices."""

import numpy as np

from .errors import GeometryError


def sym2(a, b, d):
    """Stack of symmetric 2x2 matrices [[a, b], [b, d]], dtype of the entries."""
    return np.stack([np.stack([a, b], axis=-1), np.stack([b, d], axis=-1)], axis=-2)


def pencil_sigmas(g, b):
    """(1, tr(g^{-1} b), det b / det g) for stacked 2x2 pairs, indexed by l.

    With g a metric and b a second fundamental form these are sigma_0..2
    of the principal curvatures.  Rational in the entries and free of
    eigenvalues, so real and complex input alike (complex-step safe).
    """
    g11, g12, g22 = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
    b11, b12, b22 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 1]
    det_g = g11 * g22 - g12 * g12
    return (1.0, (g22 * b11 - 2.0 * g12 * b12 + g11 * b22) / det_g,
            (b11 * b22 - b12 * b12) / det_g)


def inv_sqrt_spd(g):
    """Inverse square root of SPD 2x2 matrices (stacked on leading axes).

    Uses adj(g + sqrt(det) I) / (sqrt(det) * sqrt(tr + 2 sqrt(det))), which
    avoids per-node eigendecompositions.
    """
    a, b, d = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
    det = a * d - b * b
    if np.any(det <= 0.0) or np.any(a <= 0.0):
        bad = np.argwhere(~((det > 0.0) & (a > 0.0)))
        raise GeometryError(f"metric not positive definite at node(s) {bad[:5].tolist()}")
    s = np.sqrt(det)
    norm = np.sqrt(a + d + 2.0 * s)
    out = np.empty_like(g)
    out[..., 0, 0] = (d + s) / (s * norm)
    out[..., 1, 1] = (a + s) / (s * norm)
    out[..., 0, 1] = -b / (s * norm)
    out[..., 1, 0] = -b / (s * norm)
    return out


def eigvalsh_sym(S):
    """Eigenvalues (ascending) of symmetric 2x2 matrices (stacked)."""
    a, b, d = S[..., 0, 0], S[..., 0, 1], S[..., 1, 1]
    mean = 0.5 * (a + d)
    rad = np.sqrt(np.maximum(0.25 * (a - d) ** 2 + b * b, 0.0))
    return np.stack([mean - rad, mean + rad], axis=-1)
