"""Closed-form helpers for symmetric 2x2 matrices: pencil_sigmas reads a
pair of forms as entry triples (a11, a12, a22) of equal-shape arrays, the
rest read stacks of shape (..., 2, 2), which sym2 builds from triples."""

import numpy as np

from .errors import GeometryError


def sym2(a, b, d):
    """Stack of symmetric 2x2 matrices [[a, b], [b, d]], dtype of the entries."""
    return np.stack([np.stack([a, b], axis=-1), np.stack([b, d], axis=-1)], axis=-2)


def pencil_sigmas(g, b):
    """(1, tr(g^{-1} b), det b / det g), indexed by l, for forms given as
    entry triples g = (g11, g12, g22) and b = (b11, b12, b22).

    With g a metric and b a second fundamental form these are sigma_0..2
    of the principal curvatures.  Rational in the entries and free of
    eigenvalues, so real and complex input alike (complex-step safe), and
    an entry may be real while another is complex.
    """
    g11, g12, g22 = g
    b11, b12, b22 = b
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


def shape_operator(g, b):
    """S = g^{-1/2} b g^{-1/2}, symmetrised against rounding, and its
    eigenvalues (ascending): the principal curvatures of the pair (g, b)."""
    gis = inv_sqrt_spd(g)
    S = gis @ b @ gis
    S = 0.5 * (S + np.swapaxes(S, -1, -2))
    return S, eigvalsh_sym(S)
