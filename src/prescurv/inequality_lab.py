"""Randomized verification of the symmetric-function inequalities.

Three check families over spectra sampled from Gamma_k:

* gll        per-direction quadratic-form bound: the second derivative
             sigma_k^{ij,mq} B_ij B_mq is dominated by
             sigma_k (r_k - r_1)((alpha+1) r_k - (alpha-1) r_1) with
             r_k, r_1 the logarithmic directional derivatives of
             sigma_k and sigma_1 along B,
* gll_sum3   the same bound summed over three simultaneous directions
             (the summation convention cannot be ruled out, so both
             readings are tested and reported separately),
* krylov     convexity of (sigma_1/sigma_k)^alpha on Gamma_k, probed by a
             five-point second difference with Richardson step control.

Sampling is deterministic and parallel-safe: sample i draws from its own
counter-based stream keyed by (seed, i), so chunked and serial runs agree
to the byte.  For gll_sum3 rows the CSV stores the first of the three
directions; the other two are reproducible from the seed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SamplingError
from .symmfunc import in_gamma_k, sigma, sigma_grad, sigma_hess_dir

_REJECTION_CAP = 20000


@dataclass(frozen=True)
class SampleConfig:
    n: int = 3
    k: int = 2
    alpha_list: tuple = (0.25, 0.5, 1.0, 2.0)
    sample_count: int = 1000
    seed: int = 12345
    spectrum_box: tuple = (-1.0, 2.0)
    direction_scale: tuple = (-1.0, 1.0)

    def __post_init__(self):
        if not 2 <= self.k <= self.n <= 8:
            raise ValueError("need 2 <= k <= n <= 8")
        if self.sample_count < 0:
            raise ValueError("sample_count must be nonnegative")
        if any(a <= 0 for a in self.alpha_list):
            raise ValueError("alpha values must be positive")
        # results are reported per alpha under its 6-significant-digit label
        labels = [f"{a:g}" for a in self.alpha_list]
        if len(set(labels)) < len(labels):
            raise ValueError(f"alpha values must differ in their first 6 significant "
                             f"digits, got labels {labels}")


@dataclass
class CheckRecord:
    kind: str
    n: int
    k: int
    alpha: float
    seed_index: int
    lam: np.ndarray
    B: np.ndarray
    lhs: float
    rhs: float
    margin: float
    passed: bool
    inconclusive: bool = False


def sample_rng(cfg, index):
    """Counter-based per-sample stream: serial and chunked runs agree."""
    key = np.array([cfg.seed % (1 << 64), index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_gamma_k(cfg, rng):
    """Rejection-sample one spectrum uniformly from the box, conditioned
    on Gamma_k membership."""
    lo, hi = cfg.spectrum_box
    for _ in range(_REJECTION_CAP):
        lam = rng.uniform(lo, hi, size=cfg.n)
        if in_gamma_k(lam, cfg.k, return_margin=False):
            return lam
    raise SamplingError(
        f"acceptance rate below {1.0 / _REJECTION_CAP}: box {cfg.spectrum_box} "
        f"is too hostile for Gamma_{cfg.k} in dimension {cfg.n}")


def draw_direction(cfg, rng):
    lo, hi = cfg.direction_scale
    M = rng.uniform(lo, hi, size=(cfg.n, cfg.n))
    return 0.5 * (M + M.T)


# ---------------------------------------------------------------------------
# batched check kernels


def _diag_embed(lam):
    S, n = lam.shape
    A = np.zeros((S, n, n))
    idx = np.arange(n)
    A[:, idx, idx] = lam
    return A


def _gll_sides(lam, B, k):
    """lhs and the alpha-independent pieces of the bound, batched."""
    A = _diag_embed(lam)
    lhs = np.atleast_1d(sigma_hess_dir(A, B, k))
    s1 = np.atleast_1d(sigma(lam, 1))
    sk = np.atleast_1d(sigma(lam, k))
    gk = sigma_grad(lam, k)
    diagB = np.diagonal(B, axis1=-2, axis2=-1)
    Fk = np.sum(gk * diagB, axis=-1)
    F1 = np.trace(B, axis1=-2, axis2=-1)
    return lhs, sk, Fk / sk, F1 / s1


def _gll_rhs(sk, rk, r1, alpha):
    return sk * (rk - r1) * ((alpha + 1.0) * rk - (alpha - 1.0) * r1)


def check_gll(lam, B, alpha, k=None):
    """Per-direction quadratic-form check at a single sample."""
    lam = np.asarray(lam, dtype=float)
    if k is None:
        raise ValueError("operator order k is required")
    ok, _ = in_gamma_k(lam, k)
    if not ok:
        raise ValueError("spectrum must lie in Gamma_k for the check")
    lhs, sk, rk, r1 = _gll_sides(lam[None], np.asarray(B, dtype=float)[None], k)
    rhs = _gll_rhs(sk, rk, r1, alpha)
    margin = float(rhs[0] - lhs[0])
    slack = 1e-9 * (1.0 + abs(float(rhs[0])))
    return CheckRecord("gll", lam.size, k, alpha, -1, lam, np.asarray(B),
                       float(lhs[0]), float(rhs[0]), margin, margin >= -slack)


_STENCIL5 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])


def _ratio_alpha_d2(lam, B, alphas, k):
    """Second derivative of (sigma_1/sigma_k)^alpha along B, batched.

    Returns (values, err_estimates, inconclusive) with shapes
    (n_alpha, S).  Five-point stencil at steps h and h/2 plus Richardson
    comparison; steps shrink per sample until every node stays inside the
    cone, and samples too close to the cone boundary are inconclusive.
    """
    S, n = lam.shape
    A = _diag_embed(lam)
    bnorm = np.sqrt(np.sum(B * B, axis=(-2, -1)))
    scale = np.abs(lam).max(axis=-1)
    h = 0.02 * (1.0 + scale) / (1.0 + bnorm)
    inconclusive = np.zeros(S, dtype=bool)
    # normalized distance from the cone boundary
    s1 = sigma(lam, 1)
    sk = sigma(lam, k)
    norm_k = sk / math.comb(n, k)
    norm_1 = (s1 / n) ** k
    inconclusive |= norm_k < 1e-8 * norm_1
    offsets = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])

    def nodes_spectra(idx):
        t = h[idx, None] * offsets[None, :]
        return np.linalg.eigvalsh(A[idx, None] + t[..., None, None] * B[idx, None])

    # Only the samples whose step was just halved are solved again; LAPACK
    # treats each matrix on its own, so the spectra do not depend on which
    # samples share a call.
    active = np.arange(S)
    eig = np.empty((S, len(offsets), n))
    for _ in range(8):
        eig[active] = nodes_spectra(active)
        bad = ~in_gamma_k(eig[active], k, return_margin=False).all(axis=1)
        if not bad.any():
            break
        active = active[bad]
        h[active] *= 0.5
    else:
        inconclusive[active] = True
        eig[active] = nodes_spectra(active)
    s1t = sigma(eig, 1)
    skt = sigma(eig, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(skt > 0.0, s1t / np.where(skt > 0.0, skt, 1.0), np.nan)
    values = np.empty((len(alphas), S))
    errs = np.empty((len(alphas), S))
    for ia, alpha in enumerate(alphas):
        f = ratio**alpha
        # nodes: [-2h, -h, -h/2, 0, h/2, h, 2h]
        d_h = (f[:, [0, 1, 3, 5, 6]] @ _STENCIL5) / (12.0 * h**2)
        d_h2 = (f[:, [1, 2, 3, 4, 5]] @ _STENCIL5) / (12.0 * (0.5 * h) ** 2)
        values[ia] = d_h2
        errs[ia] = np.abs(d_h - d_h2) / 15.0
    inconclusive = inconclusive | ~np.isfinite(values).all(axis=0)
    return values, errs, inconclusive


def check_krylov_convexity(lam, B, alpha, k):
    """Second directional derivative of (sigma_1/sigma_k)^alpha at a single
    sample; nonnegative within slack certifies convexity there."""
    lam = np.asarray(lam, dtype=float)
    ok, _ = in_gamma_k(lam, k)
    if not ok:
        raise ValueError("spectrum must lie in Gamma_k for the check")
    values, errs, inconclusive = _ratio_alpha_d2(
        lam[None], np.asarray(B, dtype=float)[None], [alpha], k)
    value, err = float(values[0, 0]), float(errs[0, 0])
    slack = 1e-9 * (1.0 + abs(value)) + 3.0 * err
    rec = CheckRecord("krylov", lam.size, k, alpha, -1, lam, np.asarray(B),
                      -value, 0.0, value, value >= -slack,
                      inconclusive=bool(inconclusive[0]))
    return value, rec


# ---------------------------------------------------------------------------
# Ivochkina structural condition


@dataclass
class IvochkinaReport:
    holds: bool
    worst_margin: float
    worst_point: tuple
    k: int
    q: float
    p_box: float
    n: int


def check_ivochkina_args(k, p_box, grid, n=2):
    """ValueError unless 1 <= k <= n, p_box is finite and > 0 and the scan
    has at least 16 points per axis."""
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    if not (p_box > 0 and math.isfinite(p_box)):
        raise ValueError(f"p_box must be finite and > 0, got {p_box!r}")
    if grid < 16:
        raise ValueError("need at least 16 scan points per axis")


def check_ivochkina_condition(k, q, p_box=3.0, grid=33, n=2):
    """Scan the gradient-convexity condition for the model right-hand side.

    The data (1 + |p|^2)^{-q/2} with unit H gives chi^{1/k} =
    (1 + |p|^2)^m, m = (k - q)/(2k); its Hessian in p is radially
    symmetric with closed-form eigenvalues, so the scan checks

        k * lambda_min(Hess) + chi^{1/k} / (2 sqrt(n) (1 + max|p|^2)) >= 0

    over the hypercube [-p_box, p_box]^n (max|p|^2 = n p_box^2 at the
    corners).  Returns the worst margin and where it occurs.
    """
    check_ivochkina_args(k, p_box, grid, n)
    m = (k - q) / (2.0 * k)
    axes = [np.linspace(-p_box, p_box, grid)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    s = sum(p**2 for p in mesh)
    psi1 = (1.0 + s) ** (m - 1.0)
    psi2 = (1.0 + s) ** (m - 2.0)
    eig_tan = 2.0 * m * psi1
    eig_rad = 2.0 * m * psi1 + 4.0 * m * (m - 1.0) * s * psi2
    eig_min = np.minimum(eig_tan, eig_rad)
    s_max = n * p_box**2
    allowance = (1.0 + s) ** m / (2.0 * math.sqrt(n) * (1.0 + s_max))
    margin = k * eig_min + allowance
    worst = np.unravel_index(np.argmin(margin), margin.shape)
    worst_point = tuple(float(p[worst]) for p in mesh)
    worst_margin = float(margin[worst])
    return IvochkinaReport(holds=worst_margin >= 0.0, worst_margin=worst_margin,
                           worst_point=worst_point, k=k, q=q, p_box=p_box, n=n)


# ---------------------------------------------------------------------------
# campaign

KINDS = ("gll", "gll_sum3", "krylov")


def tally(alphas, margin, passed, inconclusive):
    """Counts, worst margins, hard failures and implication violations of
    the (n_alpha, S, 3) check columns, as booking the rows one by one in
    table order gives them.  Counts keep nonzero keys only; a worst margin
    is the first if that is NaN, else the least of the others (the value a
    running ``margin < worst`` comparison keeps)."""
    conclusive = ~inconclusive
    status = {"pass": passed & conclusive, "fail": ~passed & conclusive,
              "inconclusive": inconclusive}
    counts = {(kind, name): count for j, kind in enumerate(KINDS)
              for name, mask in status.items()
              if (count := int(np.count_nonzero(mask[..., j])))}
    worst = {(kind, alpha): float(x[0] if np.isnan(x[0]) else x[np.nanargmin(x)])
             for ia, alpha in enumerate(alphas) for j, kind in enumerate(KINDS)
             for x in [margin[ia, :, j]] if x.size}
    fail = np.nonzero(status["fail"])
    hard = [(KINDS[j], alphas[ia], i, m) for ia, i, j, m
            in zip(*(ix.tolist() for ix in fail), margin[fail].tolist())]
    # a conclusive convexity pass where the per-direction bound fails
    implied = np.nonzero(status["pass"][..., 2] & ~passed[..., 0])
    implied = [(alphas[ia], i) for ia, i in zip(*(ix.tolist() for ix in implied))]
    return counts, worst, hard, implied


@dataclass
class CampaignSummary:
    """One (n, k) campaign as a check table, tallied on construction.

    lhs, rhs, margin, passed and inconclusive have shape (n_alpha, S, 3),
    the last axis in KINDS order; this is also the CSV row order.  krylov
    rows carry rhs 0 and lhs minus the second derivative.  A sample's rows
    share lam (S, n) and B (S, n, n), the first direction drawn.
    """
    cfg: SampleConfig
    lam: np.ndarray
    B: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    passed: np.ndarray
    inconclusive: np.ndarray
    counts: dict = field(init=False)
    worst_margins: dict = field(init=False)
    hard_failures: list = field(init=False)        # (kind, alpha, seed_index, margin)
    implication_violations: list = field(init=False)   # (alpha, seed_index)

    def __post_init__(self):
        (self.counts, self.worst_margins, self.hard_failures,
         self.implication_violations) = tally(self.cfg.alpha_list, self.margin,
                                              self.passed, self.inconclusive)

    @property
    def clean(self):
        return not self.hard_failures and not self.implication_violations

    @property
    def records(self):
        """The table as CheckRecords, in row order."""
        cfg = self.cfg
        cols = zip(*(c.ravel().tolist() for c in (self.lhs, self.rhs, self.margin,
                                                   self.passed, self.inconclusive)))
        return [CheckRecord(KINDS[j], cfg.n, cfg.k, cfg.alpha_list[ia], i, self.lam[i],
                            self.B[i], *row)
                for (ia, i, j), row in zip(np.ndindex(self.margin.shape), cols)]


def run_campaign(cfg):
    """Execute sample_count checks of each kind for one (n, k) pair.

    Hard failure = conclusive margin below -slack.  A conclusive
    nonnegative convexity check at a sample where the per-direction bound
    fails is recorded as an implication violation (the bound is derived
    from convexity, so that combination must not occur).
    """
    S = cfg.sample_count
    n = cfg.n
    lam = np.empty((S, n))
    B3 = np.empty((S, 3, n, n))
    for i in range(S):
        rng = sample_rng(cfg, i)
        lam[i] = sample_gamma_k(cfg, rng)
        for j in range(3):
            B3[i, j] = draw_direction(cfg, rng)

    alpha = np.asarray(cfg.alpha_list, dtype=float)[:, None]
    lhs1, sk, rk1, r11 = _gll_sides(lam, B3[:, 0], cfg.k)
    rhs1 = _gll_rhs(sk, rk1, r11, alpha)
    lhs_sum, rhs_sum = lhs1, rhs1
    for j in (1, 2):
        lhs_j, sk_j, rk_j, r1_j = _gll_sides(lam, B3[:, j], cfg.k)
        lhs_sum = lhs_sum + lhs_j
        rhs_sum = rhs_sum + _gll_rhs(sk_j, rk_j, r1_j, alpha)
    kv, kerr, kinc = _ratio_alpha_d2(lam, B3[:, 0], list(cfg.alpha_list), cfg.k)
    # (n_alpha, S) columns of each kind, stacked on a last axis in KINDS order
    lhs = np.stack(np.broadcast_arrays(lhs1, lhs_sum, -kv), axis=-1)
    rhs = np.stack(np.broadcast_arrays(rhs1, rhs_sum, 0.0), axis=-1)
    margin = np.stack([rhs1 - lhs1, rhs_sum - lhs_sum, kv], axis=-1)
    slack = 1e-9 * (1.0 + np.abs(rhs))
    slack[..., 2] = 1e-9 * (1.0 + np.abs(kv)) + 3.0 * kerr
    inconclusive = np.zeros(margin.shape, dtype=bool)
    inconclusive[..., 2] = kinc
    return CampaignSummary(cfg=cfg, lam=lam, B=B3[:, 0], lhs=lhs, rhs=rhs, margin=margin,
                           passed=margin >= -slack, inconclusive=inconclusive)


_ROW = "%s,%d,%.17g,%.17g,%.17g,%d,%d,%s\n"


def write_campaign_csv(summaries, cfg, path):
    """One row per check, campaign by campaign in table order, floats at 17
    significant digits.

    Columns are laid out for dimension cfg.n; the rows of a smaller n leave
    the lambda and B cells they do not have empty, so the campaigns of
    several (n, k) pairs share one file when cfg is the widest of them.
    """
    width = cfg.n
    header = (["kind", "n", "k", "alpha", "seed_index", "lhs", "rhs", "margin",
               "pass", "inconclusive"]
              + [f"lambda_{i + 1}" for i in range(width)]
              + [f"B_{i + 1}{j + 1}" for i in range(width) for j in range(i, width)])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for s in summaries:
            n, k = s.cfg.n, s.cfg.k
            # a sample's lambda/B cells, formatted once for all of its rows
            block = ",".join(["%.17g"] * n + [""] * (width - n)
                             + ["%.17g" if j < n else ""
                                for i in range(width) for j in range(i, width)])
            upper = np.triu_indices(n)
            cells = np.concatenate([s.lam, s.B[:, upper[0], upper[1]]], axis=1)
            blocks = [block % tuple(row) for row in cells.tolist()]
            blocks = [b for b in blocks for _ in KINDS]
            index = [i for i in range(s.cfg.sample_count) for _ in KINDS]
            for ia, alpha in enumerate(s.cfg.alpha_list):
                heads = ["%s,%d,%d,%.17g" % (kind, n, k, alpha) for kind in KINDS]
                cols = (c[ia].ravel().tolist() for c in (s.lhs, s.rhs, s.margin,
                                                          s.passed, s.inconclusive))
                fh.writelines(_ROW % row for row in zip(heads * s.cfg.sample_count,
                                                        index, *cols, blocks))
