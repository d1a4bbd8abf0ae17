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
* krylov     convexity of (sigma_1/sigma_k)^alpha on Gamma_k: its second
             derivative along B, by the chain rule on
             alpha (log sigma_1 - log sigma_k).

Every check is taken at A = diag(lambda), where the first and second
derivatives of sigma_k along B have closed forms in the one- and
pair-deleted spectra (``symmfunc.sigma_diag_derivs``); each direction's
are computed once and shared by gll and krylov.  Only rounding is left,
so the slack is 1e-9 (1 + |value|).  A row of any kind is inconclusive
where its margin is not finite (huge directions overflow), and a krylov
row also near the cone boundary (sigma_k/C(n,k) < 1e-8 (sigma_1/n)^k).

Sampling is deterministic and parallel-safe: sample i reads its own
stream, numpy's Philox keyed by (seed mod 2^64, i) from counter 0
(``sample_rng``).  Attempt a of its rejection loop takes doubles
a*n .. a*n + n - 1, and its three directions the 3 n^2 after the
accepted attempt.  A campaign (``sample_campaign``) draws a window of
these doubles per sample in one call and scales and gathers them for a
group of samples at once; each sample still goes through
``sample_gamma_k``, one cone test per attempt.  For gll_sum3 rows the
CSV stores the first of the three directions; the other two are
reproducible from the seed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SamplingError
from .reporting import format_rows, write_csv
from .symmfunc import in_gamma_k, sigma, sigma_diag_derivs

_REJECTION_CAP = 20000
_WINDOW = 16               # least attempts per sample drawn in batch
_WORD_BUDGET = 1 << 13     # stream words (doubles) drawn per group of samples


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
        if not self.alpha_list:
            raise ValueError("need at least one alpha value; with none, samples are "
                             "drawn and nothing is checked")
        if not all(a > 0 and math.isfinite(a) for a in self.alpha_list):
            raise ValueError("alpha values must be positive and finite")
        for name in ("spectrum_box", "direction_scale"):
            pair = getattr(self, name)
            if not (len(pair) == 2 and all(map(math.isfinite, pair)) and pair[0] <= pair[1]):
                raise ValueError(f"{name} must be finite numbers lo <= hi, got {pair!r}")
        if self.spectrum_box[1] <= 0.0:
            raise ValueError("hi <= 0 leaves no spectrum with sigma_1 > 0")
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


def sample_rng(cfg, index, rng=None):
    """Sample index's stream: restart a Philox-backed Generator (a new one
    if rng is None) at key (seed mod 2^64, index), counter 0, nothing
    buffered.  The stream depends on (seed, index) alone, so serial and
    chunked runs agree."""
    if rng is None:
        rng = np.random.Generator(np.random.Philox())
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (cfg.seed % (1 << 64), index)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def sample_gamma_k(cfg, rng):
    """Rejection-sample one spectrum uniformly from the box, conditioned
    on Gamma_k membership."""
    lo, hi = cfg.spectrum_box
    for _ in range(_REJECTION_CAP):
        lam = rng.uniform(lo, hi, size=cfg.n)
        ok, _ = in_gamma_k(lam, cfg.k)
        if ok:
            return lam
    raise SamplingError(
        f"acceptance rate below {1.0 / _REJECTION_CAP}: box {cfg.spectrum_box} "
        f"is too hostile for Gamma_{cfg.k} in dimension {cfg.n}")


def draw_direction(cfg, rng, size=()):
    """Symmetric n x n directions of shape (*size, n, n).  In C order they
    use the doubles that successive single draws would, so a batch equals
    the single draws bit for bit."""
    lo, hi = cfg.direction_scale
    M = rng.uniform(lo, hi, size=(*size, cfg.n, cfg.n))
    return 0.5 * (M + np.swapaxes(M, -1, -2))


# ---------------------------------------------------------------------------
# batched sampler: the same streams, drawn a group of samples at a time


class _Drawn:
    """Generator.uniform over doubles already drawn: u scaled to [lo, hi)."""

    def __init__(self, u):
        self.u = u

    def uniform(self, lo, hi, size):
        return (lo + (hi - lo) * self.u).reshape(size)


class _SampleStream:
    """sample_gamma_k's draws from sample index's stream: attempt a is row
    a of rows (draws in cfg.spectrum_box, made in batch) while they last;
    then rng, restarted at the sample's key and skipped to the same word."""

    def __init__(self, cfg, index, rows, rng):
        self.cfg, self.index, self.rows, self.rng = cfg, index, rows, rng
        self.attempts = 0

    def uniform(self, lo, hi, size):
        a = self.attempts
        self.attempts = a + 1
        if a < len(self.rows):
            return self.rows[a]
        if a == len(self.rows):
            sample_rng(self.cfg, self.index, self.rng).bit_generator.random_raw(a * self.cfg.n)
        return self.rng.uniform(lo, hi, size)


def sample_campaign(cfg):
    """Spectra (S, n) and directions (S, 3, n, n) of samples 0..S-1, equal
    bit for bit to the loop ``rng = sample_rng(cfg, i, rng);
    sample_gamma_k(cfg, rng); draw_direction(cfg, rng, (3,))``.

    Each sample's stream is restarted once and its first
    (window + 3 n) n doubles drawn in one call: `window` attempts, and
    the directions after any of them.  The group's attempts are scaled
    at once, each sample goes through sample_gamma_k on its rows, and
    the group's directions are gathered at each sample's offset for one
    draw_direction call.  A sample that outruns its rows continues on
    the generator.  The window is four mean attempts of the samples so
    far, so about 2% of them do."""
    S, n = cfg.sample_count, cfg.n
    lam = np.empty((S, n))
    B3 = np.empty((S, 3, n, n))
    rng = None
    window, done, tried = _WINDOW, 0, 0
    while done < S:
        width = (window + 3 * n) * n
        idx = np.arange(done, min(done + max(1, _WORD_BUDGET // width), S))
        drawn = np.empty((idx.size, width))
        for j, i in enumerate(idx.tolist()):
            rng = sample_rng(cfg, i, rng)
            rng.random(out=drawn[j])
        rows = _Drawn(drawn[:, :window * n]).uniform(*cfg.spectrum_box, (idx.size, window, n))
        used = np.empty(idx.size, dtype=np.int64)
        for j, i in enumerate(idx.tolist()):
            stream = _SampleStream(cfg, i, rows[j], rng)
            lam[i] = sample_gamma_k(cfg, stream)
            used[j] = stream.attempts
            if used[j] > window:        # the generator stands at the directions
                B3[i] = draw_direction(cfg, rng, (3,))
        inside = np.flatnonzero(used <= window)
        u = np.take_along_axis(drawn[inside], used[inside, None] * n + np.arange(3 * n * n),
                               axis=1)
        B3[idx[inside]] = draw_direction(cfg, _Drawn(u), (inside.size, 3))
        done, tried = done + idx.size, tried + int(used.sum())
        window = max(_WINDOW, -(-4 * tried // done))
    return lam, B3


# ---------------------------------------------------------------------------
# batched check kernels

KINDS = ("gll", "gll_sum3", "krylov")


def _gll_sides(lam, B, k):
    """The second derivative of sigma_k along B (the bound's lhs), sigma_k,
    and the logarithmic derivatives r_k, r_1 of sigma_k and sigma_1 along B;
    batched over the leading axes of lam (..., n) and B (..., n, n)."""
    d1, d2 = sigma_diag_derivs(lam, B, k)
    sk = sigma(lam, k)
    return d2, sk, d1 / sk, np.trace(B, axis1=-2, axis2=-1) / sigma(lam, 1)


def _gll_rhs(sk, rk, r1, alpha):
    return sk * (rk - r1) * ((alpha + 1.0) * rk - (alpha - 1.0) * r1)


def _ratio_alpha_d2(lam, lhs, sk, rk, r1, alphas, k):
    """Second derivative of (sigma_1/sigma_k)^alpha along B, batched, from
    _gll_sides(lam, B, k) = (lhs, sk, rk, r1).

    By the chain rule on g = log sigma_1 - log sigma_k, with g' = r1 - rk
    and g'' = -r1^2 - lhs/sk + rk^2 (sigma_1 is linear), the derivative is
    alpha (sigma_1/sigma_k)^alpha (g'' + alpha g'^2).  Returns (values,
    inconclusive) with shapes (n_alpha, S).  A sample is inconclusive
    where sigma_k/C(n,k) < 1e-8 (sigma_1/n)^k, too close to the cone
    boundary for the terms to keep their digits, or where a value is not
    finite.
    """
    n = lam.shape[-1]
    s1 = sigma(lam, 1)
    alpha = np.asarray(alphas, dtype=float)[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g1 = r1 - rk
        g2 = rk * rk - r1 * r1 - lhs / sk
        values = alpha * (s1 / sk) ** alpha * (g2 + alpha * g1 * g1)
    inconclusive = sk / math.comb(n, k) < 1e-8 * (s1 / n) ** k
    inconclusive = inconclusive | ~np.isfinite(values).all(axis=0)
    return values, inconclusive


def _check_table(lam, B3, alphas, k):
    """Check columns lhs, rhs, margin, passed, inconclusive, (n_alpha, S, 3)
    in KINDS order, of spectra lam (S, n) and directions B3 (S, d, n, n):
    gll and krylov on the first direction, gll_sum3 summed over all d.  A
    row passes when margin >= -1e-9 (1 + |rhs|), |value| for krylov; it is
    inconclusive where its margin is not finite."""
    alpha = np.asarray(alphas, dtype=float)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        # (S, d) sides of the directions; krylov reuses the first's
        sides = _gll_sides(lam[:, None], B3, k)
        lhs3, rhs3 = sides[0], _gll_rhs(*sides[1:], alpha)
        lhs1, rhs1 = lhs3[:, 0], rhs3[..., 0]
        lhs_sum, rhs_sum = lhs3.sum(axis=-1), rhs3.sum(axis=-1)
        kv, kinc = _ratio_alpha_d2(lam, *(x[:, 0] for x in sides), alphas, k)
        # (n_alpha, S) columns of each kind, stacked on a last axis in KINDS order
        lhs = np.stack(np.broadcast_arrays(lhs1, lhs_sum, -kv), axis=-1)
        rhs = np.stack(np.broadcast_arrays(rhs1, rhs_sum, 0.0), axis=-1)
        margin = np.stack([rhs1 - lhs1, rhs_sum - lhs_sum, kv], axis=-1)
    scale = np.abs(rhs)
    scale[..., 2] = np.abs(kv)
    inconclusive = ~np.isfinite(margin)
    inconclusive[..., 2] = kinc
    return lhs, rhs, margin, margin >= -1e-9 * (1.0 + scale), inconclusive


def _check_row(kind, lam, B, alpha, k):
    """The CheckRecord of one kind at one sample and direction: its row of
    the one-sample check table."""
    lam, B = np.asarray(lam, dtype=float), np.asarray(B, dtype=float)
    ok, _ = in_gamma_k(lam, k)
    if not ok:
        raise ValueError("spectrum must lie in Gamma_k for the check")
    table = _check_table(lam[None], B[None, None], [alpha], k)
    return CheckRecord(kind, lam.size, k, alpha, -1, lam, B,
                       *(c[0, 0, KINDS.index(kind)].item() for c in table))


def check_gll(lam, B, alpha, k):
    """Per-direction quadratic-form check at a single sample."""
    return _check_row("gll", lam, B, alpha, k)


def check_krylov_convexity(lam, B, alpha, k):
    """Second directional derivative of (sigma_1/sigma_k)^alpha at a single
    sample, by the chain rule on the exact derivatives of sigma_1 and
    sigma_k; nonnegative within rounding slack certifies convexity there.
    Returns (value, record); the record's lhs is -value."""
    rec = _check_row("krylov", lam, B, alpha, k)
    return rec.margin, rec


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


def check_ivochkina_args(k, q, p_box, grid, n=2):
    """ValueError unless 1 <= k <= n, q is finite, p_box is finite and > 0
    with n p_box^2 (the corners' max|p|^2) finite, and the scan has at
    least 16 points per axis."""
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q!r}")
    if not (p_box > 0 and math.isfinite(n * p_box * p_box)):
        raise ValueError(f"p_box must be > 0 with n p_box^2 finite, got {p_box!r}")
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
    check_ivochkina_args(k, q, p_box, grid, n)
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
    implied = np.nonzero(status["pass"][..., 2] & status["fail"][..., 0])
    implied = [(alphas[ia], i) for ia, i in zip(*(ix.tolist() for ix in implied))]
    return counts, worst, hard, implied


@dataclass
class CampaignSummary:
    """One (n, k) campaign as a check table, tallied on construction.

    lhs, rhs, margin, passed and inconclusive have shape (n_alpha, S, 3),
    the last axis in KINDS order; this is also the CSV row order.  krylov
    rows carry rhs 0 and lhs minus the second derivative; the gll and
    gll_sum3 lhs do not depend on alpha, so write_campaign_csv formats them
    from the first alpha's.  A sample's rows
    share lam (S, n) and B (S, n, n), the first direction drawn; B owns its
    data, so the summary does not keep the other two directions alive.
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

    A conclusive nonnegative convexity check at a sample where the
    per-direction bound fails is recorded as an implication violation (the
    bound is derived from convexity, so that combination must not occur).
    """
    lam, B3 = sample_campaign(cfg)
    return CampaignSummary(cfg, lam, B3[:, 0].copy(),
                           *_check_table(lam, B3, cfg.alpha_list, cfg.k))


def write_campaign_csv(summaries, cfg, path):
    """One row per check, campaign by campaign in table order, one table
    per (campaign, alpha) through write_csv.

    Columns are laid out for dimension cfg.n; the rows of a smaller n leave
    the lambda and B cells they do not have empty, so the campaigns of
    several (n, k) pairs share one file when cfg is the widest of them.
    """
    width = cfg.n
    header = (["kind", "n", "k", "alpha", "seed_index", "lhs", "rhs", "margin",
               "pass", "inconclusive"]
              + [f"lambda_{i + 1}" for i in range(width)]
              + [f"B_{i + 1}{j + 1}" for i in range(width) for j in range(i, width)])

    def cells(columns):
        """A table's rows as strings without their newlines."""
        return "".join(format_rows(columns)).split("\n")[:-1]

    def tables():
        for s in summaries:
            n, k, count = s.cfg.n, s.cfg.k, len(s.lam)
            # a sample's lambda/B cells as one cell, formatted once for its rows
            blocks = cells([s.lam[:, i] if i < n else [""] * count for i in range(width)]
                           + [s.B[:, i, j] if j < n else [""] * count
                              for i in range(width) for j in range(i, width)])
            blocks = [b for b in blocks for _ in KINDS]
            # the seed_index,lhs cells of the gll and gll_sum3 rows hold at every
            # alpha, so they too are formatted once; krylov's -kv is per alpha
            index = np.arange(count)
            fixed = [None] * (len(KINDS) * count)
            fixed[0::3] = cells([index, s.lhs[0, :, 0]])
            fixed[1::3] = cells([index, s.lhs[0, :, 1]])
            checks = (s.rhs, s.margin, s.passed, s.inconclusive)
            for ia, alpha in enumerate(s.cfg.alpha_list):
                heads = cells([KINDS] + [[v] * len(KINDS) for v in (n, k, alpha)])
                index_lhs = fixed.copy()
                index_lhs[2::3] = cells([index, s.lhs[ia, :, 2]])
                yield [heads * count, index_lhs, *(c[ia] for c in checks), blocks]

    write_csv(path, header, tables())
