import hashlib
import os
import runpy
import sys

import numpy as np
import pytest

from prescurv import inequality_lab
from prescurv.errors import SamplingError
from prescurv.inequality_lab import (
    _REJECTION_CAP,
    KINDS,
    SampleConfig,
    _gll_rhs,
    _gll_sides,
    _ratio_alpha_d2,
    check_gll,
    check_ivochkina_condition,
    check_krylov_convexity,
    draw_direction,
    run_campaign,
    sample_campaign,
    sample_gamma_k,
    sample_rng,
    tally,
    write_campaign_csv,
)
from prescurv.symmfunc import in_gamma_k, sigma, sigma_grad


def test_gll_isotropic_identity_direction():
    rec = check_gll(np.ones(3), np.eye(3), 1.0, k=2)
    assert rec.lhs == pytest.approx(6.0)
    assert rec.rhs == pytest.approx(12.0)
    assert rec.margin == pytest.approx(6.0)
    assert rec.passed


def test_gll_zero_direction_equality():
    rec = check_gll(np.ones(3), np.zeros((3, 3)), 0.7, k=2)
    assert rec.lhs == 0.0 and rec.rhs == 0.0 and rec.passed


def test_gll_requires_cone_membership():
    with pytest.raises(ValueError):
        check_gll(np.array([1.0, 1.0, -0.9]), np.eye(3), 1.0, k=3)


def test_gll_scaling_covariance():
    rng = np.random.default_rng(8)
    cfg = SampleConfig(n=4, k=3, sample_count=1, seed=0)
    for trial in range(20):
        gen = sample_rng(cfg, trial)
        lam = sample_gamma_k(cfg, gen)
        B = draw_direction(cfg, gen)
        alpha = float(rng.uniform(0.2, 3.0))
        c = float(rng.uniform(0.3, 3.0))
        a = check_gll(lam, B, alpha, k=cfg.k)
        b = check_gll(c * lam, c * B, alpha, k=cfg.k)
        factor = c**cfg.k
        assert b.lhs == pytest.approx(factor * a.lhs, rel=1e-9, abs=1e-12)
        assert b.rhs == pytest.approx(factor * a.rhs, rel=1e-9, abs=1e-12)
        assert a.passed == b.passed


def test_gll_level_direction_concavity():
    # diagonal B chosen so the two logarithmic derivatives coincide: the
    # right side vanishes and the quadratic form must be nonpositive
    cfg = SampleConfig(n=4, k=2, sample_count=1, seed=3)
    for trial in range(20):
        gen = sample_rng(cfg, trial)
        lam = sample_gamma_k(cfg, gen)
        gk = sigma_grad(lam, cfg.k)
        v = gk / sigma(lam, cfg.k) - np.ones(cfg.n) / sigma(lam, 1)
        basis = np.linalg.svd(v[None])[2][1:]  # orthogonal complement of v
        d = basis.T @ gen.normal(size=cfg.n - 1)
        rec = check_gll(lam, np.diag(d), 1.0, k=cfg.k)
        assert abs(rec.rhs) <= 1e-9 * (1 + abs(rec.lhs))
        assert rec.lhs <= 1e-9 * (1 + abs(rec.lhs))


def test_sampled_spectra_lie_in_cone():
    cfg = SampleConfig(n=3, k=2, sample_count=1, seed=5, spectrum_box=(-1.0, 2.0))
    for i in range(200):
        lam = sample_gamma_k(cfg, sample_rng(cfg, i))
        ok, _ = in_gamma_k(lam, 2)
        assert ok
        assert np.all(lam >= -1.0) and np.all(lam <= 2.0)


def test_sampling_deterministic():
    cfg = SampleConfig(n=4, k=2, sample_count=1, seed=77)
    a = [sample_gamma_k(cfg, sample_rng(cfg, i)) for i in range(10)]
    b = [sample_gamma_k(cfg, sample_rng(cfg, i)) for i in range(10)]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("seed", [12345, -3, (1 << 64) + 11])
def test_sample_rng_restart_matches_fresh_generator(seed):
    cfg = SampleConfig(n=3, k=2, sample_count=1, seed=seed)
    rng = sample_rng(cfg, 0)
    # leave the generator mid-buffer with a stored uint32
    rng.uniform(size=5)
    rng.integers(1 << 32, dtype=np.uint32)
    state = rng.bit_generator.state
    assert state["buffer_pos"] != 4 and state["has_uint32"] == 1
    for i in (1, 2, 1 << 40):
        assert sample_rng(cfg, i, rng) is rng
        fresh = np.random.Generator(np.random.Philox(
            key=np.array([seed % (1 << 64), i], dtype=np.uint64)))
        assert np.array_equal(rng.uniform(size=64), fresh.uniform(size=64))


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (5, 3)])
def test_direction_batch_equals_single_draws(n, k):
    cfg = SampleConfig(n=n, k=k, sample_count=1, seed=19)
    batch_rng, single_rng = sample_rng(cfg, 6), sample_rng(cfg, 6)
    sample_gamma_k(cfg, batch_rng)
    sample_gamma_k(cfg, single_rng)
    batch = draw_direction(cfg, batch_rng, (3,))
    assert batch.shape == (3, n, n)
    assert np.array_equal(batch, [draw_direction(cfg, single_rng) for _ in range(3)])
    assert np.array_equal(batch, np.swapaxes(batch, -1, -2))


def scalar_samples(cfg):
    """Spectra, directions and cone tests per sample of the per-sample loop."""
    lam, B3, attempts = [], [], []
    rng = None
    for i in range(cfg.sample_count):
        rng = sample_rng(cfg, i, rng)
        tries, ok = 0, False
        while not ok:
            lam_i = rng.uniform(*cfg.spectrum_box, size=cfg.n)
            ok, _ = in_gamma_k(lam_i, cfg.k)
            tries += 1
        lam.append(lam_i)
        B3.append(draw_direction(cfg, rng, (3,)))
        attempts.append(tries)
    return np.array(lam), np.array(B3), attempts


@pytest.mark.parametrize("seed", [2024, -3, (1 << 64) + 11])
@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (5, 3), (6, 6)])
def test_batched_sampler_equals_scalar_loop(n, k, seed):
    # about a quarter of the (6,6) samples outrun the first window
    cfg = SampleConfig(n=n, k=k, sample_count=120, seed=seed)
    lam, B3 = sample_campaign(cfg)
    rng = None
    for i in range(cfg.sample_count):
        rng = sample_rng(cfg, i, rng)
        assert np.array_equal(lam[i], sample_gamma_k(cfg, rng))
        assert np.array_equal(B3[i], draw_direction(cfg, rng, (3,)))


@pytest.mark.parametrize("budget", [inequality_lab._WORD_BUDGET, 50])
def test_batched_sampler_equals_scalar_loop_past_the_window(monkeypatch, budget):
    # about 0.4% of this box lies in Gamma_2: samples outrun the first
    # window, and the small budget draws one sample per group, so the window
    # grows with the attempts seen after every sample
    monkeypatch.setattr(inequality_lab, "_WORD_BUDGET", budget)
    cfg = SampleConfig(n=3, k=2, sample_count=40, seed=-3, spectrum_box=(-2.0, 0.3))
    lam, B3, attempts = scalar_samples(cfg)
    assert min(attempts) <= inequality_lab._WINDOW < max(attempts)
    got = sample_campaign(cfg)
    assert np.array_equal(got[0], lam) and np.array_equal(got[1], B3)


def test_rejection_cap_raises_after_cap_cone_tests(monkeypatch):
    # Gamma_2 meets the box only where the three entries sum to more than 0,
    # within 3e-3 of its top corner: about 6e-10 of it, so the cap is met
    cfg = SampleConfig(n=3, k=2, sample_count=3, seed=1, spectrum_box=(-2.0, 1e-3))
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return in_gamma_k(*args, **kwargs)

    monkeypatch.setattr(inequality_lab, "in_gamma_k", counted)
    with pytest.raises(SamplingError, match="acceptance rate below"):
        run_campaign(cfg)
    assert len(calls) == _REJECTION_CAP


def test_krylov_radial_direction_closed_form():
    # along B = diag(lambda) the ratio is (1+t)^{1-k} R, so the second
    # derivative of its alpha power is alpha(k-1)(alpha(k-1)+1) R^alpha
    lam = np.array([1.0, 0.8, 1.3])
    k, alpha = 2, 1.5
    R = sigma(lam, 1) / sigma(lam, k)
    expect = alpha * (k - 1) * (alpha * (k - 1) + 1.0) * R**alpha
    value, rec = check_krylov_convexity(lam, np.diag(lam), alpha, k)
    assert not rec.inconclusive
    assert value == pytest.approx(expect, rel=1e-5)
    assert value >= 0.0


def test_krylov_zero_direction():
    value, rec = check_krylov_convexity(np.ones(3), np.zeros((3, 3)), 1.0, 2)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert rec.passed


def test_krylov_random_samples_nonnegative():
    cfg = SampleConfig(n=5, k=3, sample_count=1, seed=11)
    for i in range(100):
        gen = sample_rng(cfg, i)
        lam = sample_gamma_k(cfg, gen)
        B = draw_direction(cfg, gen)
        value, rec = check_krylov_convexity(lam, B, 1.0, cfg.k)
        assert rec.passed or rec.inconclusive


def test_ratio_near_boundary_closed_form():
    # sigma_1 = 1.5 + e + t and sigma_2 = 2 (e + t) at (1, 1, -0.5 + e) + t e_3,
    # so r = 0.75/(e + t) + 0.5.  The boundary rule
    # sigma_2/3 < 1e-8 (sigma_1/3)^2 holds for e below about 3.75e-9.
    es = np.array([0.012, 2.5e-4, 1e-8, 1e-9, 1e-13])
    lam = np.stack([np.ones(5), np.ones(5), -0.5 + es], axis=1)
    B = np.broadcast_to(np.diag([0.0, 0.0, 1.0]), (5, 3, 3))
    alphas = np.array([0.25, 0.5, 1.0, 2.0])[:, None]
    values, inconclusive = _ratio_alpha_d2(lam, *_gll_sides(lam, B, 2), alphas[:, 0], 2)
    assert list(inconclusive) == [False, False, False, True, True]
    u = lam[:, 2] + 0.5     # e as stored: -0.5 + e rounds e to the spacing at 0.5
    r, r1, r2 = 0.75 / u + 0.5, -0.75 / u**2, 1.5 / u**3
    want = (alphas * r ** (alphas - 1) * r2
            + alphas * (alphas - 1) * r ** (alphas - 2) * r1**2)
    assert np.allclose(values[:, :3], want[:, :3], rtol=1e-10, atol=0.0)


def test_ratio_non_finite_is_inconclusive():
    # far inside the cone, but the squares of the derivatives overflow
    lam = np.ones((1, 3))
    B = 1e200 * np.eye(3)[None]
    with np.errstate(over="ignore", invalid="ignore"):
        values, inconclusive = _ratio_alpha_d2(lam, *_gll_sides(lam, B, 2), [1.0], 2)
    assert not np.isfinite(values).any() and list(inconclusive) == [True]


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (5, 3), (6, 6)])
def test_krylov_value_is_scaled_gll_margin(n, k):
    # (g'' + alpha g'^2) sigma_k = rhs - lhs for g = log(sigma_1/sigma_k): the
    # two kernels compute the same sign by different routes
    cfg = SampleConfig(n=n, k=k, sample_count=200, seed=3)
    lam, B3 = sample_campaign(cfg)
    alphas = np.array(cfg.alpha_list)[:, None]
    lhs, sk, rk, r1 = _gll_sides(lam, B3[:, 0], k)
    values, inconclusive = _ratio_alpha_d2(lam, lhs, sk, rk, r1, alphas[:, 0], k)
    scaled = alphas * (sigma(lam, 1) / sk) ** alphas * (_gll_rhs(sk, rk, r1, alphas) - lhs) / sk
    ok = ~inconclusive
    assert ok.sum() > 190
    assert np.allclose(values[:, ok], scaled[:, ok], rtol=1e-9, atol=1e-9)


def test_ivochkina_boundary_cases():
    holds_low = check_ivochkina_condition(2, -1.0, p_box=1.0, grid=17)
    assert holds_low.holds
    holds_zero = check_ivochkina_condition(2, 0.0, p_box=3.0, grid=33)
    assert holds_zero.holds
    fails_one = check_ivochkina_condition(2, 1.0, p_box=3.0, grid=33)
    assert not fails_one.holds
    assert fails_one.worst_margin < 0.0
    assert max(abs(v) for v in fails_one.worst_point) <= 3.0


def test_ivochkina_convex_case_has_positive_hessian():
    # q = 0 gives chi^{1/k} = sqrt(1 + |p|^2), convex: worst margin is the
    # allowance alone and stays strictly positive
    rep = check_ivochkina_condition(2, 0.0, p_box=3.0, grid=33)
    assert rep.worst_margin > 0.0


def test_campaign_empty():
    s = run_campaign(SampleConfig(n=3, k=2, sample_count=0, seed=1))
    assert s.clean and s.counts == {}


def test_campaign_small_clean_and_deterministic(tmp_path):
    cfg = SampleConfig(n=3, k=2, sample_count=150, seed=404)
    digests = []
    for tag in ("a", "b"):
        path = tmp_path / f"campaign_{tag}.csv"
        s = run_campaign(cfg)
        assert s.clean
        write_campaign_csv([s], cfg, path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    header = (tmp_path / "campaign_a.csv").read_text().splitlines()[0]
    assert header.startswith("kind,n,k,alpha,seed_index,lhs,rhs,margin,pass")


def test_campaign_csv_digest_is_pinned(tmp_path):
    # gll_sum3 rows depend on all three directions, so the pin covers the
    # second and third draws of each sample as well
    cfgs = [SampleConfig(n, k, alpha_list=(0.5, 2.0), sample_count=200, seed=7)
            for n, k in ((3, 2), (5, 3))]
    path = tmp_path / "campaign.csv"
    write_campaign_csv([run_campaign(cfg) for cfg in cfgs], cfgs[1], path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "5b91178381d24249c16f5b829ed6fa32bb6f62ec1d76b4286eaa45f1d89a30c0")


def test_gll_lhs_is_the_same_at_every_alpha():
    # write_campaign_csv formats the gll and gll_sum3 lhs cells once, from
    # the first alpha's, and only krylov's per alpha
    cfg = SampleConfig(n=4, k=2, alpha_list=(0.25, 1.0, 3.0), sample_count=30, seed=11)
    lhs = run_campaign(cfg).lhs
    assert np.array_equal(lhs[:, :, :2], np.broadcast_to(lhs[:1, :, :2], lhs[:, :, :2].shape),
                          equal_nan=True)
    assert not np.array_equal(lhs[0, :, 2], lhs[1, :, 2])


def test_campaign_counts_structure():
    cfg = SampleConfig(n=2, k=2, sample_count=50, seed=9, alpha_list=(0.5, 2.0))
    s = run_campaign(cfg)
    total = sum(v for (kind, _), v in s.counts.items() if kind == "gll")
    assert total == 100  # samples x alphas


def test_summary_keeps_only_the_reported_direction():
    # B is copied out of the (S, 3, n, n) draw, so a held summary does not
    # pin the two directions that only gll_sum3 reads
    cfg = SampleConfig(n=3, k=2, sample_count=20, seed=5)
    s = run_campaign(cfg)
    assert s.B.base is None
    assert np.array_equal(s.B, sample_campaign(cfg)[1][:, 0])


def test_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(n=9, k=2)
    with pytest.raises(ValueError):
        SampleConfig(n=3, k=1)
    with pytest.raises(ValueError):
        SampleConfig(n=3, k=2, alpha_list=(0.0,))
    with pytest.raises(ValueError):
        SampleConfig(n=3, k=2, sample_count=-1)
    # no alpha: every sample drawn and no check made
    with pytest.raises(ValueError, match="at least one alpha"):
        SampleConfig(n=3, k=2, alpha_list=())
    # results are keyed by the alpha's 6-significant-digit label
    with pytest.raises(ValueError, match="first 6 significant digits"):
        SampleConfig(n=3, k=2, alpha_list=(0.1234567, 0.1234568))
    # sigma_1 > 0 needs a positive entry: refused before any cone test
    with pytest.raises(ValueError, match="hi <= 0 leaves no spectrum"):
        SampleConfig(n=3, k=2, spectrum_box=(-1.0, -0.5))


def booked(alphas, margin, passed, inconclusive):
    """The per-check booking loop run_campaign used to make, row by row in
    table order: the oracle for tally."""
    counts, worst, hard, implied = {}, {}, [], []
    for ia, alpha in enumerate(alphas):
        for i in range(margin.shape[1]):
            for j, kind in enumerate(KINDS):
                m = float(margin[ia, i, j])
                ok, inc = bool(passed[ia, i, j]), bool(inconclusive[ia, i, j])
                key = (kind, "inconclusive" if inc else ("pass" if ok else "fail"))
                counts[key] = counts.get(key, 0) + 1
                if (kind, alpha) not in worst or m < worst[(kind, alpha)]:
                    worst[(kind, alpha)] = m
                if not ok and not inc:
                    hard.append((kind, alpha, i, m))
            if (passed[ia, i, 2] and not inconclusive[ia, i, 2]
                    and not passed[ia, i, 0] and not inconclusive[ia, i, 0]):
                implied.append((alpha, i))
    return counts, worst, hard, implied


def assert_tally_matches_oracle(alphas, margin, passed, inconclusive):
    counts, worst, hard, implied = tally(alphas, margin, passed, inconclusive)
    o_counts, o_worst, o_hard, o_implied = booked(alphas, margin, passed, inconclusive)
    # the summary sorts count keys, so counts compare as a mapping; repr
    # tells NaN, -0.0 and numpy scalars apart
    assert counts == o_counts
    assert repr(list(worst.items())) == repr(list(o_worst.items()))
    assert repr(hard) == repr(o_hard)
    assert repr(implied) == repr(o_implied)
    return counts, worst, hard, implied


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (5, 3)])
def test_campaign_tally_matches_booking_loop(n, k):
    alphas = (0.25, 0.5, 1.0, 2.0)
    cfg = SampleConfig(n=n, k=k, alpha_list=alphas, sample_count=400, seed=31)
    s = run_campaign(cfg)
    assert s.margin.shape == (len(alphas), 400, len(KINDS))
    counts, worst, hard, implied = assert_tally_matches_oracle(
        alphas, s.margin, s.passed, s.inconclusive)
    assert (s.counts, s.worst_margins, s.hard_failures,
            s.implication_violations) == (counts, worst, hard, implied)
    # the table columns hold what the single-sample checks compute
    for ia, alpha in enumerate(alphas):
        for i in range(3):
            rec = check_gll(s.lam[i], s.B[i], alpha, k=k)
            assert s.lhs[ia, i, 0] == pytest.approx(rec.lhs, rel=1e-12, abs=1e-12)
            assert s.rhs[ia, i, 0] == pytest.approx(rec.rhs, rel=1e-12, abs=1e-12)
            value, _ = check_krylov_convexity(s.lam[i], s.B[i], alpha, k)
            assert s.margin[ia, i, 2] == pytest.approx(value, rel=1e-9, abs=1e-9)
            assert s.lhs[ia, i, 2] == -s.margin[ia, i, 2] and s.rhs[ia, i, 2] == 0.0


def test_tally_matches_booking_loop_on_synthetic_tables():
    rng = np.random.default_rng(5)
    alphas = (0.5, 1.0, 2.0)
    shape = (len(alphas), 40, len(KINDS))
    margin = rng.uniform(0.0, 1.0, shape)
    passed = np.ones(shape, dtype=bool)
    inconclusive = np.zeros(shape, dtype=bool)
    # NaN krylov margins are inconclusive: first sample at alpha 0.5,
    # a later one at alpha 1.0 where a smaller margin follows it
    margin[0, 0, 2] = np.nan
    margin[1, 7, 2] = np.nan
    margin[1, 9, 2] = -1e-3
    inconclusive[0, 0, 2] = inconclusive[1, 7, 2] = inconclusive[1, 9, 2] = True
    passed[0, 0, 2] = passed[1, 7, 2] = passed[1, 9, 2] = False
    # hard failures in every kind, and a gll failure under a conclusive
    # convexity pass (an implication violation)
    for ia, i, j in ((2, 3, 1), (0, 5, 0), (2, 3, 2), (1, 30, 0)):
        margin[ia, i, j] = -0.25 * (1 + i)
        passed[ia, i, j] = False
    # ties at the worst margin: -0.0 first, then +0.0
    margin[2, 10, 0], margin[2, 12, 0] = -0.0, 0.0
    counts, worst, hard, implied = assert_tally_matches_oracle(
        alphas, margin, passed, inconclusive)
    assert np.isnan(worst[("krylov", 0.5)])
    assert worst[("krylov", 1.0)] == -1e-3
    assert [h[:3] for h in hard] == [("gll", 0.5, 5), ("gll", 1.0, 30),
                                     ("gll_sum3", 2.0, 3), ("krylov", 2.0, 3)]
    assert implied == [(0.5, 5), (1.0, 30)]
    assert counts[("krylov", "inconclusive")] == 3


def test_tally_books_no_implication_on_an_inconclusive_gll_row():
    # a NaN gll margin is not a pass, but neither is it a conclusive fail:
    # under a conclusive convexity pass it is no implication violation
    alphas = (1.0,)
    margin = np.array([[[np.nan, 0.5, 0.5], [-np.inf, 0.5, 0.5], [-0.5, 0.5, 0.5]]])
    passed = margin >= 0.0
    inconclusive = ~np.isfinite(margin)
    counts, worst, hard, implied = assert_tally_matches_oracle(
        alphas, margin, passed, inconclusive)
    assert counts[("gll", "inconclusive")] == 2 and counts[("gll", "fail")] == 1
    assert [h[:3] for h in hard] == [("gll", 1.0, 2)]
    assert implied == [(1.0, 2)]


DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
# demo: lines its output must hold
DEMO_LINES = {
    "inequality_lab_session": ["krylov    pass         8000",
                               "hard failures: 0  implication violations: 0"],
    "graph_equation_walkthrough": ["+0.5  17x17   0.707107    0.700012  0.415942"],
    "measure_equation_walkthrough": ["verified at tolerance 1e-8: True"],
    "sphere_geometry_tour": ["grid ( 64,128): gauss 3.075e-04  support 2.285e-04   order 1.99"],
    "symmetric_functions": ["d^2/dt^2 sigma_2(I + tI) = 6"],
}


def test_demo_list_is_complete():
    assert sorted(f"{name}.py" for name in DEMO_LINES) == sorted(
        f for f in os.listdir(DEMOS) if f.endswith(".py"))


@pytest.mark.parametrize("demo", sorted(DEMO_LINES))
def test_lab_demo_session_runs(capsys, monkeypatch, demo):
    # the demos need no scipy: with it unimportable they still run
    monkeypatch.setitem(sys.modules, "scipy", None)
    runpy.run_path(os.path.join(DEMOS, f"{demo}.py"), run_name="__main__")
    out = capsys.readouterr().out
    for line in DEMO_LINES[demo]:
        assert line in out
