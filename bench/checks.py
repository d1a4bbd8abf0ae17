"""Output checks made apart from the program.

Every check reads the files a CLI run wrote and recomputes what it tests
with numpy alone; nothing here imports ``prescurv`` or compares against a
stored copy of earlier output.  Each function returns a list of problems
(empty when the output holds) and the figures it measured.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np

from workloads import (CAP_RADIUS, LAB_ALPHAS, LAB_IVOCHKINA, LAB_PAIRS,
                       LAB_SAMPLES, PHI_TILT, SPHERE_TOL)

# Relative defect allowed in the two Minkowski identities.  The 32x64 run
# shows about 4e-5; a wrong solution shows a defect of order one.
MINKOWSKI_TOL = 1e-3
MIN_ORDER = 1.8
# Agreement of the recomputed gll sides with the stored ones, relative to
# 1 + |value|; the run shows about 1e-12.
GLL_TOL = 1e-9
GLL_SUBSAMPLE = 64      # gll rows recomputed per (n, k) pair


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def manifest(out_dir):
    """The manifest's sha256 of every listed file matches the file.

    Returns (problems, {file name: sha256}).
    """
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            files = json.load(fh)["files"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"manifest unreadable: {exc}"], {}
    problems, digests = [], {}
    for entry in files:
        path = os.path.join(out_dir, entry["name"])
        digest = _sha256(path) if os.path.isfile(path) else None
        if digest != entry["sha256"]:
            problems.append(f"manifest sha256 mismatch for {entry['name']}")
        digests[entry["name"]] = digest
    return problems, digests


def _table(path):
    """A numeric CSV with a header, as {column name: float array}."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def sphere(out_dir):
    """sigma_2 = u phi node by node, positivity, the Minkowski identities
    and a final continuation step at exactly t = 1."""
    c = _table(os.path.join(out_dir, "solution.csv"))
    theta, rho, u = c["theta"], c["rho"], c["u"]
    l1, l2 = c["lambda1"], c["lambda2"]
    problems = []
    residual = float(np.abs(l1 * l2 - u * (1.0 + PHI_TILT * np.cos(theta))).max())
    if not residual <= SPHERE_TOL:
        problems.append(f"residual {residual:.3e} above {SPHERE_TOL:g}")
    if not ((l1 > 0).all() and (l2 > 0).all() and (u > 0).all()):
        problems.append("a principal curvature or the support value is not positive")
    # midpoint rule on the staggered grid: dA = rho^3 / u sin(theta) dtheta dphi
    dA = rho**3 / u * np.sin(theta)
    H, K = 0.5 * (l1 + l2), l1 * l2
    area = dA.sum()
    defect_area = abs(area - (H * u * dA).sum()) / area
    defect_mean = abs((H * dA).sum() - (K * u * dA).sum()) / (H * dA).sum()
    for label, d in (("int dA = int H u dA", defect_area),
                     ("int H dA = int K u dA", defect_mean)):
        if not d <= MINKOWSKI_TOL:
            problems.append(f"Minkowski identity {label}: relative defect {d:.2e}")
    with open(os.path.join(out_dir, "report.json")) as fh:
        steps = json.load(fh).get("homotopy", {}).get("steps", [])
    if not steps or steps[-1]["t"] != 1.0:
        problems.append(f"last continuation step is not at t = 1.0: "
                        f"{steps[-1]['t'] if steps else None!r}")
    return problems, {"residual_max": residual, "minkowski_area": defect_area,
                      "minkowski_mean": defect_mean}


def graph_error(out_dir):
    """Max error of the solved height against the cap sqrt(R^2 - |x|^2)."""
    c = _table(os.path.join(out_dir, "solution.csv"))
    exact = np.sqrt(CAP_RADIUS**2 - c["x1"] ** 2 - c["x2"] ** 2)
    return float(np.abs(c["g"] - exact).max())


def graph_orders(errors):
    """Observed order between consecutive grids of a halving ladder; returns
    the problems of each grid after the first."""
    problems = []
    for prev, cur in zip(errors, errors[1:]):
        order = math.log2(prev / cur) if prev > 0 and cur > 0 else math.nan
        problems.append([] if order >= MIN_ORDER else
                        [f"observed order {order:.3f} below {MIN_ORDER}"])
    return problems


def _elementary(lam, k):
    """sigma_1 .. sigma_k of each row of lam by the product recurrence."""
    e = np.zeros((lam.shape[0], k + 1))
    e[:, 0] = 1.0
    for i in range(lam.shape[1]):
        e[:, 1:] = e[:, 1:] + lam[:, i:i + 1] * e[:, :-1]
    return e[:, 1:]


def _sigma_k_of_matrix(M, k):
    """sigma_k of a square matrix: a coefficient of its characteristic
    polynomial det(sI - M) = sum_j (-1)^j sigma_j s^(n-j)."""
    return (-1) ** k * np.poly(M)[k]


def _gll_sides(lam, B, k, alpha):
    """lhs = d^2/dt^2 sigma_k(diag lam + t B) at 0, and the bound's rhs.

    sigma_k(diag lam + t B) is a polynomial of degree k in t, so a
    degree-k fit through 2k + 1 of its values, each taken from a
    characteristic polynomial, recovers it up to rounding.
    """
    ts = np.linspace(-0.5, 0.5, 2 * k + 1)
    vals = [_sigma_k_of_matrix(np.diag(lam) + t * B, k) for t in ts]
    coef = np.polynomial.polynomial.polyfit(ts, vals, k)
    sk = (-1) ** k * np.poly(lam)[k]
    rk = coef[1] / sk
    r1 = np.trace(B) / lam.sum()
    lhs = 2.0 * coef[2]
    rhs = sk * (rk - r1) * ((alpha + 1.0) * rk - (alpha - 1.0) * r1)
    return lhs, rhs


def lab(out_dir, seed):
    """Row counts, Gamma_k membership of every row, a seeded recomputation
    of gll rows, the summary counts and the Ivochkina boundary."""
    problems = []
    rng = np.random.default_rng(seed)
    picks = {(n, k): {(float(rng.choice(LAB_ALPHAS)), int(rng.integers(LAB_SAMPLES)))
                      for _ in range(GLL_SUBSAMPLE)} for n, k in LAB_PAIRS}
    rows_per_pair = {pair: 0 for pair in LAB_PAIRS}
    spectra = {pair: set() for pair in LAB_PAIRS}
    chosen = []
    with open(os.path.join(out_dir, "campaign.csv"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col = {name: i for i, name in enumerate(header)}
        lam0 = col["lambda_1"]
        for row in reader:
            pair = (int(row[col["n"]]), int(row[col["k"]]))
            if pair not in rows_per_pair:
                problems.append(f"row for unexpected pair {pair}")
                break
            n = pair[0]
            rows_per_pair[pair] += 1
            spectra[pair].add(tuple(row[lam0:lam0 + n]))
            key = (float(row[col["alpha"]]), int(row[col["seed_index"]]))
            if row[col["kind"]] == "gll" and key in picks[pair]:
                chosen.append((pair, row))
    expected_rows = 3 * len(LAB_ALPHAS) * LAB_SAMPLES
    for pair, count in rows_per_pair.items():
        if count != expected_rows:
            problems.append(f"pair {pair}: {count} rows, expected {expected_rows}")
    for (n, k), lams in spectra.items():
        if not lams:
            continue
        e = _elementary(np.array(sorted(lams), dtype=float), k)
        outside = int((e <= 0).any(axis=1).sum())
        if outside:
            problems.append(f"pair {(n, k)}: {outside} spectra outside Gamma_{k}")
    worst = 0.0
    for (n, k), row in chosen:
        lam = np.array(row[lam0:lam0 + n], dtype=float)
        B = np.array([[row[col[f"B_{min(i, j) + 1}{max(i, j) + 1}"]] for j in range(n)]
                      for i in range(n)], dtype=float)
        lhs, rhs = _gll_sides(lam, B, k, float(row[col["alpha"]]))
        for mine, stored in ((lhs, float(row[col["lhs"]])), (rhs, float(row[col["rhs"]]))):
            gap = abs(mine - stored) / (1.0 + abs(stored))
            worst = max(worst, gap)
    if len(chosen) != sum(len(p) for p in picks.values()):
        problems.append("sampled gll rows missing from campaign.csv")
    if not worst <= GLL_TOL:
        problems.append(f"gll sides recomputed differ by {worst:.2e} (relative)")
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    for camp in summary["campaigns"]:
        total = sum(camp["counts"].values())
        if total != 3 * len(LAB_ALPHAS) * camp["sample_count"]:
            problems.append(f"summary counts for n={camp['n']} k={camp['k']} sum to {total}")
    holds = {float(r["q"]): r["holds"] for r in summary["ivochkina"]}
    for q, expected in LAB_IVOCHKINA:
        if holds.get(q) is not expected:
            problems.append(f"Ivochkina scan at q={q:g}: holds={holds.get(q)}, "
                            f"expected {expected}")
    return problems, {"gll_worst_gap": worst, "gll_rows_checked": len(chosen)}

