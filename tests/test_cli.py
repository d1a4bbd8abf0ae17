import csv
import io
import json
import math
import os
import re

import numpy as np
import pytest

from prescurv.cli import MODES, main, parse_config
from prescurv.errors import ConfigError
from prescurv.measure_solver import HomotopySchedule
from prescurv.reporting import sha256_file


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def minimal_measure(grid=(12, 24), p=1.0, phi=None, solver=None):
    cfg = {
        "mode": "solve-measure",
        "problem": {
            "operator": {"kind": "sigma_k", "k": 2},
            "p": p,
            "phi": phi or [[1.0, 0, 0, 0]],
            "grid": list(grid),
        },
    }
    if solver:
        cfg["solver"] = solver
    return cfg


def test_parse_minimal_config_fills_defaults(tmp_path):
    path = write_config(tmp_path, minimal_measure())
    rc = parse_config(path)
    assert rc.mode == "solve-measure"
    assert rc.payload.method == "homotopy"
    assert rc.payload.schedule == HomotopySchedule()
    assert rc.payload.problem.op.k == 2


def test_parse_rejects_p_zero_naming_the_rule(tmp_path):
    path = write_config(tmp_path, minimal_measure(p=0.0))
    with pytest.raises(ConfigError, match="p must be nonzero"):
        parse_config(path)


def test_parse_rejects_k_larger_than_dimension(tmp_path):
    cfg = minimal_measure()
    cfg["problem"]["operator"]["k"] = 3
    with pytest.raises(ConfigError, match="out of range"):
        parse_config(write_config(tmp_path, cfg))


def test_parse_rejects_unknown_keys(tmp_path):
    cfg = minimal_measure()
    cfg["problem"]["typo"] = 1
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(write_config(tmp_path, cfg))


def test_parse_rejects_poly_H_at_the_H_block(tmp_path, monkeypatch):
    # no problem is built for a run that cannot start: the boundary block
    # is never read, so even its absence does not change the message
    from prescurv import cli

    def no_problem(*args, **kwargs):
        raise AssertionError("graph problem built for a poly-H config")

    monkeypatch.setattr(cli, "manufactured_problem", no_problem)
    cfg = {"mode": "solve-graph",
           "problem": {"domain": [-1, 1, -1, 1], "grid": [9, 9], "k": 2, "q": 0.5,
                       "H": {"kind": "poly", "terms": [[1.0, 0, 0, 0]]}}}
    with pytest.raises(ConfigError, match="polynomial-H runs need a manufactured"):
        parse_config(write_config(tmp_path, cfg))
    cfg["problem"]["boundary"] = {"kind": "poly", "terms": [[0.0, 0, 0, 0]]}
    with pytest.raises(ConfigError, match="polynomial-H runs need a manufactured"):
        parse_config(write_config(tmp_path, cfg))


def test_parse_reports_json_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n "mode": "solve-measure",\n broken\n}')
    with pytest.raises(ConfigError, match="line 3"):
        parse_config(str(path))


def test_parse_mode_mismatch(tmp_path):
    path = write_config(tmp_path, minimal_measure())
    with pytest.raises(ConfigError, match="does not match"):
        parse_config(path, mode="solve-graph")


def test_solve_measure_unit_sphere_run(tmp_path):
    path = write_config(tmp_path, minimal_measure())
    out = tmp_path / "out"
    code = main(["solve-measure", "--config", path, "--out", str(out), "--quiet"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["bounds"]["verified"] is True
    assert report["homotopy"]["success"] is True
    # solution is the unit sphere: every rho value is 1
    rows = (out / "solution.csv").read_text().splitlines()[1:]
    rho = np.array([float(r.split(",")[2]) for r in rows])
    assert np.abs(rho - 1.0).max() < 1e-9
    assert (out / "surface.obj").exists()


def test_manifest_lists_every_emitted_file(tmp_path):
    path = write_config(tmp_path, minimal_measure())
    out = tmp_path / "out"
    assert main(["solve-measure", "--config", path, "--out", str(out), "--quiet"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {f["name"] for f in manifest["files"]}
    on_disk = {n for n in os.listdir(out) if n != "manifest.json"}
    assert listed == on_disk
    for entry in manifest["files"]:
        assert sha256_file(str(out / entry["name"])) == entry["sha256"]
    assert manifest["config_echo"]["mode"] == "solve-measure"


def test_payloads_reproducible_across_runs(tmp_path):
    path = write_config(tmp_path, {
        "mode": "verify-inequalities",
        "seed": 31,
        "problem": {"pairs": [[3, 2]], "sample_count": 120,
                    "ivochkina": [{"k": 2, "q": 0.5}]},
    })
    digests = []
    for tag in ("a", "b"):
        out = tmp_path / f"out_{tag}"
        code = main(["verify-inequalities", "--config", path, "--out", str(out),
                     "--quiet"])
        assert code == 0
        digests.append({
            name: sha256_file(str(out / name))
            for name in os.listdir(out) if name != "manifest.json"
        })
    assert digests[0] == digests[1]


def test_inequality_run_writes_summary_and_campaign(tmp_path):
    path = write_config(tmp_path, {
        "mode": "verify-inequalities",
        "seed": 5,
        "problem": {"pairs": [[2, 2], [4, 3]], "sample_count": 60,
                    "ivochkina": [{"k": 2, "q": -1.0}, {"k": 2, "q": 1.0}]},
    })
    out = tmp_path / "out"
    assert main(["verify-inequalities", "--config", path, "--out", str(out),
                 "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["clean"] is True
    assert summary["ivochkina"][0]["holds"] is True
    assert summary["ivochkina"][1]["holds"] is False
    header = (out / "campaign.csv").read_text().splitlines()[0]
    assert header.startswith("kind,n,k,alpha,seed_index,lhs,rhs,margin,pass")
    assert "lambda_4" in header


def test_campaign_csv_bytes_match_independent_formatter(tmp_path):
    # two pairs of different n, so the n = 3 rows carry empty padded cells,
    # given narrowest and widest first
    from prescurv.inequality_lab import SampleConfig, run_campaign

    count, seed, alphas = 12, 8, (0.5, 2.0)
    for order, pairs in enumerate(([(3, 2), (5, 3)], [(5, 3), (3, 2)])):
        path = write_config(tmp_path, {
            "mode": "verify-inequalities",
            "seed": seed,
            "problem": {"pairs": [list(p) for p in pairs], "sample_count": count,
                        "alpha_list": list(alphas)},
        }, name=f"cfg{order}.json")
        out = tmp_path / f"out{order}"
        assert main(["verify-inequalities", "--config", path, "--out", str(out),
                     "--quiet"]) == 0
        width = max(n for n, _ in pairs)
        expect = io.StringIO()
        writer = csv.writer(expect, lineterminator="\n")
        writer.writerow(["kind", "n", "k", "alpha", "seed_index", "lhs", "rhs", "margin",
                         "pass", "inconclusive"]
                        + [f"lambda_{i + 1}" for i in range(width)]
                        + [f"B_{i + 1}{j + 1}" for i in range(width)
                           for j in range(i, width)])
        for n, k in pairs:
            cfg = SampleConfig(n=n, k=k, alpha_list=alphas, sample_count=count, seed=seed)
            for r in run_campaign(cfg).records:
                lam = [f"{v:.17g}" for v in r.lam] + [""] * (width - n)
                B = [f"{r.B[i, j]:.17g}" if j < n else ""
                     for i in range(width) for j in range(i, width)]
                writer.writerow([r.kind, r.n, r.k, f"{r.alpha:.17g}", r.seed_index,
                                 f"{r.lhs:.17g}", f"{r.rhs:.17g}", f"{r.margin:.17g}",
                                 int(r.passed), int(r.inconclusive)] + lam + B)
        text = (out / "campaign.csv").read_text()
        assert text.count("\n") == 1 + 3 * len(alphas) * count * len(pairs)
        assert text == expect.getvalue()


def test_campaign_without_samples_writes_no_csv(tmp_path):
    path = write_config(tmp_path, {
        "mode": "verify-inequalities",
        "problem": {"pairs": [[3, 2]], "sample_count": 0},
    })
    out = tmp_path / "out"
    assert main(["verify-inequalities", "--config", path, "--out", str(out),
                 "--quiet"]) == 0
    assert not (out / "campaign.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["campaigns"][0]["counts"] == {}
    assert summary["campaigns"][0]["worst_margins"] == {}


def test_ivochkina_scan_without_pairs_is_a_run(tmp_path):
    # no campaign, but a scan: the run checks something and exits 0
    path = write_config(tmp_path, {
        "mode": "verify-inequalities",
        "problem": {"pairs": [], "ivochkina": [{"k": 2, "q": -1.0}]},
    })
    out = tmp_path / "out"
    assert main(["verify-inequalities", "--config", path, "--out", str(out),
                 "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["campaigns"] == [] and summary["ivochkina"][0]["holds"] is True
    assert not (out / "campaign.csv").exists()


@pytest.mark.parametrize("alphas", [[0.1234567, 0.1234568, 0.5], [0.5, 0.5]])
def test_alphas_sharing_a_label_are_a_config_error(tmp_path, alphas):
    # worst margins are reported per alpha label, so two alphas with one
    # label would drop a margin from summary.json
    path = write_config(tmp_path, {
        "mode": "verify-inequalities",
        "problem": {"pairs": [[3, 2]], "sample_count": 5, "alpha_list": alphas},
    })
    with pytest.raises(ConfigError, match="first 6 significant digits"):
        parse_config(path)
    assert main(["verify-inequalities", "--config", path, "--out",
                 str(tmp_path / "out"), "--quiet"]) == 1


def test_homotopy_report_records_step_control(tmp_path):
    cfg = minimal_measure(grid=(8, 16), phi=[[1.0, 0, 0, 0], [0.2, 0, 0, 1]])
    path = write_config(tmp_path, cfg)
    reports = []
    for tag in ("a", "b"):
        out = tmp_path / f"out_{tag}"
        assert main(["solve-measure", "--config", path, "--out", str(out), "--quiet"]) == 0
        reports.append((out / "report.json").read_text())
    assert reports[0] == reports[1]
    steps = json.loads(reports[0])["homotopy"]["steps"]
    assert [s["t"] for s in steps] == [0.0, 0.1, 0.5, 1.0]
    assert [s["predicted"] for s in steps] == [False, False, True, True]
    assert steps[0]["dt_factor"] is None
    assert all(0 < s["contraction"] < 0.25 and s["dt_factor"] == 4.0 for s in steps[1:])
    # each corrector factors once, at its start, and takes chord steps after
    assert [s["factorizations"] for s in steps] == [0, 1, 1, 1]
    assert [s["refactor_reasons"] for s in steps] == [[], ["start"], ["start"], ["start"]]
    assert all(s["newton_iters"] > s["factorizations"] for s in steps[1:])


def test_nonconvergence_exit_code(tmp_path):
    cfg = minimal_measure(solver={"method": "newton", "start_radius": 3.0,
                                  "max_iter": 2, "tol": 1e-12})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    code = main(["solve-measure", "--config", path, "--out", str(out), "--quiet"])
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert "error" in report


def test_converged_newton_run_writes_its_newton_block(tmp_path):
    cfg = minimal_measure(grid=(8, 16), phi=[[1.0, 0, 0, 0], [0.2, 0, 0, 1]],
                          solver={"method": "newton", "tol": 1e-10})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["solve-measure", "--config", path, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["bounds"]["verified"] is True
    assert "homotopy" not in report and "error" not in report
    newton = report["newton"]
    assert set(newton) == {"iterations", "factorizations", "refactor_reasons",
                           "residual_history"}
    assert newton["refactor_reasons"][0] == "start"
    assert newton["factorizations"] == len(newton["refactor_reasons"])
    assert len(newton["residual_history"]) == newton["iterations"] + 1
    assert newton["residual_history"][-1] <= 1e-10 < newton["residual_history"][0]
    assert (out / "solution.csv").exists() and (out / "surface.obj").exists()


def test_nonconvergence_report_keeps_partial_newton_block(tmp_path):
    cfg = minimal_measure(grid=(8, 16), phi=[[1.0, 0, 0, 0], [0.2, 0, 0, 1]],
                          solver={"method": "newton", "max_iter": 1})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    code = main(["solve-measure", "--config", path, "--out", str(out), "--quiet"])
    assert code == 2
    newton = json.loads((out / "report.json").read_text())["newton"]
    assert newton["iterations"] == 1
    assert (newton["factorizations"], newton["refactor_reasons"]) == (1, ["start"])
    assert len(newton["residual_history"]) == 2
    assert newton["message"] == "no convergence in 1 iterations"


def test_convergence_study_single_grid_has_no_orders(tmp_path):
    path = write_config(tmp_path, {
        "mode": "convergence-study",
        "problem": {"kind": "ellipsoid-curvature", "grids": [[16, 32]]},
    })
    out = tmp_path / "out"
    assert main(["convergence-study", "--config", path, "--out", str(out),
                 "--quiet"]) == 0
    lines = (out / "study.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[3] == "n/a"


def test_convergence_study_constant_field_floors(tmp_path):
    path = write_config(tmp_path, {
        "mode": "convergence-study",
        "problem": {"kind": "structure-equations", "grids": [[12, 24], [24, 48]],
                    "rho": [[1.5, 0, 0, 0]]},
    })
    out = tmp_path / "out"
    assert main(["convergence-study", "--config", path, "--out", str(out),
                 "--quiet"]) == 0
    lines = (out / "study.csv").read_text().splitlines()
    last = lines[-1].split(",")
    assert float(last[2]) < 1e-13  # residuals at round-off floor
    assert last[3] == "n/a"


def test_graph_cli_run(tmp_path):
    path = write_config(tmp_path, {
        "mode": "solve-graph",
        "problem": {
            "domain": [-1, 1, -1, 1], "grid": [17, 17], "k": 2, "q": 0.0,
            "H": {"kind": "manufactured", "surface": {"kind": "cap", "radius": 2.0}},
            "boundary": {"kind": "surface"},
        },
        "solver": {"tol": 1e-10},
    })
    out = tmp_path / "out"
    assert main(["solve-graph", "--config", path, "--out", str(out), "--quiet"]) == 0
    probe = json.loads((out / "probe.json").read_text())
    assert probe["ratio"] == pytest.approx(0.4142, abs=5e-3)
    report = json.loads((out / "report.json").read_text())
    assert report["manufactured_error_max"] < 1e-3
    newton = report["newton"]
    assert newton["factorizations"] == len(newton["refactor_reasons"]) >= 1
    assert newton["refactor_reasons"][0] == "start"
    assert newton["iterations"] >= newton["factorizations"]


def test_graph_poly_boundary_run_reports_no_manufactured_error(tmp_path):
    # boundary data g = 1 instead of the cap's heights: the cap no longer
    # solves the problem, so report.json has no error against it (the
    # surface-boundary run above has one)
    path = write_config(tmp_path, {
        "mode": "solve-graph",
        "problem": {
            "domain": [-1, 1, -1, 1], "grid": [17, 17], "k": 2, "q": 0.0,
            "H": {"kind": "manufactured", "surface": {"kind": "cap", "radius": 2.0}},
            "boundary": {"kind": "poly", "terms": [[1.0, 0, 0, 0]]},
        },
        "solver": {"tol": 1e-10},
    })
    out = tmp_path / "out"
    assert main(["solve-graph", "--config", path, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert "manufactured_error_max" not in report
    assert report["newton"]["residual_history"][-1] <= 1e-10
    with open(out / "solution.csv") as fh:
        rows = list(csv.DictReader(fh))
    ring = [float(r["g"]) for r in rows
            if 1.0 in (abs(float(r["x1"])), abs(float(r["x2"])))]
    assert len(ring) == 64 and all(g == 1.0 for g in ring)


def test_hard_failure_exit_code(tmp_path, monkeypatch):
    # the inequalities are theorems, so a real hard failure cannot be
    # produced honestly; stub one campaign to exercise the exit contract
    import prescurv.cli as cli
    from prescurv.inequality_lab import CampaignSummary, SampleConfig

    def fake_campaign(cfg):
        # one sample whose gll check fails at every alpha
        shape = (len(cfg.alpha_list), 1, 3)
        margin = np.ones(shape)
        margin[..., 0] = -1.0
        return CampaignSummary(cfg=cfg, lam=np.ones((1, cfg.n)),
                               B=np.zeros((1, cfg.n, cfg.n)), lhs=-margin,
                               rhs=np.zeros(shape), margin=margin, passed=margin >= 0.0,
                               inconclusive=np.zeros(shape, dtype=bool))

    monkeypatch.setattr(cli, "run_campaign", fake_campaign)
    path = write_config(tmp_path, {
        "mode": "verify-inequalities",
        "problem": {"pairs": [[3, 2]], "sample_count": 10},
    })
    out = tmp_path / "out"
    code = main(["verify-inequalities", "--config", path, "--out", str(out),
                 "--quiet"])
    assert code == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["clean"] is False


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-mode", "--config", "x", "--out", "y"])
    assert exc.value.code == 1


def test_missing_config_is_usage_error(tmp_path):
    code = main(["solve-measure", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1


TILTED_MEASURE = {"operator": {"kind": "sigma_k", "k": 2}, "p": 1.0,
                  "phi": [[1.0, 0, 0, 0], [0.2, 0, 0, 1]]}

# study.csv digests, one config per kind: a change to how studies are
# parsed or their rows assembled must leave every byte in place
STUDY_DIGESTS = [
    ({"kind": "ellipsoid-curvature", "grids": [[16, 32], [32, 64]]},
     "52100c740a393e53a15614b2ed515267ba38e69edcc5502db4281081b555af5e"),
    ({"kind": "structure-equations", "grids": [[12, 24], [24, 48]]},
     "eca10a86e5f83783a8a38851d51f7096a3cdaeb93ae6d6a28b26fca3623e0d9a"),
    ({"kind": "measure-homotopy", "grids": [[8, 16], [16, 32], [32, 64]],
      **TILTED_MEASURE},
     "5ab7c8331c435bb9e1fefe93862cdcb40a76530d1c78e193311338d33d093d04"),
    ({"kind": "graph-manufactured", "grids": [[9, 9], [17, 17]], "q": 0.5},
     "3d500a724fad8f495388002f999b0f3c409c3bf5989f612a1f7d529146f47223"),
    ({"kind": "graph-bound-probe", "grids": [[9, 9], [17, 17]], "q_list": [-1.0, 0.5]},
     "17432f868f7a03ba58ab03eb5cc2bb31539c43c9e87d3cdce62a06a6fec26a3f"),
]


@pytest.mark.parametrize("problem, digest", STUDY_DIGESTS,
                         ids=[p["kind"] for p, _ in STUDY_DIGESTS])
def test_convergence_study_csv_is_pinned(tmp_path, problem, digest):
    path = write_config(tmp_path, {"mode": "convergence-study", "problem": problem})
    out = tmp_path / "out"
    assert main(["convergence-study", "--config", path, "--out", str(out),
                 "--quiet"]) == 0
    assert sha256_file(str(out / "study.csv")) == digest



def with_surface(**surface):
    """cap_graph(2.0) with the surface's fields replaced."""
    problem = cap_graph(2.0)
    problem["H"] = {**problem["H"], "surface": {**problem["H"]["surface"], **surface}}
    return problem


def cap_graph(radius):
    return {"domain": [-1, 1, -1, 1], "grid": [9, 9], "k": 2, "q": 0.5,
            "H": {"kind": "manufactured", "surface": {"kind": "cap", "radius": radius}},
            "boundary": {"kind": "surface"}}


# solver payload digests: a change to how solutions and meshes are written
# must leave every byte in place
SOLVE_DIGESTS = [
    ("solve-measure", {**TILTED_MEASURE, "grid": [8, 16]}, {
        "solution.csv": "927f62814572964a43f86f759702fb6741b95e7e1b231ddda9ef2bf32d46850e",
        "surface.obj": "1a6e30a880ec4095e132ae9ad175a70f8cc66fe3d753de11c345c9602fb17356",
        "report.json": "13e5ad50ec0adf43fd25b6a1aed966799cb63e2d48c57a8b808b29d3e3a5d52f"}),
    ("solve-graph", cap_graph(2.0), {
        "solution.csv": "e20b512122b665f10c4bd83add0c6c96bfb15b251a471bd0f37e862a3bb5fd9c"}),
]


@pytest.mark.parametrize("mode, problem, digests", SOLVE_DIGESTS,
                         ids=[m for m, _, _ in SOLVE_DIGESTS])
def test_solver_payloads_are_pinned(tmp_path, mode, problem, digests):
    path = write_config(tmp_path, {"mode": mode, "problem": problem})
    out = tmp_path / "out"
    assert main([mode, "--config", path, "--out", str(out), "--quiet"]) == 0
    assert {name: sha256_file(str(out / name)) for name in digests} == digests


def test_step_underflow_report_is_pinned(tmp_path):
    # one Newton step per corrector never converges past t = 0: the partial
    # homotopy trace and the last rejected corrector are written byte for byte
    path = write_config(tmp_path, minimal_measure(
        grid=(8, 16), phi=TILTED_MEASURE["phi"], solver={"max_iter": 1}))
    out = tmp_path / "out"
    assert main(["solve-measure", "--config", path, "--out", str(out), "--quiet"]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["failure"]["cause"] == "step_underflow"
    assert sha256_file(str(out / "report.json")) == (
        "ebafb64ea9fc2cc2473dacd0bee85f62f7bf00353d157e2d042b5dc48047c5cd")


PARSE_FAULTS = [
    ("convergence-study",
     {"kind": "measure-homotopy", "grids": [[8, 16]],
      **TILTED_MEASURE, "operator": {"kind": "sigma_k", "k": 5}},
     None, "operator order k=5 out of range"),
    ("convergence-study",
     {"kind": "measure-homotopy", "grids": [[8, 16]], "p": 1.0, "phi": [[1.0, 0, 0, 0]]},
     None, "problem: missing required key 'operator'"),
    ("convergence-study",
     {"kind": "graph-manufactured", "grids": [[9, 9]], "ellipsoid": [1.0, 1.0, 1.0]},
     None, r"problem: unknown key\(s\) \['ellipsoid'\]"),
    ("convergence-study", {"kind": "ellipsoid-curvature", "grids": [[16, 32]]},
     {"tol": 1e-9}, r"solver: unknown key\(s\) \['tol'\]"),
    ("convergence-study", {"kind": "graph-bound-probe", "grids": [[9, 9]], "radius": 1.0},
     None, "problem.radius: cap domain exceeds its radius"),
    ("solve-graph", cap_graph(1.0), None, "problem.H.surface: cap domain exceeds its radius"),
    ("solve-graph", {**cap_graph(2.0), "k": 3}, None, "k=3 out of range"),
    ("solve-graph",
     {**cap_graph(2.0), "H": {"kind": "manufactured",
                              "surface": {"kind": "paraboloid", "alpha": 0.25}}},
     None, "problem.H.surface: manufactured surface leaves Gamma_2"),
]


@pytest.mark.parametrize("mode, problem, solver, match", PARSE_FAULTS)
def test_config_faults_stop_at_parse_time(tmp_path, mode, problem, solver, match):
    cfg = {"mode": mode, "problem": problem}
    if solver is not None:
        cfg["solver"] = solver
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError, match=match):
        parse_config(path)
    out = tmp_path / "out"
    assert main([mode, "--config", path, "--out", str(out), "--quiet"]) == 1
    assert not out.exists()


@pytest.mark.parametrize("problem", [
    {"kind": "measure-homotopy", "grids": [[8, 16]], **TILTED_MEASURE},
    {"kind": "graph-manufactured", "grids": [[9, 9]], "q": 0.5},
    {"kind": "graph-bound-probe", "grids": [[9, 9]], "q_list": [0.5]},
], ids=lambda p: p["kind"])
def test_convergence_study_passes_solver_block_on(tmp_path, problem):
    path = write_config(tmp_path, {"mode": "convergence-study", "problem": problem,
                                   "solver": {"tol": 1e-12, "max_iter": 1}})
    for case in parse_config(path).payload.cases:
        measure = problem["kind"] == "measure-homotopy"
        assert (case.schedule.newton_tol if measure else case.tol) == 1e-12
    out = tmp_path / "out"
    assert main(["convergence-study", "--config", path, "--out", str(out),
                 "--quiet"]) == 2
    assert (out / "study.csv").exists()


@pytest.mark.parametrize("problem, match", [
    ({"alpha_list": [0.5, -1.0]}, "problem.alpha_list: alpha values must be positive"),
    ({"alpha_list": [0.5, 0.5]}, "problem.alpha_list: alpha values must differ"),
    ({"sample_count": -1}, "problem.sample_count: sample_count must be nonnegative"),
    ({"pairs": [[3, 2], [2, 3]]}, r"problem.pairs \[2, 3\]: need 2 <= k <= n <= 8"),
])
def test_inequality_faults_name_their_key(tmp_path, problem, match):
    path = write_config(tmp_path, {"mode": "verify-inequalities",
                                   "problem": {"pairs": [[3, 2]], **problem}})
    with pytest.raises(ConfigError, match=match):
        parse_config(path)
    assert main(["verify-inequalities", "--config", path, "--out",
                 str(tmp_path / "out"), "--quiet"]) == 1


def test_inadmissible_graph_start_writes_its_failure(tmp_path):
    path = write_config(tmp_path, {"mode": "solve-graph", "problem": cap_graph(2.0),
                                   "solver": {"perturb_start": 10.0}})
    out = tmp_path / "out"
    assert main(["solve-graph", "--config", path, "--out", str(out), "--quiet"]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["failure"] == {"cause": "inadmissible_start", "t": None}
    assert report["newton"]["iterations"] == 0
    assert report["newton"]["message"] == "start point is not admissible"
    assert not (out / "solution.csv").exists()


def test_failed_first_corrector_writes_newton_and_homotopy(tmp_path, monkeypatch):
    from prescurv import measure_solver

    radius = measure_solver.initial_sphere_radius
    monkeypatch.setattr(measure_solver, "initial_sphere_radius",
                        lambda op, p: 1.5 * radius(op, p))
    path = write_config(tmp_path, minimal_measure(
        grid=(8, 16), phi=[[1.0, 0, 0, 0], [0.2, 0, 0, 1]], solver={"max_iter": 2}))
    out = tmp_path / "out"
    assert main(["solve-measure", "--config", path, "--out", str(out), "--quiet"]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["failure"] == {"cause": "max_iter", "t": 0.0}
    assert report["newton"]["iterations"] == 2
    assert len(report["newton"]["residual_history"]) == 3
    assert report["homotopy"] == {"success": False, "steps": [], "rejections": []}


def with_ivochkina(**entry):
    return {"pairs": [[3, 2]], "sample_count": 10,
            "ivochkina": [{"k": 2, "q": 0.0, **entry}]}


def with_inequality(**problem):
    return {"mode": "verify-inequalities",
            "problem": {"pairs": [[3, 2]], "sample_count": 10, **problem}}


# configs that once ended in a traceback, a hang or a wasted solve: each
# must stop with exit 1 before the output directory is made and name its
# key, or fail as a solve with exit 2
CLI_FAULTS = [
    ("solve-measure", minimal_measure(grid=(8, 16), solver={"tol": -1}), 1, "tol"),
    ("solve-measure", minimal_measure(grid=(8, 16), solver={"max_iter": 0}), 1, "max_iter"),
    ("solve-measure", minimal_measure(grid=(8, 16), solver={"dt_init": 0}), 1, "dt_init"),
    ("solve-measure", minimal_measure(grid=(8, 16), solver={"dt_init": -0.5}), 1, "dt_init"),
    ("solve-measure", minimal_measure(grid=(8, 16), solver={"dt_min": 0}), 1, "dt_min"),
    ("convergence-study",
     {"mode": "convergence-study", "solver": {"tol": 0.0},
      "problem": {"kind": "measure-homotopy", "grids": [[8, 16]], **TILTED_MEASURE}},
     1, "tol"),
    ("solve-graph",
     {"mode": "solve-graph", "problem": cap_graph(2.0), "solver": {"tol": -1}}, 1, "tol"),
    ("solve-graph",
     {"mode": "solve-graph", "problem": cap_graph(2.0), "solver": {"max_iter": 0}},
     1, "max_iter"),
    ("convergence-study",
     {"mode": "convergence-study", "solver": {"max_iter": 0},
      "problem": {"kind": "graph-bound-probe", "grids": [[9, 9]]}}, 1, "max_iter"),
    ("verify-inequalities",
     {"mode": "verify-inequalities", "problem": with_ivochkina(grid=8)},
     1, r"problem.ivochkina\[0\]: need at least 16"),
    ("verify-inequalities",
     {"mode": "verify-inequalities", "problem": with_ivochkina(k=9)},
     1, r"problem.ivochkina\[0\]: k=9 out of range"),
    ("verify-inequalities",
     {"mode": "verify-inequalities", "problem": with_ivochkina(k=0)},
     1, r"problem.ivochkina\[0\]: k=0 out of range"),
    ("verify-inequalities",
     {"mode": "verify-inequalities", "problem": with_ivochkina(p_box=0.0)},
     1, r"problem.ivochkina\[0\]: p_box"),
    ("verify-inequalities",
     {"mode": "verify-inequalities", "problem": with_ivochkina(p_box=math.inf)},
     1, r"problem.ivochkina\[0\]: p_box"),
    ("verify-inequalities",
     {"mode": "verify-inequalities", "problem": with_ivochkina(q=math.nan)},
     1, r"problem.ivochkina\[0\]: q must be finite"),
    ("verify-inequalities",
     {"mode": "verify-inequalities", "problem": with_ivochkina(q=math.inf)},
     1, r"problem.ivochkina\[0\]: q must be finite"),
    ("verify-inequalities",
     {"mode": "verify-inequalities", "problem": with_ivochkina(q=-math.inf)},
     1, r"problem.ivochkina\[0\]: q must be finite"),
    ("solve-graph",
     {"mode": "solve-graph", "problem": cap_graph(2.0), "solver": {"perturb_start": 10.0}},
     2, None),
    ("convergence-study",
     {"mode": "convergence-study",
      "problem": {"kind": "measure-homotopy", "grids": [[8, 16], [12, 24]], **TILTED_MEASURE}},
     1, r"problem.grids\[1\]: n_phi must be a multiple"),
    *[("solve-measure",
       minimal_measure(grid=(8, 16), solver={"method": "newton", "start_radius": r}),
       1, "solver.start_radius") for r in (-1.0, math.nan, math.inf, -math.inf)],
    *[("verify-inequalities", with_inequality(**{key: value}), 1, f"problem.{key}")
      for key in ("spectrum_box", "direction_scale")
      for value in ([1.0], [2.0, -1.0], [0, "a"], [0.0, math.nan])],
    ("verify-inequalities", with_inequality(spectrum_box=[-2.0, -1.0]), 1,
     "problem.spectrum_box: hi <= 0 leaves no spectrum"),
    *[("solve-measure", minimal_measure(grid=(8, 16), p=p), 1, "p must be finite")
      for p in (math.nan, math.inf, -math.inf)],
    ("verify-inequalities", with_inequality(alpha_list=[0.5, math.nan]), 1,
     "problem.alpha_list: alpha values must be positive and finite"),
    ("solve-measure", minimal_measure(grid=(8, 16), phi=[[1.0, 0, 0, 0], [math.nan, 0, 0, 1]]),
     1, "phi must be finite and positive"),
    ("solve-graph",
     {"mode": "solve-graph",
      "problem": {**cap_graph(2.0), "H": {"kind": "manufactured",
                                          "surface": {"kind": "cap", "radius": math.nan}}}},
     1, "problem.H.surface: manufactured surface leaves Gamma_2"),
    # integer keys: int() used to truncate 2.9 to 2 and accept a third grid entry
    ("solve-graph", {"mode": "solve-graph", "problem": {**cap_graph(2.0), "k": 2.9}}, 1,
     r"problem.k: expected an integer, got 2.9"),
    ("solve-graph", {"mode": "solve-graph", "problem": {**cap_graph(2.0), "grid": [9, 9.7]}}, 1,
     r"grid\[1\]: expected an integer, got 9.7"),
    ("solve-measure", {**minimal_measure(grid=(8, 16)), "problem": {
        **minimal_measure(grid=(8, 16))["problem"], "operator": {"kind": "sigma_k", "k": 1.5}}},
     1, r"problem.operator.k: expected an integer, got 1.5"),
    ("solve-measure", minimal_measure(grid=(8, 16, 99)), 1,
     r"problem.grid: expected two integers, got \[8, 16, 99\]"),
    ("solve-measure", {**minimal_measure(grid=(8, 16)), "seed": 1.5}, 1, "config.seed"),
    ("solve-measure", minimal_measure(grid=(8, 16), solver={"max_iter": 2.5}), 1,
     "solver.max_iter: expected an integer"),
    ("solve-measure", minimal_measure(grid=(8, "16")), 1, r"problem.grid\[1\]"),
    ("verify-inequalities", with_inequality(sample_count=10.5), 1,
     "problem.sample_count: expected an integer"),
    ("verify-inequalities", with_inequality(pairs=[[3, True]]), 1,
     r"problem.pairs .*: expected an integer, got True"),
    ("verify-inequalities", with_inequality(pairs=[[5, 3, 1]]), 1,
     "expected two integers"),
    ("verify-inequalities",
     {"mode": "verify-inequalities", "problem": with_ivochkina(k=2.5)},
     1, r"problem.ivochkina\[0\].k: expected an integer"),
    ("verify-inequalities",
     {"mode": "verify-inequalities", "problem": with_ivochkina(grid=33.5)},
     1, r"problem.ivochkina\[0\].grid: expected an integer"),
    ("convergence-study",
     {"mode": "convergence-study",
      "problem": {"kind": "graph-manufactured", "grids": [[9, 9]], "k": 1.5}},
     1, "problem.k: expected an integer"),
    # float keys and flags: float() and bool() used to take strings and bools
    ("verify-inequalities", with_inequality(spectrum_box="12"), 1,
     "problem.spectrum_box: expected a list of numbers, got '12'"),
    ("verify-inequalities", with_inequality(alpha_list="25"), 1,
     "problem.alpha_list: expected a list of numbers, got '25'"),
    ("verify-inequalities", with_inequality(spectrum_box=[True, 2]), 1,
     r"problem.spectrum_box\[0\]: expected a number, got True"),
    ("verify-inequalities",
     {"mode": "verify-inequalities", "problem": with_ivochkina(q=True)},
     1, r"problem.ivochkina\[0\].q: expected a number, got True"),
    ("verify-inequalities", with_inequality(write_records="no"), 1,
     "problem.write_records: expected true or false, got 'no'"),
    ("verify-inequalities", with_inequality(pairs=3), 1,
     r"problem.pairs: expected a list of \[n, k\] pairs, got 3"),
    ("solve-measure", minimal_measure(grid=(8, 16), solver={"tol": "1e-9"}), 1,
     "solver.tol: expected a number, got '1e-9'"),
    # surface fields: float() took "2" and true, and tuple indexing split "12"
    ("solve-graph",
     {"mode": "solve-graph", "problem": with_surface(center="12")}, 1,
     "problem.H.surface.center: expected two numbers, got '12'"),
    ("solve-graph",
     {"mode": "solve-graph", "problem": with_surface(radius="2")}, 1,
     "problem.H.surface.radius: expected a number, got '2'"),
    ("solve-graph",
     {"mode": "solve-graph", "problem": with_surface(offset=True)}, 1,
     "problem.H.surface.offset: expected a number, got True"),
    ("solve-graph",
     {"mode": "solve-graph", "problem": with_surface(tilt=[0.1, "0"])}, 1,
     r"problem.H.surface.tilt\[1\]: expected a number, got '0'"),
    ("convergence-study",
     {"mode": "convergence-study",
      "problem": {"kind": "graph-manufactured", "grids": [[9, 9]],
                  "surface": {"kind": "paraboloid", "alpha": "0.3"}}}, 1,
     "problem.surface.alpha: expected a number, got '0.3'"),
    # monomials: float() took "0.2" and int() truncated a power of 1.5
    ("solve-measure", minimal_measure(grid=(8, 16), phi=[[1.0, 0, 0, 0], ["0.2", 0, 0, 1]]),
     1, r"problem.phi\[1\]\[0\]: expected a number, got '0.2'"),
    ("solve-measure", minimal_measure(grid=(8, 16), phi=[[1.0, 0, 0, 0], [0.2, 0, 0, 1.5]]),
     1, r"problem.phi\[1\]\[3\]: expected an integer, got 1.5"),
    ("solve-measure", minimal_measure(grid=(8, 16), phi=[[1.0, 0, 0]]),
     1, r"problem.phi\[0\]: expected \[coef, i, j, k\]"),
    # keys that the chosen kind or method does not read used to be ignored
    ("solve-graph",
     {"mode": "solve-graph", "problem": {**cap_graph(2.0), "H": {
         **cap_graph(2.0)["H"], "terms": [[1.0, 0, 0, 0]]}}}, 1,
     r"problem.H \(kind 'manufactured'\): unknown key\(s\) \['terms'\]"),
    ("solve-graph",
     {"mode": "solve-graph", "problem": {**cap_graph(2.0), "boundary": {
         "kind": "surface", "terms": [[0.0, 0, 0, 0]]}}}, 1,
     r"problem.boundary \(kind 'surface'\): unknown key\(s\) \['terms'\]"),
    *[("solve-graph",
       {"mode": "solve-graph", "problem": {**cap_graph(2.0), "H": {
           "kind": "manufactured", "surface": surface}}}, 1,
       rf"problem.H.surface \(kind '{surface['kind']}'\): unknown key\(s\) \['{key}'\]")
      for surface, key in [({"kind": "paraboloid", "alpha": -0.25, "radius": 2.0}, "radius"),
                           ({"kind": "paraboloid", "alpha": -0.25, "tilt": [0.1, 0.0]}, "tilt"),
                           ({"kind": "cap", "radius": 2.0, "alpha": -0.25}, "alpha")]],
    ("solve-measure", {**minimal_measure(grid=(8, 16)), "problem": {
        **minimal_measure(grid=(8, 16))["problem"], "operator": {"kind": "sigma_k", "k": 2,
                                                                 "l": 1}}},
     1, r"problem.operator \(kind 'sigma_k'\): unknown key\(s\) \['l'\]"),
    *[("solve-measure", minimal_measure(grid=(8, 16), solver=solver), 1,
       rf"solver \(method '{method}'\): unknown key\(s\) \['{key}'\]")
      for method, key, solver in [
          ("homotopy", "start_radius", {"start_radius": 1.0}),
          ("homotopy", "start_radius", {"method": "homotopy", "start_radius": 1.0}),
          ("newton", "dt_init", {"method": "newton", "dt_init": 0.2}),
          ("newton", "dt_min", {"method": "newton", "dt_min": 1e-3})]],
    # JSON NaN and Infinity used to start Newton at a non-finite field (exit 2)
    *[("solve-graph", {"mode": "solve-graph", "problem": cap_graph(2.0),
                       "solver": {"perturb_start": v}}, 1,
       "solver.perturb_start must be finite") for v in (math.nan, math.inf, -math.inf)],
    # faults that used to print a Python message with no key, or none at all
    ("convergence-study", {"mode": "convergence-study",
                           "problem": {"kind": "ellipsoid-curvature", "grids": 5}}, 1,
     "problem.grids: expected a list of grids, got 5"),
    ("verify-inequalities", with_inequality(ivochkina=5), 1,
     "problem.ivochkina: expected a list of scans, got 5"),
    ("solve-graph", {"mode": "solve-graph", "problem": {**cap_graph(2.0), "domain": [-1, 1]}},
     1, r"problem.domain: expected four numbers, got \[-1, 1\]"),
    ("convergence-study",
     {"mode": "convergence-study",
      "problem": {"kind": "graph-manufactured", "grids": [[9, 9]], "domain": [-1, 1]}},
     1, r"problem.domain: expected four numbers"),
    ("convergence-study",
     {"mode": "convergence-study",
      "problem": {"kind": "ellipsoid-curvature", "grids": [[8, 16]], "ellipsoid": [1.0]}},
     1, r"problem.ellipsoid: expected three numbers, got \[1.0\]"),
    # overflowing boundary data made the output directory and failed the solve
    ("solve-graph",
     {"mode": "solve-graph", "problem": {**cap_graph(2.0), "boundary": {
         "kind": "poly", "terms": [[1e308, 2, 0, 0], [1e308, 0, 2, 0]]}}}, 1,
     "problem.boundary.terms: boundary data must be finite"),
    # study inputs that were named only as "problem", after a numpy warning
    *[("convergence-study",
       {"mode": "convergence-study",
        "problem": {"kind": "ellipsoid-curvature", "grids": [[8, 16]], "ellipsoid": axes}},
       1, "problem.ellipsoid: axes must be finite and nonzero")
      for axes in ([0.0, 1.0, 1.0], [math.nan, 1.0, 1.0])],
    ("convergence-study",
     {"mode": "convergence-study",
      "problem": {"kind": "structure-equations", "grids": [[8, 16]], "rho": [[-2.0, 0, 0, 0]]}},
     1, "problem.rho: rho must be positive"),
    # JSON 1e400 reads as inf
    ("solve-graph", {"mode": "solve-graph", "problem": {**cap_graph(2.0), "q": math.inf}}, 1,
     "problem.q must be finite"),
    ("convergence-study",
     {"mode": "convergence-study",
      "problem": {"kind": "graph-manufactured", "grids": [[9, 9]], "q": math.inf}},
     1, "problem.q must be finite"),
    ("convergence-study",
     {"mode": "convergence-study",
      "problem": {"kind": "graph-bound-probe", "grids": [[9, 9]], "q_list": [0.5, math.inf]}},
     1, r"problem.q_list\[1\] must be finite"),
    ("solve-measure", minimal_measure(grid=(8, 16), p=-2.0), 1, r"problem.p: k \+ p = 0"),
    # runs that would check nothing and exit 0
    ("verify-inequalities", with_inequality(alpha_list=[]), 1,
     "problem.alpha_list: need at least one alpha value"),
    ("convergence-study",
     {"mode": "convergence-study",
      "problem": {"kind": "graph-bound-probe", "grids": [[9, 9]], "q_list": []}},
     1, "problem.q_list must list at least one q"),
    ("verify-inequalities", with_inequality(pairs=[]), 1,
     "problem.pairs: no \\[n, k\\] pair and no ivochkina scan"),
    # the remaining fault branches of the parser
    ("solve-graph", {"mode": "nope", "problem": {}}, 1, "config: unknown mode 'nope'"),
    ("solve-graph", [1, 2], 1, "config: expected an object"),
    ("solve-measure", minimal_measure(grid=(8, 16), phi=3), 1,
     r"problem.phi: expected a list of \[coef, i, j, k\] monomials, got 3"),
    ("solve-graph", {"mode": "solve-graph", "problem": with_surface(kind="torus")}, 1,
     "problem.H.surface: unknown surface kind 'torus'"),
    ("solve-measure", minimal_measure(grid=(8, 16), solver={"method": "bfgs"}), 1,
     "solver.method must be 'homotopy' or 'newton'"),
    ("solve-graph", {"mode": "solve-graph", "problem": {**cap_graph(2.0), "H": {"kind": "table"}}},
     1, "problem.H.kind must be 'poly' or 'manufactured'"),
    ("solve-graph",
     {"mode": "solve-graph", "problem": {**cap_graph(2.0), "boundary": {"kind": "zero"}}}, 1,
     "problem.boundary.kind must be 'surface' or 'poly'"),
    ("convergence-study", {"mode": "convergence-study", "problem": {"kind": "nope"}}, 1,
     "problem.kind must be one of"),
    ("convergence-study", {"mode": "convergence-study",
                           "problem": {"kind": "ellipsoid-curvature", "grids": []}}, 1,
     "problem.grids must list at least one grid"),
    # measure-problem invariants that were printed without their key
    ("solve-measure", minimal_measure(grid=(8, 16), phi=[[1e308, 0, 0, 0], [1e308, 0, 0, 2]]),
     1, "problem.phi: phi must be finite and positive"),
    ("solve-measure", {**minimal_measure(grid=(8, 16)), "problem": {
        **minimal_measure(grid=(8, 16))["problem"], "operator": {"kind": "sigma_k", "k": 3}}},
     1, "problem.operator.k: operator order k=3 out of range"),
    # values that overflow in floating point: a manufactured H = sigma_k w^q
    # of inf used to solve nothing and exit 0, a huge p_box or ellipsoid axis
    # to end in an OverflowError traceback
    ("solve-graph", {"mode": "solve-graph", "problem": {**cap_graph(2.0), "q": 1e308}}, 1,
     r"problem.H.surface: manufactured H = sigma_2 w\^q is not finite"),
    ("convergence-study",
     {"mode": "convergence-study",
      "problem": {"kind": "graph-bound-probe", "grids": [[9, 9]], "q_list": [1e300]}},
     1, r"problem.radius: manufactured H = sigma_2 w\^q is not finite"),
    ("verify-inequalities",
     {"mode": "verify-inequalities", "problem": with_ivochkina(p_box=1e300)},
     1, r"problem.ivochkina\[0\]: p_box must be > 0 with n p_box\^2 finite"),
    ("convergence-study",
     {"mode": "convergence-study",
      "problem": {"kind": "ellipsoid-curvature", "grids": [[8, 16]], "ellipsoid": [1e200, 1, 1]}},
     1, r"problem.ellipsoid: axes must have finite nonzero 1/a\^2"),
]


@pytest.mark.parametrize("mode, cfg, code, match", CLI_FAULTS, ids=[
    "measure-tol", "measure-max_iter", "measure-dt_init-0", "measure-dt_init-neg",
    "measure-dt_min", "study-measure-tol", "graph-tol", "graph-max_iter",
    "study-probe-max_iter", "ivochkina-grid", "ivochkina-k9", "ivochkina-k0",
    "ivochkina-p_box-0", "ivochkina-p_box-inf", "ivochkina-q-nan", "ivochkina-q-inf",
    "ivochkina-q-neg-inf", "graph-perturb_start", "study-measure-grids-not-nested",
    *[f"measure-start_radius-{r}" for r in ("neg", "nan", "inf", "neg-inf")],
    *[f"{key}-{v}" for key in ("spectrum_box", "direction_scale")
      for v in ("one-value", "reversed", "not-a-number", "nan")],
    "spectrum_box-nonpositive", "measure-p-nan", "measure-p-inf", "measure-p-neg-inf",
    "alpha_list-nan", "measure-phi-nan", "graph-cap-radius-nan", "graph-k-2.9",
    "graph-grid-9.7", "measure-operator-k-1.5", "measure-grid-three-entries", "seed-1.5",
    "measure-max_iter-2.5", "measure-grid-string", "sample_count-10.5", "pair-bool",
    "pair-three-entries", "ivochkina-k-2.5", "ivochkina-grid-33.5", "study-graph-k-1.5",
    "spectrum_box-string", "alpha_list-string", "spectrum_box-bool", "ivochkina-q-bool",
    "write_records-string", "pairs-int", "measure-tol-string", "cap-center-string",
    "cap-radius-string", "cap-offset-bool", "cap-tilt-string", "paraboloid-alpha-string",
    "phi-coef-string", "phi-power-1.5", "phi-three-entries", "graph-manufactured-H-terms",
    "graph-surface-boundary-terms", "paraboloid-radius", "paraboloid-tilt", "cap-alpha",
    "measure-sigma_k-l", "homotopy-start_radius-default", "homotopy-start_radius",
    "newton-dt_init", "newton-dt_min", "graph-perturb_start-nan", "graph-perturb_start-inf",
    "graph-perturb_start-neg-inf", "grids-int", "ivochkina-int", "graph-domain-two-numbers",
    "study-domain-two-numbers", "ellipsoid-one-axis", "graph-boundary-overflow",
    "ellipsoid-axis-zero", "ellipsoid-axis-nan", "structure-rho-negative", "graph-q-inf", "study-q-inf",
    "q_list-inf", "measure-p-neg-2", "alpha_list-empty", "q_list-empty", "pairs-empty",
    "mode-unknown",
    "config-not-object", "phi-int", "surface-torus", "measure-method-bfgs", "H-kind-table",
    "boundary-kind-zero", "study-kind-unknown", "grids-empty", "measure-phi-overflow",
    "measure-operator-k-3", "graph-H-overflow", "probe-H-overflow", "ivochkina-p_box-overflow",
    "ellipsoid-axis-square-overflow"])
def test_faulty_configs_exit_without_traceback(tmp_path, capsys, mode, cfg, code, match):
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main([mode, "--config", path, "--out", str(out), "--quiet"]) == code
    if code == 1:
        assert not out.exists()
    if match is not None:
        assert re.search(f"config error: .*{match}", capsys.readouterr().err)


@pytest.mark.parametrize("mode, cfg", [
    ("solve-measure", minimal_measure(grid=(8, 16), phi=[[1e308, 0, 0, 0], [1e308, 0, 0, 2]])),
    ("convergence-study",
     {"mode": "convergence-study", "problem": {"kind": "ellipsoid-curvature",
                                               "grids": [[8, 16]], "ellipsoid": [1e-300, 1, 1]}}),
    ("convergence-study",
     {"mode": "convergence-study", "problem": {"kind": "ellipsoid-curvature", "grids": [[8, 16]],
                                               "ellipsoid": [1e200, 1e200, 1e200]}}),
], ids=["phi-overflow", "ellipsoid-axis-tiny", "ellipsoid-axes-huge"])
def test_overflowing_inputs_report_only_the_config_error(tmp_path, capsys, recwarn, mode, cfg):
    # an overflow that the finiteness check catches is no warning of its
    # own; pytest diverts warnings from stderr, so they are read from recwarn
    path = write_config(tmp_path, cfg)
    assert main([mode, "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert re.fullmatch(r"config error: problem\.\S+: [^\n]*\n", capsys.readouterr().err)
    assert not [str(w.message) for w in recwarn]


def test_overflowing_start_fails_with_a_strict_json_report(tmp_path, capsys, recwarn):
    # finite start heights whose derivatives overflow give a non-finite start
    # residual: refused before it is recorded, so report.json holds no NaN
    path = write_config(tmp_path, {"mode": "solve-graph", "problem": cap_graph(2.0),
                                   "solver": {"perturb_start": 1e300}})
    out = tmp_path / "out"
    assert main(["solve-graph", "--config", path, "--out", str(out), "--quiet"]) == 2

    def refuse(constant):
        raise ValueError(f"report.json holds {constant}")

    report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    assert report["failure"]["cause"] == "inadmissible_start"
    assert report["newton"]["residual_history"] == []
    assert report["newton"]["message"] == "start residual is not finite"
    assert "RuntimeWarning" not in capsys.readouterr().err
    assert not [str(w.message) for w in recwarn]


def test_overflowing_directions_are_inconclusive(tmp_path, recwarn):
    # directions too large for the sides in floating point give non-finite
    # margins, which are no failures of the bound
    path = write_config(tmp_path, with_inequality(direction_scale=[-1e308, 1e308]))
    out = tmp_path / "out"
    assert main(["verify-inequalities", "--config", path, "--out", str(out), "--quiet"]) == 0
    campaign, = json.loads((out / "summary.json").read_text())["campaigns"]
    assert campaign["hard_failures"] == campaign["implication_violations"] == []
    # 10 samples, each checked at the 4 default alphas
    assert campaign["counts"] == {f"{kind}/inconclusive": 40
                                  for kind in ("gll", "gll_sum3", "krylov")}
    assert not [str(w.message) for w in recwarn]


def test_hostile_spectrum_box_exits_as_a_config_error(tmp_path, capsys):
    # the box passes the parse-time checks, but Gamma_3 in dimension 5 meets
    # it too rarely for the rejection sampler: exit 1, not a traceback
    path = write_config(tmp_path, with_inequality(pairs=[[5, 3]], spectrum_box=[-2.0, 0.01]))
    out = tmp_path / "out"
    assert main(["verify-inequalities", "--config", path, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert re.search(r"config error: problem.spectrum_box: acceptance rate below", err)
    assert "Traceback" not in err
    assert not (out / "summary.json").exists()


def test_readme_json_configs_parse(tmp_path):
    # every config the README shows goes through the strict parser, so the
    # docs cannot drift from it; each mode has at least one example
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        blocks = re.findall(r"```json\n(.*?)```", fh.read(), re.S)
    modes = [parse_config(write_config(tmp_path, json.loads(block), f"readme{i}.json")).mode
             for i, block in enumerate(blocks)]
    assert set(modes) == set(MODES)


# without --quiet each mode prints a summary of what it did on stdout
SUMMARY_LINES = [
    ("solve-measure", minimal_measure(grid=(8, 16)),
     [r"solve-measure: residual_max=\d\.\d{3}e[+-]\d\d verified=True"]),
    ("solve-graph", {"mode": "solve-graph", "problem": cap_graph(2.0)},
     [r"solve-graph: ratio=\d+\.\d{6}"]),
    ("verify-inequalities",
     with_inequality(ivochkina=[{"k": 2, "q": -1.0}, {"k": 2, "q": 1.0}]),
     ["campaign n=3 k=2: clean", r"ivochkina k=2 q=-1.0: holds=True worst=\d\.\d{5}",
      r"ivochkina k=2 q=1.0: holds=False worst=-\d\.\d{5}"]),
    ("convergence-study",
     {"mode": "convergence-study",
      "problem": {"kind": "structure-equations", "grids": [[12, 24], [24, 48]]}},
     [r"12,24,[^,]+,n/a,[^,]+,n/a", r"24,48,[^,]+,\d\.\d{3},[^,]+,\d\.\d{3}"]),
]


@pytest.mark.parametrize("mode, cfg, lines", SUMMARY_LINES,
                         ids=[mode for mode, _, _ in SUMMARY_LINES])
def test_summary_printed_without_quiet(tmp_path, capsys, mode, cfg, lines):
    path = write_config(tmp_path, cfg)
    assert main([mode, "--config", path, "--out", str(tmp_path / "out")]) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == len(lines)
    for line, pattern in zip(out.splitlines(), lines):
        assert re.fullmatch(pattern, line), line
    assert "study aborted" not in err


def test_failing_study_reports_its_abort(tmp_path, capsys):
    path = write_config(tmp_path, {
        "mode": "convergence-study", "solver": {"max_iter": 1},
        "problem": {"kind": "graph-manufactured", "grids": [[9, 9]]}})
    out = tmp_path / "out"
    assert main(["convergence-study", "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == "study aborted: no convergence in 1 iterations"
    assert captured.out == ""
    assert (out / "study.csv").read_text() == "nx,ny,err_max,order\n"
