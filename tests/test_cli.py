import csv
import io
import json
import os

import numpy as np
import pytest

from prescurv.cli import main, parse_config
from prescurv.errors import ConfigError
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
    assert rc.payload.tol == 1e-9
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
        raise AssertionError("GraphProblem built for a poly-H config")

    monkeypatch.setattr(cli, "GraphProblem", no_problem)
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
