"""The benchmark's workloads: CLI configs built from the run seed.

Each workload is a list of configs that one fresh worker process runs in
order through ``prescurv.cli.parse_config`` and
``prescurv.cli.run``.  Only the inequality campaign draws random inputs,
so the seed only changes its sample streams.  The two solver problems are
fixed: the seed is echoed in their configs but no solver reads it.
"""

# Newton tolerance of the sphere solve; the output check holds the
# recomputed residual to the same figure.
SPHERE_TOL = 1e-9
SPHERE_GRID = (32, 64)
PHI_TILT = 0.2          # phi = 1 + PHI_TILT * x3

CAP_RADIUS = 2.0
GRAPH_Q = 0.5
GRAPH_LADDER = (17, 33, 65)

LAB_PAIRS = ((3, 2), (5, 3))
LAB_ALPHAS = (0.25, 0.5, 1.0, 2.0)
LAB_SAMPLES = 2500
# (q, expected to hold): the scan holds exactly for q <= 0
LAB_IVOCHKINA = ((-1.0, True), (1.0, False))


def sphere_homotopy(seed):
    return [{
        "mode": "solve-measure",
        "seed": seed,
        "problem": {
            "operator": {"kind": "sigma_k", "k": 2},
            "p": 1.0,
            "phi": [[1.0, 0, 0, 0], [PHI_TILT, 0, 0, 1]],
            "grid": list(SPHERE_GRID),
        },
        "solver": {"method": "homotopy", "tol": SPHERE_TOL, "dt_init": 0.1,
                   "dt_min": 1e-4},
    }]


def graph_dirichlet(seed):
    return [{
        "mode": "solve-graph",
        "seed": seed,
        "problem": {
            "domain": [-1, 1, -1, 1],
            "grid": [n, n],
            "k": 2,
            "q": GRAPH_Q,
            "H": {"kind": "manufactured",
                  "surface": {"kind": "cap", "radius": CAP_RADIUS}},
            "boundary": {"kind": "surface"},
        },
        "solver": {"tol": 1e-10, "perturb_start": 0.01},
    } for n in GRAPH_LADDER]


def lab_campaign(seed):
    return [{
        "mode": "verify-inequalities",
        "seed": seed,
        "problem": {
            "pairs": [list(p) for p in LAB_PAIRS],
            "sample_count": LAB_SAMPLES,
            "alpha_list": list(LAB_ALPHAS),
            "ivochkina": [{"k": 2, "q": q, "p_box": 3.0} for q, _ in LAB_IVOCHKINA],
            "write_records": True,
        },
    }]


WORKLOADS = {
    "sphere-homotopy": sphere_homotopy,
    "graph-dirichlet": graph_dirichlet,
    "lab-campaign": lab_campaign,
}
