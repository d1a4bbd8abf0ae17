"""prescurv: solvers and a verification lab for prescribed-curvature equations.

Modules
-------
symmfunc        elementary symmetric function calculus and cone membership
polynomials     trivariate monomial-list polynomials: phi, H and boundary data
mat2            closed-form helpers for stacks of symmetric 2x2 matrices
sphere_geometry radial graphs over the sphere: grids, derivatives, curvature
newton_core     damped chord Newton and the multifrontal LU both solvers share
measure_solver  Newton + continuation solver for sigma_k(A) = <X,nu>^p phi(X)
graph_solver    Dirichlet solver for sigma_k(lambda) = H(x,g) w^{-q}
inequality_lab  randomized checks of the symmetric-function inequalities
reporting       CSV, JSON and manifest writers of the run payloads
errors          the package's exception types and the solver failure record
cli             JSON-config command line front end and report emission
"""

__version__ = "0.1.0"

from . import symmfunc  # noqa: F401
from .symmfunc import OperatorSpec, in_gamma_k, sigma, sigma_grad, sigma_hess_dir  # noqa: F401
