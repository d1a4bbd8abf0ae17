"""Shared pytest hooks and helpers.

The acceptance tests register one line per criterion; printing them from
the terminal-summary hook keeps them visible in every capture mode.
"""

import numpy as np

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def dense_jacobian(cols, data):
    """The dense matrix of fd_jacobian's values data on the read table cols:
    J[r, c] sums row r's values at the slots that read c."""
    J = np.zeros((len(cols), len(cols)))
    np.add.at(J, (np.arange(len(cols)).repeat(cols.shape[1]), cols.ravel()), data.ravel())
    return J
