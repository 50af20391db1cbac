"""stochcirc: intentionally stochastic digital circuits for Bayesian inference.

Combinational stochastic gates sample from conditional probability tables;
clocked transition circuits compose them into Gibbs samplers over factor
graphs, with an ultra-low-precision fixed-point energy core, a chromatic
parallel scheduler, lattice-MRF and Dirichlet-process-mixture applications,
and a spiking (first-spike race) equivalent implementation.
"""

from importlib import resources

__version__ = "0.1.0"


def fixture_path(name: str):
    """Path to a bundled example model file (e.g. 'three_var_fork.json')."""
    return resources.files("stochcirc").joinpath("fixtures", name)


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


def csv_text(header: str, rows) -> str:
    """A CSV artifact: the header line, then one line per row of fields, each
    as str() writes it, comma-separated; LF line endings and a trailing LF."""
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"
