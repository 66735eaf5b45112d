"""qpl: exact q-series arithmetic, modular figurate numbers, partition
counting by independent routes, restricted divisor sums, and numeric theta
functions, with a verification harness that cross-checks everything."""

from .errors import (
    NotInvertibleError,
    OracleBoundError,
    OrderMismatchError,
    ParameterError,
)
from .series import QSeries, ZLaurentSeries, triple_pochhammer
from .figurate import (
    BoundaryClass,
    ModularParams,
    figurate,
    figurate_enumerate,
    gaussian_binomial,
    gnomon,
    pentagonal,
    signed_figurate_series,
)
from .partsets import PartSet, parse_part_set
from .partitions import (
    CountMode,
    DISTINCT,
    SIGNED_DISTINCT,
    SIGNED_UNRESTRICTED,
    UNRESTRICTED,
    at_most,
    bounded_mult_shift_identity,
    generate_partitions,
    gf_count,
    oracle_bound,
    oracle_count,
    oracle_table,
    partition_shift_identities,
    quotient_series,
    recursion_table,
    recursive_count_bounded_jbar,
    recursive_count_distinct_j,
    recursive_count_j,
    recursive_count_jbar,
    recursive_count_quotient,
)
from .divisors import (
    apostol_convolution_check,
    divisor_sum,
    divisor_sums,
    divisor_table,
    kim_identity_check,
    recursive_divisor_sums,
    shift_formula_divisor_sums,
)
from .reports import Mismatch, VerificationReport, compare_series
from .identities import (
    battery,
    interior_grid,
    verify_berger,
    verify_boundary_half,
    verify_hermite,
    verify_specialized,
    verify_sylvester,
    verify_triple_product,
)

__version__ = "0.1.0"

# qpl.theta is loaded on first use of it or of one of its names, so the
# exact commands do not pay for importing it (PEP 562)
_THETA_NAMES = frozenset(
    {
        "ThetaPoint",
        "aux_theta",
        "quasi_periodicity_residual",
        "theta_class",
        "theta_product",
        "theta_series",
    }
)


def __getattr__(name: str):
    if name == "theta" or name in _THETA_NAMES:
        import importlib

        theta = importlib.import_module(".theta", __name__)
        return theta if name == "theta" else getattr(theta, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ``from qpl import *`` still binds every public name, the theta ones included
__all__ = sorted({n for n in globals() if not n.startswith("_")} | _THETA_NAMES | {"theta"})
