"""ipdyn: exact combinatorics of finite-sums sets, polynomial-exponent
group reductions, and finite-window subshift return-set experiments."""

from .intpoly import (
    IntegralPolynomial,
    NotIntegralPolynomial,
    PolynomialParseError,
    classify,
    essentially_distinct,
    parse_polynomial,
)
from .gammapoly import (
    GammaPolynomial,
    Ordering,
    PolySystem,
    ShiftCollision,
    Weight,
    WeightVector,
    compare,
    equivalent,
    parse_gamma_polynomial,
    parse_system,
    pet_chain,
    step1_reduce,
    step2_reduce,
    weight_vector,
)
from .ipsets import (
    FSTruncation,
    IPRingTruncation,
    WindowSet,
    enumerate_fs,
    hindman_search,
    ip_witness,
    restrict_to_ring,
    structure_classify,
    window_density,
)
from .dynamics import (
    CylinderSet,
    ReturnSet,
    SubstitutionSystem,
    chacon,
    lemma213_chain,
    minimality_probe,
    poly_return_set,
    power_return_set,
    product_return_set,
    recurrence_search,
    return_set,
)

__version__ = "0.1.0"
