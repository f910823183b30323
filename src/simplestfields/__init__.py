"""Exact arithmetic for generalized simplest number field families.

Families of cyclic polynomials whose roots are permuted by a Moebius
transformation, their structural identities, integral bases of the fields
they generate, and the periodic repetition of those bases across the integer
parameter.
"""

from .family import (
    alternating_binomial_sum,
    companion_poly,
    disc_quadratic,
    discriminant_formula,
    discriminant_formula_t,
    family_poly,
    family_poly_at,
    specialize,
)
from .linalg import rat_matrix_inverse
from .numberfield import (
    FieldElt,
    NumberField,
    ParameterNotCoveredError,
    char_poly,
    field_elt,
    is_algebraic_integer,
    number_field,
)
from .numutil import largest_square_root_divisor, p_adic_valuation, three_free_part
from .orders import (
    Order,
    denominator_bound,
    integral_basis,
    order_discriminant,
    p_maximal_order,
    period_length_bound,
)
from .periodicity import (
    DUAL_DENOMINATOR_EXPONENT,
    FINAL_PERIOD_TABLE,
    PERIOD_BOUND_TABLE,
    dual_basis,
    dual_denominator_front,
    minimality_witness,
    period_scan,
    symbolic_dual_denominator,
)
from .poly import Poly, discriminant, resultant

__version__ = "0.1.0"

# The cyclotomic names load cyclo on first use (PEP 562): no CLI command but
# identities needs it, so importing the package does not compile it.
_CYCLO_NAMES = (
    "CycloElt",
    "CycloRing",
    "companion_ring",
    "companion_root",
    "cyclotomic_polynomial",
    "embed_root",
    "moebius_matrix_order",
    "sqrt_minus_three",
)


def __getattr__(name):
    if name not in _CYCLO_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import cyclo

    value = globals()[name] = getattr(cyclo, name)
    return value


def __dir__():
    return sorted({*globals(), *_CYCLO_NAMES})


__all__ = [
    "CycloElt",
    "CycloRing",
    "companion_ring",
    "companion_root",
    "cyclotomic_polynomial",
    "embed_root",
    "moebius_matrix_order",
    "sqrt_minus_three",
    "alternating_binomial_sum",
    "companion_poly",
    "disc_quadratic",
    "discriminant_formula",
    "discriminant_formula_t",
    "family_poly",
    "family_poly_at",
    "specialize",
    "rat_matrix_inverse",
    "FieldElt",
    "NumberField",
    "ParameterNotCoveredError",
    "char_poly",
    "field_elt",
    "is_algebraic_integer",
    "number_field",
    "largest_square_root_divisor",
    "p_adic_valuation",
    "three_free_part",
    "Order",
    "denominator_bound",
    "integral_basis",
    "order_discriminant",
    "p_maximal_order",
    "period_length_bound",
    "DUAL_DENOMINATOR_EXPONENT",
    "FINAL_PERIOD_TABLE",
    "PERIOD_BOUND_TABLE",
    "dual_basis",
    "dual_denominator_front",
    "minimality_witness",
    "period_scan",
    "symbolic_dual_denominator",
    "Poly",
    "discriminant",
    "resultant",
]
