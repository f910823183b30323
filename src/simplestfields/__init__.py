"""Exact arithmetic for generalized simplest number field families.

Families of cyclic polynomials whose roots are permuted by a Moebius
transformation, their structural identities, integral bases of the fields
they generate, and the periodic repetition of those bases across the integer
parameter.
"""

from .cyclo import (
    CycloElt,
    CycloRing,
    companion_ring,
    companion_root,
    cyclotomic_polynomial,
    embed_root,
    moebius_matrix_order,
    sqrt_minus_three,
)
from .family import (
    alternating_binomial_sum,
    companion_coeff,
    companion_poly,
    disc_quadratic,
    discriminant_formula,
    discriminant_formula_t,
    family_coeff,
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
    minimality_witness,
    period_scan,
    symbolic_dual_denominator,
)
from .poly import Poly, discriminant, resultant

__version__ = "0.1.0"

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
    "companion_coeff",
    "companion_poly",
    "disc_quadratic",
    "discriminant_formula",
    "discriminant_formula_t",
    "family_coeff",
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
    "minimality_witness",
    "period_scan",
    "symbolic_dual_denominator",
    "Poly",
    "discriminant",
    "resultant",
]
