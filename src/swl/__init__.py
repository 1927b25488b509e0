"""Coordinate spectral models for dyadic dilation and integer translation.

The library realizes two sparse coordinate models of L2(R) -- one
diagonalizing integer translation, one diagonalizing dyadic dilation --
for the exponential and Haar basis families, together with the
closed-form change-of-representation matrix between them, the group
action of words D^p T^q in either model, the Fourier-periodization model,
coordinate-level orthonormal-wavelet and scaling-function tests, and
quadrature-mirror filter tooling.  Every closed form is cross-validated
against a brute-force integration oracle.
"""

__version__ = "0.1.0"

from .core import (
    CheckReport,
    DilIndex,
    FCoordVec,
    GCoordVec,
    MINUS,
    PLUS,
    TransIndex,
    Window,
    coord_equal,
)
from .bases import (
    BasisFamily,
    EXPONENTIAL,
    FunctionSpec,
    HAAR,
    K_elem,
    L_elem,
    parse_function_spec,
)
from .quadrature import inner_product, inner_products, oracle_F_coords, oracle_G_coords
from .alpha import AlphaMatrix, f_from_g, g_from_f, transfer
from .group_action import act, shift_D, shift_T
from .fourier import (
    PeriodizedFourier,
    check_orthonormal_translates,
    check_scaling_hypotheses,
    haar_scaling_hat,
    multiplication_check,
    periodize,
    shannon_scaling_hat,
    shannon_wavelet_hat,
)
from .wavelet import (
    check_example_unit_interval,
    check_scaling_coordinate_identity,
    check_wavelet_completeness,
    check_wavelet_orthonormality,
)
from .filters import (
    LaurentPoly,
    check_filter_orthogonality,
    check_pair_conditions,
    construct_wavelet_coords,
    daubechies4,
    extract_two_scale,
    filter_action_on_coords,
    haar_filter,
    mirror_filter,
    reconstruct_scaling_coords,
    scaling_coords_from_filter,
)

__all__ = [name for name in dir() if not name.startswith("_")]
