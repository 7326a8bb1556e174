"""Fractional integration along light cones: kernels, operators, exponents.

The package is organized bottom-up:

* specialfn - gamma and Bessel-J evaluation with the split into a leading
  oscillation and a decaying remainder;
* kernel    - the unit-ball power kernel family, its spectral profile
  (Bessel series and Gauss-Jacobi quadrature of the density) and the
  main/remainder multiplier decomposition;
* fields    - sampled functions on periodic grids, the one Fourier-multiplier
  apply, and the binary interchange format;
* conop     - the fractional light-cone integral as one assembled
  (n+1)-dimensional symbol, with two independent spatial profiles
  (Bessel series, Gauss-Jacobi quadrature of the cone kernel);
* analysis  - norms, the weighted-inequality and composition-estimate
  checkers, empirical ratio statistics, and the exponent-region
  classifier;
* ensembles - the test-function families the experiments draw from;
* cli       - the `conewave` command-line driver.
"""

from .kernel import (
    KernelSpec,
    KernelValidityError,
    gamma_const,
    lambda_of,
    multiplier_split,
    omega_hat,
    omega_hat_jacobi,
    omega_physical,
)
from .fields import (
    Field,
    Grid,
    SeparableField,
    SpacetimeField,
    SpacetimeGrid,
    FieldFormatError,
    RadialSymbol,
    load_field,
    save_field,
)
from .conop import (
    RadialQuadrature,
    UnderResolvedWarning,
    convergence_check,
    symbol,
    symbol_applier,
)
from .analysis import (
    CaseBoundReport,
    ExponentPoint,
    InadmissibleParamsError,
    MixedNormSpec,
    RatioStats,
    Region,
    SteinWeissParams,
    TrendVerdict,
    boundedness_verdict,
    case_bound_check,
    classify_exponents,
    crucial_estimate_ratio,
    lp_norm,
    mixed_norms,
    mixed_norms_refined,
    necessary_window,
    ratio_ladder,
    ratio_probes,
    stein_weiss_measure,
    sw_derived_params,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
