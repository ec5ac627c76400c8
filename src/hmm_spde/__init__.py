"""Multiscale solver for slow-fast stochastic reaction-diffusion systems.

The slow component of

    dX = (A X + F(X, Y)) dt
    dY = (1/eps) (B Y + G(X, Y)) dt + (1/sqrt(eps)) dW

is approximated by a coarse semi-implicit scheme whose reaction term is
estimated on the fly from short bursts of a fine-step chain for Y with X
frozen, instead of resolving the fast scale over the whole horizon.  Fields
live in the truncated sine eigenbasis of the Dirichlet Laplacian on (0, 1).
"""

from .spectral import (
    OperatorSpec,
    laplacian_spec,
    grid_points,
    apply_resolvent,
    apply_semigroup,
    fractional_norm,
    to_grid,
    to_spectral,
    h_norm,
    implicit_euler_step,
)
from .noise import (
    NoiseStreamKey,
    derive_key,
    draw_increments,
    standard_normals,
    mix_seed,
)
from .coefficients import (
    CoefficientSpec,
    eval_F,
    eval_G,
    check_strict_dissipativity,
    check_weak_dissipativity,
    validate_coefficients,
    preset,
    PRESET_NAMES,
)
from .micro import (
    MicroRunResult,
    step_replicas,
    contraction_factor,
    discrete_stationary_variances,
    run_micro,
)
from .averaging import (
    InvariantMeasureSpec,
    gaussian_nu,
    gaussian_shifted,
    gaussian_discrete,
    pointwise_variance,
    fbar_sampled,
    run_averaged,
    reference_solution,
    make_gaussian_fbar,
)
from .hmm import (
    HmmParams,
    CostReport,
    HmmRun,
    estimate_ftilde,
    run_hmm,
    choose_params,
    cost_compare,
)
from .direct import DirectRun, run_direct
from .experiments import (
    TestFunctional,
    SweepRow,
    RateReport,
    fit_loglog_slope,
    fit_semilog_slope,
    invariant_law_tau_sweep,
    macro_order_experiment,
    strong_error_experiment,
    warmup_bias_experiment,
    weak_error_experiment,
    averaging_experiment,
)

__version__ = "0.1.0"
