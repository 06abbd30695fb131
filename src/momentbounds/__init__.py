"""Model-independent upper bounds for option prices from partial moment data.

The core construction: given the pairwise moments E[sqrt(a_m a_n)] of a
collection of positive assets and signed portfolio quantities, the supremum
price of the option on the portfolio is the sum of the positive eigenvalues
of a small symmetric matrix.  On top of that engine sit the closed-form
vanilla bound, partition refinements that converge toward a reference model,
FX cross-rate and caplet/swaption applications, and attainment diagnostics.
"""

from .engine import (
    BoundResult,
    BoundSweep,
    DEFAULT_TOLERANCES,
    MomentMatrix,
    PsdFactor,
    QuantityVector,
    Tolerances,
    factor_psd,
    positive_eigenvalue_bound,
    positive_eigenvalue_bounds,
    symmetric_eigenvalues,
)
from .moments import (
    AssetMoments,
    CorrelationMatrix,
    assemble_q,
    cross_term,
    root_variance_from_moments,
)
from .models import (
    BinomialModel,
    LognormalModel,
    bachelier_call_price,
    binomial_price,
    bs_call_price,
    bs_put_price,
    gauss_legendre,
    implied_lognormal_vol,
    implied_lognormal_vols,
    implied_normal_vol,
    implied_normal_vols,
    lognormal_partial_moment,
    lognormal_partial_moments,
    norm_cdf,
)
from .vanilla import (
    VanillaBoundCurve,
    check_decreasing_convex,
    implied_cdf,
    smile_curve,
    smile_curves,
    vanilla_bound,
    vanilla_bound_via_engine,
    vanilla_bounds,
    vanilla_put_bound,
)
from .partition import (
    ConditionalMoments,
    LinearPartition,
    PartitionKind,
    PartitionSpec,
    flat_conditional_moments,
    linear_conditional_moments,
    partition_moment_matrix,
    quadrature_partial_moment,
    refined_bound,
    refined_bounds,
)
from .markets import (
    AnnuityWeights,
    CapletScan,
    FxLegMoments,
    SwapCurveSlice,
    annuity_weights,
    caplet_bound,
    caplet_bound_result,
    caplet_cdf_scan,
    caplet_point_mass,
    cross_root_variance,
    fx_cross_bound,
)
from .attainment import (
    AttainmentReport,
    GlobalAttainmentCurve,
    binomial_calibrate,
    binomial_call_price,
    carr_madan_sqrt_moment,
    general_moment,
    implied_root_variance,
    implied_root_variance_curve,
    local_attainment_scan,
    optimal_angle,
)
from . import errors

__version__ = "0.1.0"
