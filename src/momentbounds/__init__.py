"""Model-independent upper bounds for option prices from partial moment data.

The core construction: given the pairwise moments E[sqrt(a_m a_n)] of a
collection of positive assets and signed portfolio quantities, the supremum
price of the option on the portfolio is the sum of the positive eigenvalues
of a small symmetric matrix.  On top of that engine sit the closed-form
vanilla bound, partition refinements that converge toward a reference model,
FX cross-rate and caplet/swaption applications, and attainment diagnostics.

The package re-exports each module's ``__all__``.
"""

from .engine import *  # noqa: F401,F403
from .moments import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .vanilla import *  # noqa: F401,F403
from .partition import *  # noqa: F401,F403
from .markets import *  # noqa: F401,F403
from .attainment import *  # noqa: F401,F403
from . import errors

__version__ = "0.1.0"
