"""Generalized matrix inverses and their verification toolkit.

Computes the Moore-Penrose, group, Drazin, DMP, MPD, CMP, MPDMP, core-EP
and CCE inverses of dense complex matrices, classifies matrices (EP,
core-EP, k-EP), evaluates the induced binary relations, and mechanically
checks the identities connecting all of these over fixtures and seeded
random ensembles, with an exact rational oracle for small inputs.

Each library module's `__all__` is its public API; the package re-exports
the eight lists below. `geninv.exact` and `geninv.cli` are not re-exported.
"""

from .kernel import *  # noqa: F401,F403
from .factor import *  # noqa: F401,F403
from .drazin import *  # noqa: F401,F403
from .inverses import *  # noqa: F401,F403
from .classify import *  # noqa: F401,F403
from .orders import *  # noqa: F401,F403
from .ensembles import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"
