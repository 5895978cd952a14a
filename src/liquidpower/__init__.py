"""Power measures, bribery and delegation-design solvers for liquid democracy.

Voters delegate their ballots along the arcs of a social network; whoever ends
up holding ballots (a *guru*) casts them as a block against a quota.  This
package computes how much a priori voting power each voter holds in such an
election, and solves several design problems on top of that: buying power
through delegation changes, maximizing the weight behind a target voter, and
balancing power across voters.
"""

import importlib.util
import sys

from .core import (
    SELF,
    DelegationForest,
    DelegationProfile,
    LiquidElection,
    SocialNetwork,
    build_forest,
    election_from_json,
    election_to_json,
    find_delegation_cycle,
    instance_digest,
    profile_to_json,
    validate,
)
from .errors import (
    ArcNotInNetwork,
    CycleInDelegations,
    IncompatibleOverlap,
    InstanceTooLargeForEnumeration,
    InvariantViolated,
    LiquidPowerError,
    MeasureNotSupported,
    NoFeasibleProfile,
    NonPositiveWeight,
    ParameterTooLarge,
    QuotaOutOfRange,
)

__version__ = "0.1.0"

__all__ = [
    "SELF",
    "SocialNetwork",
    "DelegationProfile",
    "DelegationForest",
    "LiquidElection",
    "validate",
    "build_forest",
    "find_delegation_cycle",
    "election_from_json",
    "election_to_json",
    "profile_to_json",
    "instance_digest",
    "LiquidPowerError",
    "CycleInDelegations",
    "ArcNotInNetwork",
    "QuotaOutOfRange",
    "NonPositiveWeight",
    "IncompatibleOverlap",
    "InstanceTooLargeForEnumeration",
    "ParameterTooLarge",
    "NoFeasibleProfile",
    "MeasureNotSupported",
    "InvariantViolated",
    "__version__",
]


def _lazy_submodule(name: str):
    """``liquidpower.<name>``, registered without running its code.

    The module is in ``sys.modules`` and an attribute of the package, as
    after a normal import, but its code runs on first attribute access.  A
    module that is already imported is returned as it is.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module
