"""Pluggable LLC-policy layer: registry-driven cache-mode controllers.

Importing this package registers the built-in policies:

========================  ====================================================
``static-shared``         address-indexed shared LLC (alias: ``shared``)
``static-private``        cluster-indexed private slices (alias: ``private``)
``paper-adaptive``        the paper's Rules #1–#3 controller
                          (alias: ``adaptive``)
``miss-rate-threshold``   windowed miss rate vs two thresholds
``hysteresis``            thresholds + consecutive-window dwell
``bandit``                epsilon-greedy over the two statics, rewarded by
                          per-program windowed IPC
``oracle-static``         best-of-both-statics via auxiliary probe runs
========================  ====================================================

``miss-rate-threshold`` is ``hysteresis`` at ``dwell=1`` under its own
parameter and rule names.

Resolve names through :func:`create_policy` / :func:`policy_class`,
validate parameters with :func:`canonical_policy_params`, parse CLI specs
(``name:k=v,...``) with :meth:`repro.config.PolicyConfig.from_spec`, and
list the registry with :func:`available_policies` (the ``repro policy
list`` verb).  These are methods of :data:`~repro.policy.base.POLICIES`,
an instance of the :class:`~repro.analysis.registry.Registry` that
placements, arrival processes and check rules use too, so policies share
their :class:`Param` schema and ``NAME[:k=v,...]`` grammar.  New policies
subclass :class:`LLCPolicy`, declare ``Param`` tuples and register with
the :func:`register_policy` decorator.  A dynamic policy installs one
controller per program, a subclass of
:class:`~repro.core.controller.ModeController` that adds only its
decision; a policy that decides every ``interval`` cycles subclasses
:class:`~repro.policy.interval.IntervalPolicy` and its
:class:`~repro.policy.interval.IntervalModeController` instead.  See
``docs/ARCHITECTURE.md`` ("Policy layer").
"""

from repro.analysis.registry import Param
from repro.policy.base import (
    LLCPolicy,
    PolicyStats,
    available_policies,
    canonical_policy_name,
    canonical_policy_params,
    create_policy,
    policy_class,
    register_policy,
)

# Importing the implementation modules populates the registry.
from repro.policy import static as _static  # noqa: F401  (registration)
from repro.policy import adaptive as _adaptive  # noqa: F401
from repro.policy import threshold as _threshold  # noqa: F401
from repro.policy import hysteresis as _hysteresis  # noqa: F401
from repro.policy import bandit as _bandit  # noqa: F401
from repro.policy import oracle as _oracle  # noqa: F401

__all__ = [
    "LLCPolicy",
    "Param",
    "PolicyStats",
    "available_policies",
    "canonical_policy_name",
    "canonical_policy_params",
    "create_policy",
    "policy_class",
    "register_policy",
]
