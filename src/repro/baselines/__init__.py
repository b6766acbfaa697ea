"""Comparison algorithms from the paper's evaluation (Sec. VI).

All baselines share one calling convention: ``run(instance, **knobs)``
returns an :class:`~repro.baselines.common.BaselineResult` whose seed
group is budget-feasible.  As in the paper, every baseline is
(a) extended to respect per-(user, item) costs and
(b) augmented with CR-Greedy [39] to place its picks across the T
promotions, since none of them natively supports multiple promotions.
Each runner borrows the execution backend passed as ``backend=`` for
its sigma estimates; ``None`` runs them on a private serial backend.
"""

from repro.baselines.common import BaselineResult
from repro.baselines.bgrd import run_bgrd
from repro.baselines.hag import run_hag
from repro.baselines.ps import run_ps
from repro.baselines.drhga import run_drhga
from repro.baselines.opt import run_opt
from repro.baselines.classic import run_celf_greedy, run_degree, run_random
from repro.baselines.cr_greedy import assign_timings

__all__ = [
    "BaselineResult",
    "run_bgrd",
    "run_hag",
    "run_ps",
    "run_drhga",
    "run_opt",
    "run_celf_greedy",
    "run_degree",
    "run_random",
    "assign_timings",
]
