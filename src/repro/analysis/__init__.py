"""Static analyses: dominance, path conditions, sizes, consistency.

Taint analysis lives in :mod:`repro.statics.interproc`.
"""

from repro.analysis.array_sizes import infer_array_sizes, size_at_call_site
from repro.analysis.control_dependence import compute_control_dependence
from repro.analysis.data_consistency import (
    AccessClassification,
    ConsistencyReport,
    classify_data_consistency,
)
from repro.analysis.dominators import (
    DominatorTree,
    compute_dominators,
    compute_postdominators,
)
from repro.analysis.path_conditions import (
    BranchAtom,
    Formula,
    FormulaBudgetExceeded,
    PathConditions,
    compute_path_conditions,
)

__all__ = [
    "AccessClassification", "BranchAtom", "ConsistencyReport", "DominatorTree",
    "Formula", "FormulaBudgetExceeded", "PathConditions",
    "classify_data_consistency",
    "compute_control_dependence", "compute_dominators",
    "compute_path_conditions", "compute_path_conditions",
    "compute_postdominators", "infer_array_sizes", "size_at_call_site",
]
