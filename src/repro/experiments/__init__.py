"""The paper's experiment suite (§7 + Appendix A).

===========  =============================================  ==============
experiment   paper artefact                                  module
===========  =============================================  ==============
accuracy     Fig 3 (sum checker), Fig 5 (permutation)        accuracy
overhead     Table 5, §7.2 running-time paragraphs           overhead
scaling      Fig 4 (weak scaling overhead ratio)             scaling
volume       Table 1's communication claims                  volume
parameters   Table 2 (optimizer), Table 3 (configurations)   core.params
localization fault localization & repair accuracy (repo       localization
             extension past the paper's detect-only scope)
===========  =============================================  ==============
"""

from repro.experiments.accuracy import (
    AccuracyCell,
    detection_allowance,
    perm_checker_accuracy,
    perm_checker_accuracy_full,
    sum_checker_accuracy,
    sum_checker_accuracy_full,
)
from repro.experiments.overhead import OverheadEngine, OverheadRow
from repro.experiments.scaling import (
    ScalingPoint,
    measured_weak_scaling,
    modeled_weak_scaling,
)
from repro.experiments.localization import (
    LocalizationSummary,
    LocalizationTrial,
    run_localization_trials,
    summarize_trials,
)
from repro.experiments.volume import VolumeRow, checker_volume_table
from repro.experiments.report import format_table

__all__ = [
    "AccuracyCell",
    "detection_allowance",
    "perm_checker_accuracy",
    "perm_checker_accuracy_full",
    "sum_checker_accuracy",
    "sum_checker_accuracy_full",
    "OverheadEngine",
    "OverheadRow",
    "ScalingPoint",
    "measured_weak_scaling",
    "modeled_weak_scaling",
    "LocalizationSummary",
    "LocalizationTrial",
    "run_localization_trials",
    "summarize_trials",
    "VolumeRow",
    "checker_volume_table",
    "format_table",
]
