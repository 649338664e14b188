from .loop import (
    StepStats,
    Trainer,
    TrainingConfig,
    TrainingDiverged,
    build_source_batch,
    step_rng,
)
from .passes import (
    TRAINING_MODES,
    TrainingExample,
    build_semi_templated_corpus_variant,
    build_training_pass,
    prepare_example,
)
from .permutation import PermutationPlan, causal_stages, row_major_order, sample_permutation

__all__ = [
    "PermutationPlan",
    "StepStats",
    "TRAINING_MODES",
    "Trainer",
    "TrainingConfig",
    "TrainingDiverged",
    "TrainingExample",
    "build_semi_templated_corpus_variant",
    "build_source_batch",
    "build_training_pass",
    "causal_stages",
    "prepare_example",
    "row_major_order",
    "sample_permutation",
    "step_rng",
]
