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
    causal_stages,
    prepare_example,
    sample_permutation,
)

__all__ = [
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
    "sample_permutation",
    "step_rng",
]
