from .loop import (
    TRAINING_MODES,
    StepStats,
    Trainer,
    TrainingConfig,
    TrainingDiverged,
    build_source_batch,
    step_rng,
)
from .passes import (
    TrainingExample,
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
    "build_source_batch",
    "build_training_pass",
    "causal_stages",
    "prepare_example",
    "sample_permutation",
    "step_rng",
]
