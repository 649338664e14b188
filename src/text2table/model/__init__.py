from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ModelConfig
from .layout import (
    GrammarMasks,
    LayoutError,
    LayoutInstance,
    LiveBlocks,
    PassLayout,
    TableTemplate,
    content_token_ids,
    instance_for_decoding,
    make_template,
)
from .transformer import DecoderBatch, TextToTableModel, collate_instances

__all__ = [
    "CheckpointError",
    "DecoderBatch",
    "GrammarMasks",
    "LayoutError",
    "LayoutInstance",
    "LiveBlocks",
    "ModelConfig",
    "PassLayout",
    "TableTemplate",
    "TextToTableModel",
    "collate_instances",
    "content_token_ids",
    "instance_for_decoding",
    "load_checkpoint",
    "make_template",
    "save_checkpoint",
]
