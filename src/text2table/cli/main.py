"""Command-line entry point: ``text2table <subcommand> ...``.

Parses arguments and dispatches to the ``cmd_*`` functions. :func:`main`
alone maps each error below to its exit code, and prints the error's own
text as a one-line message on stderr:

* code 2, the input: a bad config, spec, grid or alignment mode
  (``ConfigError``), a malformed dataset (``DataFormatError``), a record the
  model cannot lay out (``LayoutError``; ``train`` and ``decode`` refuse it
  alike, naming it), tables whose headers or key column do not line up
  (``HeaderMismatchError``, ``AlignmentError``), another input the command
  refuses (``DataError``), or a file it cannot read or write (any
  ``OSError``); ``train --resume`` with no ``latest.npz`` in the checkpoint
  directory is a ``ConfigError`` raised before any step, and makes no
  directory;
* code 3, the model: a checkpoint :func:`~text2table.model.load_checkpoint`
  refuses (``CheckpointError``): unreadable, mismatched, with a missing or
  mis-shaped parameter or optimizer array, or with metadata of the wrong
  type, for ``decode`` and ``train --resume`` alike; one a run cannot resume
  from (``ModelError``), a training run whose loss turns non-finite
  (``TrainingDiverged``), or a row count or logits that do
  (``NonFiniteCountError``, ``NonFiniteLogitsError``), named by the record
  whose decode gave them, whether ``decode`` decodes it or ``train`` and
  ``ablate`` evaluate on it.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from ..corpus import DataFormatError
from ..decoding import NonFiniteCountError, NonFiniteLogitsError
from ..metrics import AlignmentError, HeaderMismatchError
from ..model import CheckpointError, LayoutError
from ..training import TrainingDiverged
from .ablate import cmd_ablate
from .commands import DataError, ModelError, cmd_decode, cmd_eval, cmd_gen_data, cmd_train
from .runconfig import ConfigError


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="text2table", description="Generate corpora, train, decode, score and run ablation grids."
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus from a JSON spec")
    p.add_argument("spec")
    p.add_argument("out")
    p.set_defaults(run=lambda a: cmd_gen_data(a.spec, a.out))

    p = sub.add_parser("train", help="train a model from a JSON run config")
    p.add_argument("config")
    p.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue from the checkpoint directory's latest.npz, under the same run config but for training.steps",
    )
    p.set_defaults(run=lambda a: cmd_train(a.config, a.overrides, resume=a.resume))

    p = sub.add_parser("decode", help="decode a dataset's texts into tables")
    p.add_argument("checkpoint")
    p.add_argument("dataset")
    p.add_argument("out")
    p.add_argument("--config", help="JSON decoding config")
    p.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--trace", help="write per-table decode traces (JSON lines) here")
    p.set_defaults(
        run=lambda a: cmd_decode(a.checkpoint, a.dataset, a.out, a.config, a.overrides, a.trace)
    )

    p = sub.add_parser("eval", help="score predicted tables against gold tables")
    p.add_argument("pred")
    p.add_argument("gold")
    p.add_argument("--alignment", default="assignment")
    p.add_argument("--out", help="also write the JSON report here")
    p.add_argument("--force", action="store_true", help="score even if the corpus hashes differ")
    p.set_defaults(run=lambda a: cmd_eval(a.pred, a.gold, a.alignment, a.out, a.force))

    p = sub.add_parser("ablate", help="run a resumable ablation grid")
    p.add_argument("grid")
    p.add_argument("out_dir")
    p.set_defaults(run=lambda a: cmd_ablate(a.grid, a.out_dir))
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # the command's warnings are held back, under the filters as they are, and shown once it
    # ends, unless it exits 3: then the error line stands alone, not behind numpy's overflows
    try:
        with warnings.catch_warnings(record=True) as caught:
            return args.run(args)
    except (
        DataError, ConfigError, OSError, LayoutError, DataFormatError, AlignmentError, HeaderMismatchError
    ) as exc:
        print(f"text2table {args.command}: {exc}", file=sys.stderr)
        return 2
    except (ModelError, CheckpointError, TrainingDiverged, NonFiniteCountError, NonFiniteLogitsError) as exc:
        print(f"text2table {args.command}: {exc}", file=sys.stderr)
        caught.clear()
        return 3
    finally:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)


if __name__ == "__main__":
    sys.exit(main())
