import itertools

import numpy as np
import pytest

from text2table.corpus import CorpusSpec, generate
from text2table.metrics import (
    AlignmentError,
    AlignmentMode,
    HeaderMismatchError,
    score_corpus,
    score_tables,
)
from text2table.table import Table

ASSIGN = AlignmentMode.assignment()


def brute_force_best_correct(pred: Table, gold: Table) -> int:
    """Max total exact-match cells over all one-to-one row pairings."""
    headers = gold.headers
    pidx = [pred.headers.index(h) for h in headers]
    prows = [[r[j].strip() if r[j] is not None else None for j in pidx] for r in pred.rows]
    grows = [[c.strip() if c is not None else None for c in r] for r in gold.rows]
    n, m = len(prows), len(grows)
    best = 0
    small, large, swap = (range(n), range(m), False) if n <= m else (range(m), range(n), True)
    for combo in itertools.permutations(large, len(list(small))):
        total = 0
        for i, j in zip(small, combo):
            a, b = (prows[i], grows[j]) if not swap else (prows[j], grows[i])
            total += sum(1 for x, y in zip(a, b) if x is not None and y is not None and x == y)
        best = max(best, total)
    return best


def test_identity_scores_one():
    gold = Table(["a", "b"], [["1", None], ["2", "3"]])
    s = score_tables(gold, gold, ASSIGN)
    assert s.counts.precision == s.counts.recall == s.counts.f1 == 1.0
    assert (s.n_tables, s.n_row_count_exact) == (1, 1)


def test_precision_recall_formula():
    gold = Table(["a", "b", "c"], [["1", "2", "3"], ["4", "5", None]])  # 5 non-NULL
    pred = Table(["a", "b", "c"], [["1", "2", "x"], ["4", None, None]])  # 4 non-NULL, 3 correct
    s = score_tables(pred, gold, ASSIGN)
    assert s.counts.predicted == 4 and s.counts.gold == 5 and s.counts.correct == 3
    assert s.counts.precision == 0.75
    assert s.counts.recall == 0.6
    assert abs(s.counts.f1 - 2 * 0.75 * 0.6 / 1.35) < 1e-12


def test_assignment_beats_greedy_row_pairing():
    # greedy top-down pairing is suboptimal here; optimal assignment is not
    gold = Table(["a", "b"], [["x", "y"], ["x", "z"], ["q", "r"]])
    pred = Table(["a", "b"], [["x", "z"], ["x", "y"], ["q", "r"]])
    s = score_tables(pred, gold, ASSIGN)
    assert s.counts.correct == brute_force_best_correct(pred, gold) == 6


def test_assignment_matches_bruteforce_randomized():
    rng = np.random.default_rng(0)
    vals = ["1", "2", "3", None]
    for _ in range(120):
        n_p, n_g, m = rng.integers(0, 5), rng.integers(1, 5), rng.integers(1, 4)
        headers = [f"c{j}" for j in range(m)]
        pred = Table(headers, [[vals[rng.integers(4)] for _ in range(m)] for _ in range(n_p)])
        gold = Table(headers, [[vals[rng.integers(4)] for _ in range(m)] for _ in range(n_g)])
        s = score_tables(pred, gold, ASSIGN)
        assert s.counts.correct == brute_force_best_correct(pred, gold)


def test_micro_average_example():
    gold1 = Table(["a"], [["1"], ["2"]])
    pred1 = Table(["a"], [["1"]])
    gold2 = Table(["a"], [["7"]])
    pred2 = Table(["a"], [["7"]])
    agg = score_corpus([(pred1, gold1), (pred2, gold2)], ASSIGN)
    assert agg.counts.precision == 1.0
    assert abs(agg.counts.recall - 2 / 3) < 1e-12
    assert agg.count_accuracy == 0.5


def test_corpus_score_is_the_sum_of_its_table_scores():
    spec = CorpusSpec(task="lineitems", n_examples=6, rows_min=1, rows_max=3, null_rate=0.3, seed=4)
    golds = [rec.table for rec in generate(spec)]
    # every other prediction drops its last row; each blanks its first column
    preds = [Table(g.headers, [[None] + r[1:] for r in g.rows][: g.n_rows - i % 2]) for i, g in enumerate(golds)]
    scores = [score_tables(p, g, ASSIGN) for p, g in zip(preds, golds)]
    agg = score_corpus(list(zip(preds, golds)), ASSIGN)
    assert agg == scores[0] + scores[1] + scores[2] + scores[3] + scores[4] + scores[5]
    assert agg.counts.correct == sum(s.counts.correct for s in scores) > 0
    assert agg.n_tables == 6 and agg.n_row_count_exact == 3 and agg.count_accuracy == 0.5
    assert agg.report()["per_column"] == {h: c.report() for h, c in agg.per_column.items()}
    assert score_corpus([], ASSIGN).report()["n_tables"] == 0


def test_empty_pred_vs_nonempty_gold():
    s = score_tables(Table(["a"], []), Table(["a"], [["1"]]), ASSIGN)
    assert s.counts.precision == 0.0 and s.counts.recall == 0.0 and s.counts.f1 == 0.0
    assert s.count_accuracy == 0.0


def test_header_mismatch_lists_difference():
    with pytest.raises(HeaderMismatchError) as ei:
        score_tables(Table(["a", "x"], []), Table(["a", "y"], []), ASSIGN)
    assert ei.value.only_pred == ["x"] and ei.value.only_gold == ["y"]


def test_column_permutation_invariance():
    gold = Table(["a", "b"], [["1", "2"], [None, "3"]])
    pred = Table(["a", "b"], [["1", "x"], ["9", "3"]])
    base = score_tables(pred, gold, ASSIGN)
    swapped = Table(["b", "a"], [[r[1], r[0]] for r in pred.rows])
    s = score_tables(swapped, gold, ASSIGN)
    assert s.counts == base.counts


def test_identity_on_generated_tables():
    spec = CorpusSpec(task="lineitems", n_examples=25, rows_min=1, rows_max=4, seed=17)
    for rec in generate(spec):
        s = score_tables(rec.table, Table.from_dict(rec.table.to_dict()), ASSIGN)
        assert s.counts.f1 == 1.0


def test_correcting_a_cell_never_decreases_f1():
    from text2table.metrics.scoring import _align_rows, _normalized_rows

    rng = np.random.default_rng(5)
    vals = ["1", "2", "3", None]
    checked = 0
    for _ in range(120):
        m = int(rng.integers(1, 4))
        headers = [f"c{j}" for j in range(m)]
        n = int(rng.integers(1, 4))
        gold = Table(headers, [[vals[rng.integers(4)] for _ in range(m)] for _ in range(n)])
        pred = Table(headers, [[vals[rng.integers(4)] for _ in range(m)] for _ in range(n)])
        before = score_tables(pred, gold, ASSIGN).counts.f1
        # correct one wrong cell toward the gold value of its aligned row
        pairs = _align_rows(
            _normalized_rows(pred, headers), _normalized_rows(gold, headers), ASSIGN, headers
        )
        target = None
        for i, j in pairs:
            for col in range(m):
                if pred.rows[i][col] != gold.rows[j][col]:
                    target = (i, j, col)
                    break
            if target:
                break
        if target is None:
            continue
        i, j, col = target
        pred.rows[i][col] = gold.rows[j][col]
        after = score_tables(pred, gold, ASSIGN).counts.f1
        assert after >= before - 1e-12
        checked += 1
    assert checked >= 50


def test_keyed_alignment_matches_by_key_cell():
    gold = Table(["item", "qty"], [["pens", "3"], ["mugs", "7"]])
    pred = Table(["item", "qty"], [["mugs", "7"], ["pens", "9"]])  # rows permuted
    s = score_tables(pred, gold, AlignmentMode.keyed("item"))
    assert s.counts.correct == 3  # both keys + one qty
    # an unmatched pred row scores zero against nothing
    pred2 = Table(["item", "qty"], [["forks", "3"]])
    s2 = score_tables(pred2, gold, AlignmentMode.keyed("item"))
    assert s2.counts.correct == 0 and s2.counts.predicted == 2


def test_keyed_requires_existing_column():
    with pytest.raises(AlignmentError):
        score_tables(Table(["a"], []), Table(["a"], []), AlignmentMode.keyed("zz"))


def test_alignment_mode_parse():
    assert AlignmentMode.parse("assignment").mode == "assignment"
    assert AlignmentMode.parse("keyed:item") == AlignmentMode.keyed("item")
    with pytest.raises(AlignmentError):
        AlignmentMode.parse("keyed:")


def test_whitespace_trimmed_before_compare():
    gold = Table(["a"], [["hello world"]])
    pred = Table(["a"], [["  hello world "]])
    assert score_tables(pred, gold, ASSIGN).counts.f1 == 1.0
