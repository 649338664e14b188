"""Rule-based extraction over the generator's sentence templates: a
solvability oracle for the procedural corpora (tests assert it reconstructs
every gold table exactly)."""

from text2table.corpus import CorpusError, CorpusSpec
from text2table.table import Table

COLUMNS = {
    "keyvalue": ["name", "city", "age", "plan"],
    "lineitems": ["item", "qty", "price", "color"],
    "dependent": ["total", "item", "qty", "unit"],
}


def oracle_extract(spec: CorpusSpec, text: str) -> Table:
    """Reconstruct the gold table from generated text via the templates."""
    sentences = [s.strip() for s in text.split(" . ") if s.strip()]
    sentences = [s[:-2] if s.endswith(" .") else s for s in sentences]
    columns = COLUMNS.get(spec.task)
    if spec.task == "keyvalue":
        values: dict[str, str | None] = {c: None for c in columns}
        for s in sentences:
            w = s.split()
            if len(w) >= 4 and w[0] == "the" and w[2] == "is" and w[1] in values:
                values[w[1]] = " ".join(w[3:])
        return Table(list(columns), [[values[c] for c in columns]])

    if spec.task == "lineitems":
        rows = []
        for s in sentences:
            w = s.split()
            if len(w) >= 7 and w[:2] == ["the", "customer"] and w[2] in ("bought", "ordered"):
                qty = w[3]
                rest = w[4:]
                k = rest.index("for")
                pre = rest[:k]
                price = rest[k + 1]
                color = pre[0] if len(pre) == 2 else None
                item = pre[-1]
                cells = {"item": item, "qty": qty, "price": price, "color": color}
                rows.append([cells.get(c) for c in columns])
        return Table(list(columns), rows)

    if spec.task == "dependent":
        rows = []
        totals: dict[str, str] = {}
        for s in sentences:
            w = s.split()
            if len(w) >= 7 and w[:2] == ["they", "bought"] and "at" in w:
                k = w.index("at")
                cells = {"item": " ".join(w[3:k]), "qty": w[2], "unit": w[k + 1]}
                rows.append(cells)
            elif len(w) >= 7 and w[0] == "the" and w[-2:] == ["in", "total"] and "came" in w:
                k = w.index("came")
                totals[" ".join(w[1 : k - 1])] = w[k + 2]
        out = []
        for cells in rows:
            cells = dict(cells, total=totals.get(cells["item"]))
            out.append([cells.get(c) for c in columns])
        return Table(list(columns), out)

    raise CorpusError(f"no oracle for task {spec.task}")
