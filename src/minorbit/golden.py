"""Golden predicates transcribed from the classification theorem's six
cases, parameterized by (p, q, l), plus the report comparator.

Ambiguous rows (the bare type-B clause and the so*(2l) parity labeling)
carry several candidate readings; a form passes when at least one reading
matches every parity row.  Rows with empty Phi (point orbits) and rows
failing finite type (outside the theorem's hypothesis) are excluded from
parity but still reported.
"""

from __future__ import annotations

import json

from .realform import SatakeDiagram


def _eval_predicate(doc: dict, params: dict, phi) -> bool:
    """The predicate `doc` on the cross set `phi`, any iterable of its
    simple indices, such as a report row's sorted `phi` list."""
    kind = doc["kind"]
    if kind == "always":
        return True
    if kind == "never":
        return False
    if kind == "su_ends":
        return {params["p"], params["q"]}.isdisjoint(phi)
    if kind == "cii_a":
        p, l = params["p"], params["p"] + params["q"]
        first = set(range(1, 2 * p - 1, 2)) | set(range(2 * p + 1, l + 1))
        second = set(range(1, 2 * p + 1, 2))
        return first.issuperset(phi) or second.issuperset(phi)
    if kind == "so_star_ends":
        l = params["l"]
        return {l - 1, l}.isdisjoint(phi)
    if kind == "eiii":
        return {3, 4, 5}.issuperset(phi)
    if kind == "fii":
        return {1, 2}.issuperset(phi)
    raise ValueError(f"unknown predicate kind {kind!r}")


# label -> (source case, readings)
_RULES = {
    "complex": (1, ({"kind": "always"},)),
    "compact": (1, ({"kind": "always"},)),
    "AII": (1, ({"kind": "always"},)),
    "AIIIb": (1, ({"kind": "always"},)),
    "BI": (1, ({"kind": "always"}, {"kind": "never"})),
    "BII": (1, ({"kind": "always"}, {"kind": "never"})),
    "CIIb": (1, ({"kind": "always"},)),
    "DI": (1, ({"kind": "always"},)),
    "DII": (1, ({"kind": "always"},)),
    "DIIIa": (4, ({"kind": "so_star_ends"}, {"kind": "always"})),
    "DIIIb": (1, ({"kind": "always"}, {"kind": "so_star_ends"})),
    "EII": (1, ({"kind": "always"},)),
    "EIV": (1, ({"kind": "always"},)),
    "EVI": (1, ({"kind": "always"},)),
    "EVII": (1, ({"kind": "always"},)),
    "EIX": (1, ({"kind": "always"},)),
    "AIIIa": (2, ({"kind": "su_ends"},)),
    "AIV": (2, ({"kind": "su_ends"},)),
    "CIIa": (3, ({"kind": "cii_a"},)),
    "EIII": (5, ({"kind": "eiii"},)),
    "FII": (6, ({"kind": "fii"},)),
    # split forms absent from every clause of the theorem
    "AI": (None, ({"kind": "never"},)),
    "CI": (None, ({"kind": "never"},)),
    "EI": (None, ({"kind": "never"},)),
    "EV": (None, ({"kind": "never"},)),
    "EVIII": (None, ({"kind": "never"},)),
    "FI": (None, ({"kind": "never"},)),
    "GI": (None, ({"kind": "never"},)),
}


def golden_table_doc(entries) -> dict:
    rows = []
    for e in entries:
        case, preds = _RULES[e.label]
        rows.append({"form": e.name, "label": e.label,
                     "params": dict(sorted(e.params.items())),
                     "source_case": case, "ambiguous": len(preds) > 1,
                     "predicates": list(preds)})
    return {"version": 1, "rows": rows}


_ROW_KEYS = frozenset(("form", "params", "predicates"))


def load_golden(path: str) -> dict:
    """The golden table at path, keyed by form name.  Raises ValueError
    unless the document has the shape {"rows": [{"form", "params",
    "predicates"}, ...]}, with a string form name and a nonempty list of
    predicate objects: a row with no reading could match no report row, and
    `compare_golden` reads its first reading.  Other keys of a row, such as
    the informational `label`, `source_case` and `ambiguous` that
    `golden_table_doc` writes, are kept but not read.  Raises
    ValueError too when two rows name the same form, which would leave the
    verdict to the order of the rows, and when a predicate, evaluated on
    the empty cross set, has an unknown kind or a param its row lacks or
    cannot use: so an error in `compare_golden` is a bug."""
    with open(path, "r") as fh:
        doc = json.load(fh)
    rows = doc.get("rows") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or not all(
            isinstance(row, dict) and row.keys() >= _ROW_KEYS
            and isinstance(row["form"], str)
            and isinstance(row["params"], dict)
            and isinstance(row["predicates"], list) and row["predicates"]
            and all(isinstance(p, dict) for p in row["predicates"])
            for row in rows):
        raise ValueError(f"{path} is not a golden table: expected "
                         f'{{"rows": [{{"form", "params", "predicates"}}, '
                         f'...]}} with a string form and at least one '
                         f'predicate per row')
    table = {}
    for row in rows:
        form = row["form"]
        if form in table:
            raise ValueError(f"{path} has two rows for form {form!r}")
        for pred in row["predicates"]:
            try:
                _eval_predicate(pred, row["params"], ())
            except (KeyError, TypeError, ValueError) as e:
                raise ValueError(f"{path}: predicate {pred} of form "
                                 f"{form!r} fails on params "
                                 f"{row['params']}: {e!r}") from None
        table[form] = row
    return table


def expected_values(row_doc: dict, diag: SatakeDiagram, phis) -> list[list[bool]]:
    """Per reading, the expected verdict for each phi."""
    out = []
    for pred in row_doc["predicates"]:
        out.append([_eval_predicate(pred, diag.params, p) for p in phis])
    return out


def compare_golden(rows: list[dict], golden_row: dict) -> dict:
    """Diff the report rows of one form (dicts with form, phi, finite_type,
    verdict) against that form's golden row.  Rows that are not parity rows
    get expected = match = None.  The readings are evaluated in order up to
    the first that matches the verdict of every parity row, which is
    selected; the parity rows get expected and match from it, or from
    reading 0 when none matches.  Returns {"pass", "reading", "parity_rows",
    "mismatches"}, with "reading" the selected index or None."""
    params, parity = golden_row["params"], []
    for r in rows:
        if r["finite_type"] and r["phi"]:
            parity.append(r)
        else:
            r["expected"] = r["match"] = None
    verdicts = [r["verdict"] for r in parity]
    reading = None
    for k, pred in enumerate(golden_row["predicates"]):
        values = [_eval_predicate(pred, params, r["phi"]) for r in parity]
        if k == 0:
            shown = values
        if values == verdicts:
            reading, shown = k, values
            break
    mismatches = []
    for v, r in zip(shown, parity):
        r["expected"], r["match"] = v, v == r["verdict"]
        if not r["match"]:
            mismatches.append({"form": r["form"], "phi": r["phi"],
                               "verdict": r["verdict"], "expected": v})
    return {"pass": reading is not None, "reading": reading,
            "parity_rows": len(parity), "mismatches": mismatches}
