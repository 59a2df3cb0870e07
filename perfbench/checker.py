"""Correctness check of each benchmark request.

A request fails when it raises, exits non-zero (2 is a usage or data error;
1 is a golden mismatch, possible only with golden comparison on), prints
output that is not a report, or when any of its rows differs from the
reference rows recorded from the seed code in a field (form, phi,
finite_type, levi, mot, span, verdict) or in which rows there are.  A sign
gauge may flip the overall sign of a Levi form, so for a gauged request the
Levi classes are compared up to sign (Positive/Negative).  A
``--check mot`` row also fails when it claims concavity (finite type, a
non-empty cross set and the chain condition) while no reading of the golden
predicate expects it: the chain condition is only sufficient, so that would
break the sufficiency direction.  The golden expectations were recorded with
the reference rows, so the checker runs none of the program's code.

``instances`` rows are checked independently through golden parity (exit
code 0); the two ``--check mot`` workloads are regression-checked against
the references plus the one-sided sufficiency test.
"""

from __future__ import annotations

import json
import re

from workloads import phi_key

_SIGN = re.compile(r"Positive|Negative")


class Checker:
    def __init__(self, refs: dict):
        """refs: the reference_rows.json document."""
        self.fields = refs["fields"]
        self.rows = refs["rows"]
        # form -> the --check mot cross sets some golden reading expects
        # to be concave
        self.golden_concave = {f: set(keys) for f, keys
                               in refs["golden_concave"].items()}

    def problem(self, request: dict, result: dict) -> str | None:
        """None when the request's result is correct, else why not."""
        rc = result["rc"]
        if rc is None:
            return f"raised: {result['err']}"
        if rc != 0:
            return f"exit {rc}: {result['err'].strip()[:200]}"
        try:
            rows = json.loads(result["out"])["rows"]
        except (ValueError, KeyError, TypeError) as e:
            return f"unreadable report: {e}"
        form, check = request["form"], request["check"]
        ref = self.rows[check][form]
        want = ([phi_key(request["phi"])] if request["phi"] is not None
                else sorted(k for k in ref))
        got = {}
        for r in rows:
            if r.get("form") != form:
                return f"row for form {r.get('form')!r}, asked {form!r}"
            got[phi_key(r["phi"])] = r
        if sorted(got) != sorted(want):
            return f"rows {sorted(got)} != reference {sorted(want)}"
        for key in want:
            r = got[key]
            vals = [r[f] for f in self.fields]
            want_vals = list(ref[key])
            if request["gauged"]:
                k = self.fields.index("levi")
                vals[k] = _SIGN.sub("", vals[k])
                want_vals[k] = _SIGN.sub("", want_vals[k])
            if vals != want_vals:
                return f"{form} phi={key}: {vals} != reference {ref[key]}"
            if (check == "mot" and r["phi"] and r["finite_type"] and r["mot"]
                    and key not in self.golden_concave[form]):
                return (f"{form} phi={key}: chain condition holds but the "
                        f"golden predicate expects non-concave")
        return None

