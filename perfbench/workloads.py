"""Deterministic request lists for the two benchmark workloads.

A workload is a list of strata; every stratum holds interchangeable items of
about the same cost.  Pass ``r`` of a run sends one item from every stratum,
so each pass does the same mix of work whatever the seed.  The seed fixes a
permutation of every stratum (pass ``r`` takes its ``r``-th item, so
successive passes visit different items), the order of the requests in a
pass, and which requests carry a gauge seed.

The program receives only the generated argv lists.
"""

from __future__ import annotations

import random
from itertools import combinations

WORKLOADS = ("instances", "sweep-mot")

# the acceptance instance list: 14 forms, 248 (form, phi) rows
INSTANCE_FORMS = (
    "su(2,3)", "su(2,4)", "su(1,3)", "su*(6)", "sp(1,2)", "sp(2,2)",
    "so*(8)", "so(2,5)", "so(3,3)", "sl(3,C)", "compact-G2", "sl(3,R)",
    "EIII", "FII",
)

SWEEP_RANKS = (6, 7, 8)
# One whole-form request of dimension 91-136 takes 2-18 s on the seed code,
# so a sweep pass over them would not fit in one run.
SWEEP_MAX_DIM = 80


def phi_key(phi) -> str:
    """The report's spelling of a cross set: indices joined by '+', '-'
    for the empty set."""
    return "+".join(str(j) for j in sorted(phi)) if phi else "-"


def all_phis(rank: int):
    for k in range(rank + 1):
        yield from combinations(range(1, rank + 1), k)


def root_system_type(form: dict) -> tuple:
    return (form["family"], form["rank"], form["doubled"])


def sweep_forms(forms: dict) -> list[str]:
    """Whole-form sweep range: rank 6-8, dimension <= SWEEP_MAX_DIM, not
    compact.  A compact form has no real or complex characteristic roots,
    so it runs no chain search at all."""
    return sorted(n for n, f in forms.items()
                  if f["rank"] in SWEEP_RANKS and f["dim"] <= SWEEP_MAX_DIM
                  and f["label"] != "compact")


def strata(workload: str, forms: dict) -> list[list]:
    """The workload's strata, each a sorted list of items, in a fixed order.

    instances: items are (form, phi) rows, one stratum per (form, |phi|).
    sweep-mot: items are form names, one stratum per root system type,
    since the context build and the chain search cost follow the root
    system.
    """
    groups: dict[tuple, list] = {}
    if workload == "instances":
        for name in INSTANCE_FORMS:
            for phi in all_phis(forms[name]["rank"]):
                groups.setdefault((name, len(phi)), []).append((name, phi))
    elif workload == "sweep-mot":
        for name in sweep_forms(forms):
            groups.setdefault(root_system_type(forms[name]), []).append(name)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [sorted(groups[k]) for k in sorted(groups, key=str)]


def pass_requests(workload: str, seed: int, r: int, forms: dict) -> list[dict]:
    """The requests of pass ``r``: dicts with the argv and what the checker
    needs (form, check mode, the cross set or None for a whole form and whether
    the request carries a gauge seed).  Half the sweep-mot requests carry a
    seeded ``--gauge-seed``, so the sign gauge is on the measured path."""
    rng = random.Random(f"{workload}/{seed}")
    picks = []
    for stratum in strata(workload, forms):
        perm = list(stratum)
        rng.shuffle(perm)
        picks.append(perm[r % len(perm)])
    prng = random.Random(f"{workload}/{seed}/{r}")
    prng.shuffle(picks)

    out = []
    if workload == "instances":
        for name, phi in picks:
            out.append({"argv": ["--form", name, "--phi",
                                 ",".join(map(str, phi)), "--check", "all"],
                        "form": name, "check": "all", "phi": list(phi),
                        "gauged": False})
    else:
        gauged = set(prng.sample(range(len(picks)), len(picks) // 2))
        for k, name in enumerate(picks):
            argv = ["--form", name, "--check", "mot", "--no-golden"]
            if k in gauged:
                argv += ["--gauge-seed", str(prng.randrange(1, 2 ** 31))]
            out.append({"argv": argv, "form": name, "check": "mot",
                        "phi": None, "gauged": k in gauged})
    return out
