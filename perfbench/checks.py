"""Answer checks that do not rely on the solver.

Everything here reads the instance text itself and uses only the
standard library, so a defect in the package cannot hide behind a check
built from the same code.  Each check returns a list of problems; an
empty list means the answer passed.
"""

from __future__ import annotations

import math

TOL = 1e-6


def parse_instance(text: str) -> tuple[list[int], list[int]]:
    """(left, right) endpoint lists indexed by vertex 1..n (index 0 unused)."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    n = int(lines[0])
    left, right = [0], [0]
    for ln in lines[1 : n + 1]:
        a, b = (int(x) for x in ln.split())
        left.append(min(a, b))
        right.append(max(a, b))
    return left, right


def overlaps(left, right, u: int, v: int) -> bool:
    """The adjacency rule: the intervals meet and neither contains the other."""
    return left[u] < left[v] < right[u] < right[v] or left[v] < left[u] < right[v] < right[u]


def nesting_height(left, right, vs) -> int:
    """Most intervals of vs that cover one point (the stack height)."""
    events = sorted([(left[v], 1) for v in vs] + [(right[v], -1) for v in vs])
    depth = best = 0
    for _, step in events:
        depth += step
        best = max(best, depth)
    return best


def _independent(left, right, vs) -> bool:
    vs = list(vs)
    return not any(
        overlaps(left, right, a, b) for k, a in enumerate(vs) for b in vs[k + 1 :]
    )


def greedy_clique(left, right) -> int:
    """Size of a clique grown greedily from every vertex (a lower bound on omega)."""
    n = len(left) - 1
    best = 1 if n else 0
    for s in range(1, n + 1):
        clique = [s]
        for v in sorted(range(1, n + 1), key=lambda u: left[u]):
            if v != s and all(overlaps(left, right, v, u) for u in clique):
                clique.append(v)
        best = max(best, len(clique))
    return best


def greedy_colors(left, right) -> int:
    """Colors used by first fit in left-endpoint order (an upper bound on chi)."""
    color = {}
    for v in sorted(range(1, len(left)), key=lambda u: left[u]):
        used = {color[u] for u in color if overlaps(left, right, u, v)}
        color[v] = next(c for c in range(1, len(used) + 2) if c not in used)
    return max(color.values(), default=0)


def check_color(left, right, out: dict) -> list[str]:
    n = len(left) - 1
    chi, chi_f, omega = out["chi"], out["chi_f"], out["omega"]
    colors = {int(v): c for v, c in out["coloring"].items()}
    problems = []
    if sorted(colors) != list(range(1, n + 1)):
        problems.append("coloring does not cover exactly the vertices")
        return problems
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if colors[u] == colors[v] and overlaps(left, right, u, v):
                problems.append(f"adjacent vertices {u} and {v} share color {colors[u]}")
                return problems
    if len(set(colors.values())) != chi:
        problems.append(f"coloring uses {len(set(colors.values()))} colors, chi is {chi}")
    if omega is None or omega > chi:
        problems.append(f"omega {omega} exceeds chi {chi}")
    if math.ceil(chi_f - TOL) > chi:
        problems.append(f"ceil(chi_f) {chi_f} exceeds chi {chi}")
    if omega is not None and omega < greedy_clique(left, right):
        problems.append(f"omega {omega} below a clique the check found")
    return problems


def check_relax(left, right, out: dict) -> list[str]:
    # chi_f lies between the clique number and the chromatic number
    chi_f = out["chi_f"]
    lo, hi = greedy_clique(left, right), greedy_colors(left, right)
    if not lo - TOL <= chi_f <= hi + TOL:
        return [f"chi_f {chi_f} outside [{lo}, {hi}]"]
    return []


def check_stacks(left, right, out: dict, height: int) -> list[str]:
    n = len(left) - 1
    plan = out["plan"]
    seen = sorted(v for stack in plan for v in stack)
    if seen != list(range(1, n + 1)):
        return ["plan is not a partition of the vertices"]
    problems = []
    for stack in plan:
        if not _independent(left, right, stack):
            problems.append(f"stack {stack} holds adjacent vertices")
        if nesting_height(left, right, stack) > height:
            problems.append(f"stack {stack} is higher than {height}")
    if len(plan) != out["stacks"]:
        problems.append(f"plan has {len(plan)} stacks, reported {out['stacks']}")
    if out["relaxation"] > out["stacks"] + TOL:
        problems.append("relaxation exceeds the stack count")
    return problems


def check_mwis(left, right, out: dict, weights: list[int]) -> list[str]:
    witness = out["set"]
    problems = []
    if not all(1 <= v < len(left) for v in witness) or len(set(witness)) != len(witness):
        return [f"witness {witness} is not a set of vertices"]
    if not _independent(left, right, witness):
        problems.append("witness is not independent")
    weight = sum(weights[v - 1] for v in witness)
    if abs(weight - out["value"]) > TOL:
        problems.append(f"witness weighs {weight}, reported {out['value']}")
    if out["value"] < max(weights + [0]) - TOL:
        problems.append("value is below the heaviest single vertex")
    return problems
