"""Seeded constructors for recursion states on which a chosen rule fires.

Each family builds states with at most 12 active variables so that the
reference evaluator can enumerate them, applies its rule, and hands back
parent and children for the conservation check: the parent's value must
equal the sum (or product, for component splits) of the children's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import permutations, product

from x3hd.branching import (
    SemiIsolated,
    SevenNeighbourPattern,
    branch_four_neighbour,
    branch_high_degree_var,
    branch_semiisolated_2,
    branch_semiisolated_3,
    eliminate_semiisolated_1,
    find_config,
    pick_high_degree_var,
)
from x3hd.decompose import (
    balanced_bisection,
    branch_cut_variables,
    build_clause_graph,
    connected_components,
)
from x3hd.model import (
    PRISTINE,
    PairState,
    WeightTable,
    check_state,
    clause_unsatisfiable,
    from_dimacs,
)
from x3hd.oracle import state_eval
from x3hd.poly import ONE, ZERO, HDPoly
import x3hd.simplify
from x3hd.simplify import _Work, sum_private_pairs


def rewrite(st: PairState, method: str, *args) -> PairState | None:
    """st rewritten by one `_Work` method: thaw, call it, freeze; None when
    the method returns False (the state evaluates to zero)."""
    work = _Work(st)
    return None if getattr(work, method)(*args) is False else work.freeze()


def detect_unsat(st: PairState) -> bool:
    """True iff some clause cannot be satisfied on some side by any
    assignment that is consistent with that side's forced values."""
    return any(clause_unsatisfiable(cl, st.fixed) for cl in st.clauses)


def check_private_pair_sum(sample: int | None = None, seed: int = 0) -> int:
    """Check that summing out a private pair keeps the state's value, by
    `state_eval`, which shares no predicate with the solver. The clause
    over x, y, z = 1, 2, 3 takes every shape (3! orders times 4**3 sign
    pairs); for each, the forced values of x, y and z on both sides take
    every pattern (3**6) or `sample` of them drawn at random, and x's table
    is PRISTINE and tabled in turn. x also sits in an anchor clause with
    two tabled variables, so the clause is the only one summed out. Each
    shape starts from an empty `_PAIR_SHAPES`, so a key that left out a
    forced value would reuse another pattern's factors. Returns the number
    of states checked."""
    rng = random.Random(seed)
    table = (HDPoly({0: 2}), HDPoly({1: 3}), HDPoly({2: 5}), HDPoly({0: 7, 3: 1}))
    anchor = (4, 16, 20)
    patterns = list(product((None, 0, 1), repeat=6))
    checked = 0
    for order in permutations((1, 2, 3)):
        for signs in product(range(4), repeat=3):
            cl = tuple(4 * v + s for v, s in zip(order, signs))
            x3hd.simplify._PAIR_SHAPES.clear()
            for k, pattern in enumerate(patterns if sample is None else rng.sample(patterns, sample)):
                fixed = tuple(
                    {v: val for v, val in zip((1, 2, 3), side) if val is not None}
                    for side in (pattern[:3], pattern[3:])
                )
                for x_table in ((PRISTINE, table), (table, PRISTINE))[k % 2]:
                    weights = {1: x_table, 2: PRISTINE, 3: PRISTINE, 4: table, 5: table}
                    st = PairState((cl, anchor), fixed, ONE, weights)
                    got = sum_private_pairs(st)
                    assert got.clauses == (anchor,) and sorted(got.V) == [1, 4, 5], (cl, fixed)
                    assert state_eval(got) == state_eval(st), (cl, fixed, x_table)
                    checked += 1
    return checked


def pristine_weights(variables) -> dict[int, WeightTable]:
    return {v: PRISTINE for v in variables}


def lit(token) -> int:
    if token == "T":
        return 1
    if token == "F":
        return 0
    return from_dimacs(token)


def clause(*tokens) -> tuple[int, ...]:
    return tuple(lit(t) for t in tokens)


def formula_vars(cl) -> set[int]:
    """The variables of a clause in the formula encoding."""
    return {l >> 1 for l in cl if l >= 2}


def pair_clause(c1, c2=None) -> tuple[int, ...]:
    """The pair clause whose side 0 is the formula clause c1 and whose
    side 1 is c2 (c1 when omitted); the sides must align position by
    position on the same variable, or on constants."""
    c2 = c1 if c2 is None else c2
    if len(c1) != len(c2):
        raise ValueError(f"sides {c1} and {c2} differ in arity")
    out = []
    for l1, l2 in zip(c1, c2):
        if (l1 < 2) != (l2 < 2) or (l1 >= 2 and l1 >> 1 != l2 >> 1):
            raise ValueError(f"sides {c1} and {c2} are misaligned")
        out.append(4 * (l1 >> 1) + 2 * (l2 & 1) + (l1 & 1))
    return tuple(out)


def mkstate(phi1, phi2=None, extra_vars=(), fixed=({}, {})) -> PairState:
    """A state over the formula-encoded sides phi1 and phi2 (phi1 when
    omitted), with the per-side forced values `fixed` and pristine
    weights."""
    phi2 = phi1 if phi2 is None else phi2
    if len(phi1) != len(phi2):
        raise ValueError("the sides differ in clause count")
    clauses = tuple(pair_clause(tuple(c1), tuple(c2)) for c1, c2 in zip(phi1, phi2))
    variables = set(extra_vars)
    for cl in phi1:
        variables |= formula_vars(cl)
    st = PairState(
        clauses=clauses,
        fixed=(dict(fixed[0]), dict(fixed[1])),
        p_main=ONE,
        weights=pristine_weights(sorted(variables)),
    )
    check_state(st)
    return st


def resign(cl, rng) -> tuple[int, ...]:
    """Randomise literal signs; variables and positions stay put."""
    return tuple(l if l < 2 else (l & ~1) | rng.randrange(2) for l in cl)


def renamed(clauses, mapping):
    return [
        tuple(l if l < 2 else 2 * mapping[l >> 1] + (l & 1) for l in cl)
        for cl in clauses
    ]


def build_paired(base, rng, extra_vars=()):
    """Encode a clause list, rename variables by a random permutation and
    draw independent literal signs for the two sides."""
    encoded = [clause(*cl) for cl in base]
    variables = sorted(set().union(*(formula_vars(c) for c in encoded)) | set(extra_vars))
    perm = list(range(1, len(variables) + 1))
    rng.shuffle(perm)
    mapping = dict(zip(variables, perm))
    encoded = renamed(encoded, mapping)
    phi1 = [resign(cl, rng) for cl in encoded]
    phi2 = [resign(cl, rng) for cl in encoded]
    return mkstate(phi1, phi2, extra_vars=[mapping[v] for v in extra_vars]), mapping


def fuzz_weights(st: PairState, rng, prob=0.5, transposable=False) -> PairState:
    """Replace some pristine weight tables with small arbitrary polynomials,
    as happens mid-recursion after links and block eliminations; with
    `transposable`, each new table's entries (0, 1) and (1, 0) are equal, as
    in a symmetric state."""
    weights = dict(st.weights)
    for v in sorted(weights):
        if rng.random() >= prob:
            continue
        table = []
        for _ in range(4):
            kind = rng.random()
            if kind < 0.7:
                coeff, degree = rng.randint(1, 3), rng.randint(0, 2)
                table.append(HDPoly({degree: coeff}))
            elif kind < 0.95:
                table.append(HDPoly({0: rng.randint(1, 2), rng.randint(1, 2): 1}))
            else:
                table.append(ZERO)
        if transposable:
            table[2] = table[1]
        weights[v] = tuple(table)
    return replace(st, weights=weights)


def fuzz_one_sided_values(st: PairState, rng, prob=0.25) -> PairState:
    """Record a forced value on one side for a single variable, keeping the
    state clean for the higher-priority rules."""
    if rng.random() >= prob or not st.V:
        return st
    v = rng.choice(sorted(st.V))
    side = rng.randrange(2)
    value = rng.randrange(2)
    fixed = (dict(st.fixed[0]), dict(st.fixed[1]))
    fixed[side][v] = value
    cand = replace(st, fixed=fixed)
    return cand if not detect_unsat(cand) else st


@dataclass
class RuleCase:
    rule: str
    parent: PairState
    children: list
    combine: str  # "sum" | "product"


def _filler(rng, start, count=1):
    """Variable-disjoint 3-clauses to pad a state; returns clause list."""
    out = []
    v = start
    for _ in range(count):
        out.append([v, v + 1, v + 2])
        v += 3
    return out


def case1_i(seed: int) -> RuleCase:
    rng = random.Random(seed)
    variant = rng.randrange(4)
    if variant == 0:
        bad = ["F", "F", "F"]
    elif variant == 1:
        bad = ["T", "T", 1]
    elif variant == 2:
        bad = ["T", 1, -1]
    else:
        bad = [1, 1]  # (x, x) cannot hit exactly one
    base = [[2, 3, 4]]
    phi1 = [clause(*bad)] + [clause(*cl) for cl in base]
    phi2 = [resign(cl, rng) for cl in phi1]
    # resigning can make the side-2 copy satisfiable; side 1 already dies
    st = mkstate(phi1, phi2)
    st = fuzz_weights(st, rng)
    assert detect_unsat(st)
    return RuleCase("case1_i", st, [], "sum")


def case1_i_conflict(seed: int) -> RuleCase:
    rng = random.Random(seed)
    st, mapping = build_paired([[1, 2, 3], [4, 5, 6]], rng)
    lits = [p for p in st.clauses[0] if p >= 4][:2]
    f0 = dict(st.fixed[0])
    for p in lits:
        f0[p >> 2] = 1 ^ (p & 1)  # both literals true on side 0: exactly-one impossible
    st = replace(st, fixed=(f0, st.fixed[1]))
    st = fuzz_weights(st, rng)
    assert detect_unsat(st)
    return RuleCase("case1_i", st, [], "sum")


def case1_ii(seed: int) -> RuleCase:
    """Three variants by seed: a variable in no clause, one in no clause
    but forced on one side (its two allowed weight entries are summed),
    and one determined on both sides."""
    rng = random.Random(seed)
    st, mapping = build_paired([[1, 2, 3], [3, 4, 5]], rng, extra_vars=(6,))
    st = fuzz_weights(st, rng)
    variant = seed % 3
    if variant < 2:
        x = mapping[6]
        if variant == 1:
            fixed = (dict(st.fixed[0]), dict(st.fixed[1]))
            fixed[rng.randrange(2)][x] = rng.randrange(2)
            st = replace(st, fixed=fixed)
        child = rewrite(st, "fold", {x})
    else:
        x = mapping[rng.randint(1, 5)]
        i, j = rng.randrange(2), rng.randrange(2)
        st = replace(st, fixed=(st.fixed[0] | {x: i}, st.fixed[1] | {x: j}))
        child = rewrite(st, "assign", x, i, j)
    return RuleCase("case1_ii", st, [child], "sum")


_SMALL_SHAPES = [
    [1, 2],
    ["F", 1, 2],
    ["T", 1, 2],
    [1, 1, 2],
    [1, -1, 2],
    [1, -1],
    [1, 1],
    [1],
    ["F", 1],
    ["T", "F", 1],
    [1, -1, -1],
    ["T", "F", "F"],
]


def case1_iii(seed: int) -> RuleCase:
    rng = random.Random(seed)
    shape = _SMALL_SHAPES[seed % len(_SMALL_SHAPES)]
    small1 = resign(clause(*shape), rng)
    small2 = resign(small1, rng)
    if small1 and small1[0] < 2 and rng.random() < 0.5:
        small2 = (small2[0] ^ 1,) + small2[1:]  # constants may differ per side
    base = [clause(*cl) for cl in [[3, 4, 5], [5, 6, 7]]]
    phi1 = [small1] + base
    phi2 = [small2] + [resign(cl, rng) for cl in base]
    st = fuzz_weights(mkstate(phi1, phi2), rng)
    st = fuzz_one_sided_values(st, rng)
    if detect_unsat(st):
        return RuleCase("case1_i", st, [], "sum")
    child = rewrite(st, "apply_small", 0)
    return RuleCase("case1_iii", st, [child] if child is not None else [], "sum")


def case1_iv(seed: int) -> RuleCase:
    rng = random.Random(seed)
    base = [[1, 2, 3], [1, 2, 4], [5, 6, 7]]
    st, mapping = build_paired(base, rng)
    st = fuzz_weights(st, rng)
    st = fuzz_one_sided_values(st, rng)
    if detect_unsat(st):
        return RuleCase("case1_i", st, [], "sum")
    child = rewrite(st, "resolve_pair", 0, 1)
    return RuleCase("case1_iv", st, [child] if child is not None else [], "sum")


def case1_v(seed: int) -> RuleCase:
    rng = random.Random(seed)
    base = [[1, 2, 3], [1, 4, 5], [1, 6, 7], [1, 8, 9]]
    st, mapping = build_paired(base, rng)
    st = fuzz_weights(st, rng)
    st = fuzz_one_sided_values(st, rng)
    x = pick_high_degree_var(st)
    assert x == mapping[1]
    children = branch_high_degree_var(st, x, debug=True)
    return RuleCase("case1_v", st, children, "sum")


_VI_CORE = [[1, 2, 3], [1, 4, 5], [-1, 6, 7], [2, 4, 6], [3, 5, 7]]
# clause roles: (x,y,z), (x,a,b), (~x,c,d), (y,a,c), (z,b,d); with
# x,y,z,a,b,c,d = 1,2,3,4,5,6,7 every neighbour of the first clause stays
# inside the block, so the detector falls through to block extraction.


def case1_vi1(seed: int) -> RuleCase:
    rng = random.Random(seed)
    base = list(_VI_CORE)
    if rng.random() < 0.6:
        base.append([6, 8, 9])  # boundary through c only
    st, mapping = build_paired(base, rng)
    st = fuzz_weights(st, rng)
    st = fuzz_one_sided_values(st, rng)
    config = find_config(st)
    assert isinstance(config, SemiIsolated) and len(config.J) <= 1, config
    child = eliminate_semiisolated_1(st, config)
    return RuleCase("case1_vi1", st, [child], "sum")


def case1_vi2(seed: int) -> RuleCase:
    rng = random.Random(seed)
    base = _VI_CORE + [[6, 8, 9], [7, 9, 10]]
    st, mapping = build_paired(base, rng)
    st = fuzz_weights(st, rng)
    st = fuzz_one_sided_values(st, rng)
    config = find_config(st)
    assert isinstance(config, SemiIsolated) and len(config.J) == 2, config
    children = branch_semiisolated_2(st, config, debug=True)
    return RuleCase("case1_vi2", st, children, "sum")


def case1_vi3(seed: int) -> RuleCase:
    rng = random.Random(seed)
    # (y,a,c) and (z,b,e) leave one fresh block variable e; boundary c,d,e
    base = [[1, 2, 3], [1, 4, 5], [-1, 6, 7], [2, 4, 6], [3, 5, 8],
            [6, 9, 10], [7, 10, 11], [8, 11, 9]]
    st, mapping = build_paired(base, rng)
    st = fuzz_weights(st, rng)
    st = fuzz_one_sided_values(st, rng)
    config = find_config(st)
    assert isinstance(config, SemiIsolated) and len(config.J) == 3, config
    children = branch_semiisolated_3(st, config, debug=True)
    return RuleCase("case1_vi3", st, children, "sum")


def case1_vii(seed: int) -> RuleCase:
    rng = random.Random(seed)
    if seed % 3 == 0:
        base = [[1, 2, 3], [1, 4, 5], [-1, 6, 7], [2, 8, 9], [-2, 10, 11]]
    elif seed % 3 == 1:
        base = [[1, 2, 3], [1, 4, 5], [-1, 6, 7], [2, 8, 9], [3, 10, 11]]
    else:
        # one neighbour reuses block variables, the other brings two fresh
        base = [[1, 2, 3], [1, 4, 5], [-1, 6, 7], [2, 4, 6], [-2, 8, 9]]
    st, mapping = build_paired(base, rng)
    st = fuzz_weights(st, rng)
    st = fuzz_one_sided_values(st, rng)
    config = find_config(st)
    assert isinstance(config, SevenNeighbourPattern) and not config.generic, config
    children = branch_four_neighbour(st, config, debug=True)
    return RuleCase("case1_vii", st, children, "sum")


def case2_split(seed: int) -> RuleCase:
    rng = random.Random(seed)
    ring = [[1, 7, 2], [2, 8, 3], [3, 9, 4], [4, 10, 5], [5, 11, 6], [6, 12, 1]]
    st, mapping = build_paired(ring, rng)
    st = fuzz_weights(st, rng)
    st = fuzz_one_sided_values(st, rng)
    graph = build_clause_graph(st, debug=True)
    bisection = balanced_bisection(graph, seed=seed)
    children = branch_cut_variables(st, bisection)
    return RuleCase("case2_split", st, children, "sum")


def component_split(seed: int) -> RuleCase:
    rng = random.Random(seed)
    two_rings = [[1, 4, 2], [2, 5, 3], [3, 6, 1],
                 [7, 10, 8], [8, 11, 9], [9, 12, 7]]
    st, mapping = build_paired(two_rings, rng)
    st = fuzz_weights(st, rng)
    st = fuzz_one_sided_values(st, rng)
    comps = connected_components(st)
    assert len(comps) == 2
    return RuleCase("component_split", st, comps, "product")


FAMILIES = {
    "case1_i": lambda seed: case1_i(seed) if seed % 2 == 0 else case1_i_conflict(seed),
    "case1_ii": case1_ii,
    "case1_iii": case1_iii,
    "case1_iv": case1_iv,
    "case1_v": case1_v,
    "case1_vi1": case1_vi1,
    "case1_vi2": case1_vi2,
    "case1_vi3": case1_vi3,
    "case1_vii": case1_vii,
    "case2_split": case2_split,
    "component_split": component_split,
}
