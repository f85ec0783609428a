import gc
import random
from dataclasses import replace

from rulestates import (
    FAMILIES,
    build_paired,
    clause,
    formula_vars,
    fuzz_weights,
    mkstate,
    resign,
)
from x3hd.decompose import (
    Bisection,
    ClauseGraph,
    balanced_bisection,
    branch_cut_variables,
    brute_force_base,
    build_clause_graph,
    connected_components,
)
from x3hd.instances import generate
from x3hd.model import PRISTINE, Formula, PairState, initial_state, is_symmetric
from x3hd.oracle import state_eval
from x3hd.poly import ONE, U, ZERO, HDPoly
from x3hd.solver import SolveOptions, solve

EXAMPLE = [[1, 2, 3], [1, 4, 5], [1, 6, 7], [2, 4, -6]]


def ring(size, first_var=1):
    # size clauses, 2*size variables, every consecutive pair shares one
    out = []
    hubs = [first_var + 2 * i for i in range(size)]
    spokes = [first_var + 2 * i + 1 for i in range(size)]
    for i in range(size):
        out.append([hubs[i], spokes[i], hubs[(i + 1) % size]])
    return out


def test_graph_shapes():
    st = mkstate([clause(1, 2, 3), clause(4, 5, 6)])
    g = build_clause_graph(st)
    assert g.n_vertices == 2 and not g.edge_vars

    st2 = mkstate([clause(1, 2, 3), clause(1, 4, 5)])
    g2 = build_clause_graph(st2)
    assert g2.edge_vars == {(0, 1): frozenset({1})}

    # similar clauses collapse into one vertex
    st3 = mkstate([clause(1, 2, 3), clause(-1, 2, -3), clause(2, 4, 5)])
    g3 = build_clause_graph(st3)
    assert g3.n_vertices == 2
    assert st3.index().classes[0] == (0, 1)


def test_graph_density_bound():
    # under the decomposition preconditions, classes <= ceil(2n/3)
    rng = random.Random(3)
    for seed in range(10):
        st, _ = build_paired(ring(6), rng)
        g = build_clause_graph(st, debug=True)
        n = len(st.V)
        assert g.n_vertices <= (2 * n + 2) // 3


def test_components_split_and_multiply():
    for seed in range(25):
        case = FAMILIES["component_split"](seed)
        product = case.parent.p_main
        for comp in case.children:
            assert comp.p_main == ONE
            product = product * state_eval(comp)
        assert product == state_eval(case.parent)


def test_components_disjoint_union_of_worked_example():
    shifted = [[k + 7 if k > 0 else k - 7 for k in cl] for cl in EXAMPLE]
    union = Formula.from_dimacs(EXAMPLE + shifted, 14)
    st = initial_state(union)
    comps = connected_components(st)
    assert len(comps) == 2
    report = solve(union, SolveOptions(base_threshold=4))
    single = HDPoly({4: 12, 0: 4})
    assert report.poly == single * single


def test_components_of_connected_state():
    st = mkstate([clause(1, 2, 3), clause(3, 4, 5)])
    assert len(connected_components(st)) == 1
    assert connected_components(mkstate([])) == []
    # one component holding every variable has the parent's clauses and
    # dicts, with p_main = 1
    st = replace(st, p_main=U)
    (comp,) = connected_components(st)
    assert comp.clauses == st.clauses and comp.fixed == st.fixed and comp.weights == st.weights
    assert comp.V == st.V and comp.p_main == ONE
    # a variable in no clause stays with the parent, so the clauses are copied
    st = mkstate([clause(1, 2, 3), clause(3, 4, 5)], extra_vars=(6,))
    (comp,) = connected_components(st)
    assert comp.clauses == st.clauses and comp.clauses is not st.clauses
    assert comp.V == st.V - {6}


def loose_state(rng):
    """A state not at its fixpoint: constant literals, repeated variables,
    clauses similar to earlier ones, constant-only clauses, variables in
    no clause, forced values and a distinct weight table per variable."""
    variables = range(1, rng.randint(1, 9) + 1)
    clauses = []
    for _ in range(rng.randint(0, 8)):
        if clauses and rng.random() < 0.2:
            # same variables and constant count as an earlier clause
            clauses.append(tuple(p & ~3 | rng.randrange(4) for p in rng.choice(clauses)))
            continue
        clauses.append(tuple(
            rng.randrange(4) if rng.random() < 0.2 else 4 * rng.choice(variables) + rng.randrange(4)
            for _ in range(rng.randint(1, 3))
        ))
    fixed = tuple({v: rng.randrange(2) for v in variables if rng.random() < 0.3} for _ in range(2))
    weights = {v: (ONE, ONE, ONE, HDPoly({0: v})) for v in variables}
    return PairState(tuple(clauses), fixed, HDPoly({1: 2}), weights)


def reference_components(clauses):
    """Clause index groups joined by shared variables, by union-find."""
    parent = list(range(len(clauses)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    holder = {}
    for i, cl in enumerate(clauses):
        for v in {p >> 2 for p in cl if p >= 4}:
            parent[find(i)] = find(holder.setdefault(v, i))
    groups = {}
    for i in range(len(clauses)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def test_components_match_a_union_find_reference():
    rng = random.Random(11)
    for _ in range(400):
        st = loose_state(rng)
        comps = connected_components(st)
        expected = []
        for group in reference_components(st.clauses):
            shared = {p >> 2 for i in group for p in st.clauses[i] if p >= 4}
            # the component keeps its clauses in the parent's order
            expected.append((tuple(sorted(shared)), tuple(st.clauses[i] for i in group)))
        assert sorted((tuple(sorted(c.V)), c.clauses) for c in comps) == sorted(expected)
        assert sum(len(c.V) for c in comps) == len(frozenset().union(*(c.V for c in comps)))
        for c in comps:
            assert c.p_main == ONE
            assert c.weights == {v: st.weights[v] for v in c.V}
            for side in (0, 1):
                assert c.fixed[side] == {v: x for v, x in st.fixed[side].items() if v in c.V}


def test_bisection_balance_and_determinism():
    rng = random.Random(9)
    st, _ = build_paired(ring(6), rng)
    g = build_clause_graph(st)
    a = balanced_bisection(g, seed=0)
    b = balanced_bisection(g, seed=0)
    assert a == b
    zeros = a.sides.count(0)
    assert abs(zeros - (len(a.sides) - zeros)) <= 1
    # a six-cycle splits with two crossing edges
    assert a.cut_size == 2


def test_bisection_path_and_clique():
    # path of four vertices: split across one edge
    st = mkstate([clause(1, 2, 3), clause(3, 4, 5), clause(5, 6, 7), clause(7, 8, 9)])
    g = build_clause_graph(st)
    bis = balanced_bisection(g, seed=0)
    assert bis.cut_size == 1

    # complete graph on four vertices always cuts four edges
    # (one dedicated shared variable per clause pair)
    st4 = mkstate(
        [clause(1, 2, 3), clause(1, 4, 5), clause(2, 4, 6), clause(3, 5, 6)]
    )
    g4 = build_clause_graph(st4)
    assert all(len(st4.index().neighbours[v]) == 3 for v in range(4))
    bis4 = balanced_bisection(g4, seed=1)
    assert bis4.cut_size == 4


def test_bisection_is_a_pair_swap_local_optimum():
    # balanced, and no swap of one vertex from each side shrinks the cut,
    # so no exchange of two stranded vertices can shrink it either
    rng = random.Random(21)
    graphs = [build_clause_graph(build_paired(ring(size), rng)[0]) for size in range(2, 15)]
    graphs += [build_clause_graph(FAMILIES["case2_split"](seed).parent) for seed in range(8)]
    checked = 0
    for g in graphs:
        n = g.n_vertices

        def cut(sides):
            return sum(1 for a, b in g.edge_vars if sides[a] != sides[b])

        for seed in range(6):
            bis = balanced_bisection(g, seed=seed)
            sides = list(bis.sides)
            assert sorted(set(sides)) == [0, 1] and abs(2 * sum(sides) - n) <= 1
            assert bis.cut_size == cut(sides)
            for a in range(n):
                for b in range(n):
                    if sides[a] == 0 and sides[b] == 1:
                        sides[a], sides[b] = 1, 0
                        assert cut(sides) >= bis.cut_size, (a, b)
                        sides[a], sides[b] = 0, 1
            checked += 1
    assert checked == 126


def _recount_bisection(g, seed):
    """`balanced_bisection` as it scored each swap before per-vertex
    gains: by counting the crossing edges after the swap."""

    def cut(sides):
        return sum(1 for a, b in g.edge_vars if sides[a] != sides[b])

    n = g.n_vertices
    rng = random.Random(seed)
    half = (n + 1) // 2
    best_sides = best_cut = None
    for _ in range(4):
        perm = list(range(n))
        rng.shuffle(perm)
        sides = [0] * n
        for pos in perm[half:]:
            sides[pos] = 1
        improved = True
        while improved:
            improved = False
            cur = cut(sides)
            best_gain, best_pair = 0, None
            zeros = [v for v in range(n) if sides[v] == 0]
            ones = [v for v in range(n) if sides[v] == 1]
            for a in zeros:
                for b in ones:
                    sides[a], sides[b] = 1, 0
                    gain = cur - cut(sides)
                    sides[a], sides[b] = 0, 1
                    if gain > best_gain:
                        best_gain, best_pair = gain, (a, b)
            if best_pair:
                a, b = best_pair
                sides[a], sides[b] = 1, 0
                improved = True
        if best_cut is None or cut(sides) < best_cut:
            best_cut, best_sides = cut(sides), sides
    cut_vars = set()
    for (a, b), shared in g.edge_vars.items():
        if best_sides[a] != best_sides[b]:
            cut_vars |= shared
    return Bisection(tuple(best_sides), frozenset(cut_vars), best_cut)


def test_bisection_matches_the_recounting_search():
    # the per-vertex gains pick the swap that recounting every edge picks,
    # so the whole result is the same, ties included
    rng = random.Random(5)
    for _ in range(1000):
        n = rng.randint(2, 26)
        degree = rng.choice((1.5, 3, 5))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = [e for e in pairs if rng.random() < degree / max(n - 1, 1)]
        g = ClauseGraph(n, {e: frozenset({k}) for k, e in enumerate(edges, 1)})
        for seed in (0, 1):
            assert balanced_bisection(g, seed) == _recount_bisection(g, seed), (g, seed)


def test_bisection_leaves_at_most_one_stranded_vertex():
    rng = random.Random(33)
    for seed in range(12):
        st, _ = build_paired(ring(5), rng)
        g = build_clause_graph(st)
        bis = balanced_bisection(g, seed=seed)
        neighbours = st.index().neighbours
        stranded = [
            v
            for v in range(g.n_vertices)
            if neighbours[v]
            and all(bis.sides[u] != bis.sides[v] for u in neighbours[v])
        ]
        assert len(stranded) <= 1


def test_cut_branch_conservation():
    for seed in range(20):
        case = FAMILIES["case2_split"](seed)
        parent = state_eval(case.parent)
        total = sum((state_eval(c) for c in case.children if c is not None), ZERO)
        assert parent == total


def test_cut_branch_child_count():
    rng = random.Random(1)
    st, _ = build_paired(ring(6), rng)
    g = build_clause_graph(st)
    bis = balanced_bisection(g, seed=0)
    children = branch_cut_variables(st, bis)
    assert len(children) == 4 ** len(bis.cut_vars)


def test_cut_branch_group_size_bound():
    # after branching the cut and simplifying, each residual group holds
    # at most (m - k + 2) / 2 dissimilar classes
    rng = random.Random(17)
    for seed in range(8):
        st, _ = build_paired(ring(6), rng)
        g = build_clause_graph(st)
        m = g.n_vertices
        bis = balanced_bisection(g, seed=seed)
        k = bis.cut_size
        bound = (m - k + 2) / 2
        for child in branch_cut_variables(st, bis):
            if child is None:
                continue
            for comp in connected_components(child):
                assert build_clause_graph(comp).n_vertices <= bound


def test_base_matches_reference_on_random_states():
    # prob 0 leaves every table PRISTINE and prob 1 none, the two edges of
    # pair_sum's split into bitmask and grouped variables
    rng = random.Random(7)
    shapes = [
        [[1, 2, 3]],
        [[1, 2, 3], [3, 4, 5]],
        [[1, 2, 3], [1, 4, 5], [2, 4, 6]],
        ring(3),
    ]
    for prob, runs in ((0.5, 60), (0.0, 20), (1.0, 20)):
        for _ in range(runs):
            st, _ = build_paired(rng.choice(shapes), rng, extra_vars=(20,))
            st = fuzz_weights(st, rng, prob)
            if rng.random() < 0.4:
                v = rng.choice(sorted(st.V))
                st = replace(st, fixed=(st.fixed[0] | {v: rng.randrange(2)}, st.fixed[1]))
            assert brute_force_base(st) == state_eval(st)
    # both sides alike (the same signs, constants and forced values) take
    # pair_sum's one-side path; one forced value or one sign apart, the
    # two-side path
    shapes.append([["F", 1, 2], [2, 3, "T"]])
    for variant in ("symmetric", "forced value", "sign") * 30:
        phi = [resign(clause(*cl), rng) for cl in rng.choice(shapes)]
        variables = sorted(set().union(*(formula_vars(cl) for cl in phi)))
        forced = {v: rng.randrange(2) for v in rng.sample(variables, rng.randrange(3))}
        phi2, forced2 = phi, dict(forced)
        if variant == "forced value":
            v = rng.choice(variables)
            forced2[v] = 1 - forced.get(v, rng.randrange(2))
        elif variant == "sign":
            k = rng.randrange(len(phi))
            t = rng.choice([t for t, l in enumerate(phi[k]) if l >= 2])
            phi2 = list(phi)
            phi2[k] = phi[k][:t] + (phi[k][t] ^ 1,) + phi[k][t + 1 :]
        st = mkstate(phi, phi2, extra_vars=(20,), fixed=(forced, forced2))
        st = fuzz_weights(st, rng, rng.choice((0.0, 0.3, 1.0)))
        assert brute_force_base(st) == state_eval(st)
    # symmetric states whose tables are not PRISTINE but have equal entries
    # (0, 1) and (1, 0): one histogram per unordered pair of groups
    for prob in (0.3, 1.0) * 15:
        phi = [resign(clause(*cl), rng) for cl in rng.choice(shapes)]
        variables = sorted(set().union(*(formula_vars(cl) for cl in phi)))
        forced = {v: rng.randrange(2) for v in rng.sample(variables, rng.randrange(3))}
        st = mkstate(phi, extra_vars=(20,), fixed=(forced, forced))
        st = fuzz_weights(st, rng, prob, transposable=True)
        assert is_symmetric(st)
        assert brute_force_base(st) == state_eval(st)
    # a table equal to PRISTINE but not PRISTINE itself is tabled, and exact
    for shape in shapes:
        st, _ = build_paired(shape, rng, extra_vars=(20,))
        lookalike = (ONE, U, U, ONE)
        assert lookalike == PRISTINE and lookalike is not PRISTINE
        weights = dict.fromkeys(st.V, lookalike)
        assert brute_force_base(replace(st, weights=weights)) == state_eval(st)


def test_base_leaves_no_reference_cycle():
    # the base case frees what it builds by reference counting alone
    st = initial_state(generate(9, 3, seed=4, planted=True).formula)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        brute_force_base(st)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_base_on_worked_example():
    st = initial_state(Formula.from_dimacs(EXAMPLE, 7))
    assert brute_force_base(st) == HDPoly({4: 12, 0: 4})


def test_base_trivial_cases():
    st = mkstate([])
    assert brute_force_base(st) == ONE
    scaled = replace(st, p_main=HDPoly({2: 3}))
    assert brute_force_base(scaled) == HDPoly({2: 3})
    dead = mkstate([clause(1, 1)])
    assert brute_force_base(dead) == ZERO
