"""Linear branching programs: evaluation, read-once spans, cuts, separation."""
from fractions import Fraction
import random

import numpy as np
import pytest

from gf2lab.affine import AffineSource
from gf2lab.bits import BitVec, GF2Matrix
from gf2lab.lbp import (
    SINK0,
    SINK1,
    LinearBP,
    Node,
    annotate_spans,
    baseline_catalog,
    conjunction_program,
    correlation,
    is_coordinate_robp,
    is_strongly_read_once,
    is_weakly_read_once,
    membership_oracle,
    parity_program,
    robp_cut,
    srolbp_bound_report,
    subspace_indicator_srolbp,
    tribes_program,
)


def brute_eval(prog: LinearBP, xv: int) -> int:
    cur = prog.source
    while cur not in (SINK0, SINK1):
        node = prog.nodes[cur]
        bit = bin(node.query.value & xv).count("1") & 1
        cur = node.e1 if bit else node.e0
    return 1 if cur == SINK1 else 0


def random_program(n: int, size: int, rng: random.Random) -> LinearBP:
    """A random single-source DAG with arbitrary queries (zero included):
    forward edges at random, then only the nodes reachable from node 0,
    renumbered in order."""
    edges = []
    for i in range(size):
        targets = list(range(i + 1, size)) + [SINK0, SINK1]
        edges.append((rng.choice(targets), rng.choice(targets)))
    seen, stack = {0}, [0]
    while stack:
        for e in edges[stack.pop()]:
            if e >= 0 and e not in seen:
                seen.add(e)
                stack.append(e)
    new = {old: i for i, old in enumerate(sorted(seen))}
    new.update({SINK0: SINK0, SINK1: SINK1})
    nodes = tuple(
        Node(BitVec(n, rng.choice([0, (1 << n) - 1, rng.getrandbits(n)])),
             new[edges[old][0]], new[edges[old][1]])
        for old in sorted(seen)
    )
    prog = LinearBP(n, nodes, 0)
    prog.validate()
    return prog


def word_bit(words: np.ndarray, xv: int) -> int:
    return int(words[xv >> 6]) >> (xv & 63) & 1


class TestEval:
    def test_single_node(self):
        prog = LinearBP(3, (Node(BitVec(3, 1), SINK0, SINK1),), 0)
        prog.validate()
        for xv in range(8):
            assert prog.eval(BitVec(3, xv)) == (xv & 1)

    def test_and_chain_truth_table(self):
        prog = conjunction_program(4, [0, 1, 2, 3])
        table = prog.eval_all()
        for xv in range(16):
            assert bool(table[xv]) == (xv == 15)
            assert prog.eval(BitVec(4, xv)) == (1 if xv == 15 else 0)

    def test_same_query_everywhere_depends_on_it_only(self):
        q = BitVec(4, 0b1011)
        prog = LinearBP(
            4,
            (
                Node(q, 1, 2),
                Node(q, SINK0, SINK1),
                Node(q, SINK1, SINK0),
            ),
            0,
        )
        prog.validate()
        # the program is constant 0: q=0 -> node1 -> q=0 -> sink0 and
        # q=1 -> node2 -> q=1 -> sink0
        for xv in range(16):
            assert prog.eval(BitVec(4, xv)) == 0
        assert not prog.eval_all().any()
        assert prog.eval_words().tolist() == [0]

    def test_eval_all_matches_scalar(self):
        rng = random.Random(300)
        nodes = (
            Node(BitVec(5, rng.getrandbits(5) or 1), 1, 2),
            Node(BitVec(5, rng.getrandbits(5) or 1), SINK0, 2),
            Node(BitVec(5, rng.getrandbits(5) or 1), SINK1, SINK0),
        )
        prog = LinearBP(5, nodes, 0)
        table = prog.eval_all()
        for xv in range(32):
            assert bool(table[xv]) == bool(brute_eval(prog, xv))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_packed_evaluation_matches_per_point(self, n):
        rng = random.Random(f"packed-{n}")
        for size in (1, 2, 3, 5, 8, 13):
            prog = random_program(n, size, rng)
            words = prog.eval_words()
            assert words.dtype == np.uint64
            assert words.shape == (1 << max(n - 6, 0),)
            if n < 6:  # one word, zero past the 2^n inputs
                assert int(words[0]) >> (1 << n) == 0
            table = prog.eval_all()
            assert table.dtype == bool and table.shape == (1 << n,)
            for xv in range(1 << n):
                want = brute_eval(prog, xv)
                assert prog.eval(BitVec(n, xv)) == want
                assert word_bit(words, xv) == want
                assert int(table[xv]) == want

    @pytest.mark.parametrize("n", [0, 1, 5, 6, 7, 12])
    def test_constant_programs(self, n):
        for source, bit in ((SINK0, 0), (SINK1, 1)):
            prog = LinearBP(n, (), source)
            prog.validate()
            words = prog.eval_words()
            assert words.tolist() == [bit * ((1 << min(64, 1 << n)) - 1)] * (1 << max(n - 6, 0))
            assert prog.eval_all().tolist() == [bool(bit)] * (1 << n)
            assert prog.eval(BitVec(n, (1 << n) - 1)) == bit

    def test_packed_evaluation_across_the_chunk_boundary(self):
        # n = 21 evaluates in two chunks of 2^20 inputs
        n = 21
        rng = random.Random("chunk-21")
        prog = random_program(n, 12, rng)
        assert len({brute_eval(prog, xv) for xv in range(4096)}) == 2
        words = prog.eval_words()
        assert words.shape == (1 << 15,)
        table = prog.eval_all()
        points = list(range((1 << 20) - 130, (1 << 20) + 130))
        points += [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(200)]
        for xv in points:
            want = brute_eval(prog, xv)
            assert prog.eval(BitVec(n, xv)) == want
            assert word_bit(words, xv) == want
            assert int(table[xv]) == want

    def test_cycle_detected(self):
        nodes = (
            Node(BitVec(2, 1), 1, 1),
            Node(BitVec(2, 2), 0, SINK1),
        )
        with pytest.raises(ValueError):
            LinearBP(2, nodes, 0).validate()

    def test_json_round_trip(self):
        prog = parity_program(6, [0, 2, 4])
        again = LinearBP.from_json(prog.to_json())
        assert again == prog


class TestReadOnce:
    def test_decision_tree_is_strongly_read_once(self):
        # complete depth-3 tree on distinct coordinates
        nodes = [Node(BitVec(3, 1), 1, 2)]
        nodes += [Node(BitVec(3, 2), 3, 4), Node(BitVec(3, 2), 5, 6)]
        leaves = []
        for i in range(4):
            leaves.append(Node(BitVec(3, 4), SINK0, SINK1))
        prog = LinearBP(3, tuple(nodes + leaves), 0)
        ok, witness = is_strongly_read_once(prog)
        assert ok and witness is None
        assert is_weakly_read_once(prog)[0]

    def test_repeated_query_weakly_violated(self):
        q = BitVec(3, 0b101)
        prog = LinearBP(3, (Node(q, 1, SINK1), Node(q, SINK0, SINK1)), 0)
        ok, witness = is_weakly_read_once(prog)
        assert not ok
        assert witness is not None and witness[1] == q

    def test_strong_violation_with_hand_computed_spans(self):
        # x1 queried first; below an innocent x3 query, one branch
        # queries x2 and the other x1+x2, so Post spans x1 again while
        # no single path ever re-reads anything
        n = 3
        prog = LinearBP(
            n,
            (
                Node(BitVec(n, 0b001), 1, 1),          # x1
                Node(BitVec(n, 0b100), 2, 3),          # x3
                Node(BitVec(n, 0b010), SINK0, SINK1),  # x2
                Node(BitVec(n, 0b011), SINK0, SINK1),  # x1+x2
            ),
            0,
        )
        spans = annotate_spans(prog)
        assert spans.pre[1].rows == (0b001,)
        assert spans.post[1].rows == (0b001, 0b010, 0b100)  # full space
        ok, witness = is_strongly_read_once(prog)
        assert not ok
        assert witness is not None
        node, vec = witness
        assert node == 1 and vec.value in spans.pre[1].rows
        # weakly read-once still holds: no path-span contains its query
        assert is_weakly_read_once(prog)[0]

    def test_every_coordinate_robp_is_strongly_read_once(self):
        for name, prog in baseline_catalog(8, seed=1):
            assert is_coordinate_robp(prog), name
            assert is_strongly_read_once(prog)[0], name


class TestCorrelation:
    def test_self_correlation_one(self):
        prog = parity_program(5, [0, 1, 4])
        assert correlation(prog, prog) == 1

    def test_negated_correlation_zero(self):
        prog = parity_program(5, [0, 1, 4])
        table = prog.eval_all()
        assert correlation(prog, lambda x: 1 ^ int(table[x])) == 0

    def test_single_query_vs_two_bit_xor(self):
        prog = LinearBP(2, (Node(BitVec(2, 1), SINK0, SINK1),), 0)
        assert correlation(prog, lambda x: (x ^ (x >> 1)) & 1) == Fraction(1, 2)

    def test_sampled_brackets_exhaustive(self):
        prog = tribes_program(8, 2)
        exact = correlation(prog, lambda x: (x * 2654435761 >> 7) & 1)
        hits = 0
        for s in range(40):
            est, radius = correlation(
                prog, lambda x: (x * 2654435761 >> 7) & 1,
                mode="sample", samples=400, seed=s,
            )
            if abs(est - exact) <= radius:
                hits += 1
        assert hits >= 38  # 99% confidence radius

    @pytest.mark.parametrize("mode", ["exhaustive", "sample"])
    @pytest.mark.parametrize("length", [1, 15, 17, 32])
    def test_table_of_wrong_length_refused(self, mode, length):
        prog = parity_program(4, [0, 1])
        with pytest.raises(ValueError, match="truth table length mismatch"):
            correlation(prog, np.ones(length, dtype=bool), mode=mode,
                        samples=10)

    @pytest.mark.parametrize("n", [1, 3, 6, 7, 10])
    @pytest.mark.parametrize("kind", ["ndarray", "BitVec", "callable", "LinearBP"])
    def test_matches_bool_compare_count(self, n, kind):
        rng = random.Random(f"corr-{n}-{kind}")
        prog = random_program(n, 6, rng)
        if kind == "LinearBP":
            f = random_program(n, 6, rng)
            fbits = [brute_eval(f, xv) for xv in range(1 << n)]
        else:
            fbits = [rng.getrandbits(1) for _ in range(1 << n)]
            f = {"ndarray": np.array(fbits, dtype=bool),
                 "BitVec": BitVec.from_bits(fbits),
                 "callable": lambda xv: fbits[xv]}[kind]
        table = np.array([brute_eval(prog, xv) for xv in range(1 << n)], dtype=bool)
        agree = int(np.count_nonzero(table == np.array(fbits, dtype=bool)))
        assert correlation(prog, f) == Fraction(agree, 1 << n)

    def test_budget(self):
        from gf2lab.subspaces import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            parity_program(29, [0]).eval_all()


class TestSubspaceIndicator:
    def test_full_space_constant_one(self):
        prog = subspace_indicator_srolbp(GF2Matrix.identity(4), BitVec(4))
        assert prog.size == 0
        assert prog.eval(BitVec(4, 9)) == 1

    def test_point_program(self):
        shift = BitVec(4, 0b1010)
        prog = subspace_indicator_srolbp(GF2Matrix((), 4), shift)
        assert prog.size == 4
        table = prog.eval_all()
        assert [xv for xv in range(16) if table[xv]] == [shift.value]

    def test_random_subspace_agrees_with_membership(self):
        rng = random.Random(301)
        src = AffineSource.random(10, 5, rng)
        prog = subspace_indicator_srolbp(src.basis, src.shift)
        assert prog.size == 5
        ok, _ = is_strongly_read_once(prog)
        assert ok
        member = membership_oracle(src.basis, src.shift)
        table = prog.eval_all()
        for xv in range(1 << 10):
            assert int(table[xv]) == member(xv)


class TestRobpCut:
    def test_d_equals_n_single_source_event(self):
        prog = parity_program(4, [0, 1, 2, 3])
        events = robp_cut(prog, 4)
        assert len(events) == 1
        e = events[0]
        assert e.node == 0 and e.read_vars == frozenset()
        assert e.free_vars == frozenset(range(4)) and e.probability == 1

    def test_width1_chain_event_at_depth(self):
        # chain reading x0..x5 in order with both edges advancing:
        # with d=2 the single event sits at the depth-(n-2) node
        n = 6
        nodes = []
        for j in range(n):
            nxt = j + 1 if j + 1 < n else SINK1
            nodes.append(Node(BitVec(n, 1 << j), nxt, nxt))
        prog = LinearBP(n, tuple(nodes), 0)
        events = robp_cut(prog, 2)
        assert len(events) == 1
        e = events[0]
        assert e.node == n - 2
        assert e.read_vars == frozenset(range(n - 2))
        assert e.free_vars == frozenset({n - 2, n - 1})
        assert e.probability == 1

    def test_partition_sums_to_one(self):
        n = 6
        prog = parity_program(n, list(range(n)))
        for d in range(n + 1):
            events = robp_cut(prog, d)
            assert sum(e.probability for e in events) == 1
            assert all(len(e.free_vars) == d for e in events)

    def test_short_paths_rejected(self):
        prog = conjunction_program(5, list(range(5)))
        with pytest.raises(ValueError):
            robp_cut(prog, 1)  # the early-exit path reads only 1 variable

    def test_split_by_read_set(self):
        # two branches that read different variables before converging
        n = 4
        nodes = (
            Node(BitVec(n, 1), 1, 2),        # x0
            Node(BitVec(n, 2), 3, 3),        # x1 on the 0-branch
            Node(BitVec(n, 4), 3, 3),        # x2 on the 1-branch
            Node(BitVec(n, 8), SINK0, SINK1),  # x3, converged
        )
        prog = LinearBP(n, nodes, 0)
        events = robp_cut(prog, 2)
        assert sum(e.probability for e in events) == 1
        at_node3 = [e for e in events if e.node == 3]
        assert len(at_node3) == 2
        assert {frozenset(e.read_vars) for e in at_node3} == {
            frozenset({0, 1}),
            frozenset({0, 2}),
        }

    def test_remaining_computation_uses_free_vars_only(self):
        n = 6
        prog = parity_program(n, list(range(n)))
        table = prog.eval_all()
        for d in (2, 3):
            for e in robp_cut(prog, d):
                # walk all inputs consistent with the event and check that
                # acceptance depends only on the free coordinates
                groups = {}
                for xv in range(1 << n):
                    cur, read = prog.source, set()
                    hit = False
                    while cur not in (SINK0, SINK1) and len(read) < n - d:
                        node = prog.nodes[cur]
                        var = node.query.value.bit_length() - 1
                        read.add(var)
                        cur = node.e1 if (xv >> var) & 1 else node.e0
                        if cur == e.node and frozenset(read) == e.read_vars:
                            hit = True
                            break
                    if not hit:
                        continue
                    free_proj = tuple((xv >> v) & 1 for v in sorted(e.free_vars))
                    groups.setdefault(free_proj, set()).add(bool(table[xv]))
                for vals in groups.values():
                    assert len(vals) == 1


class TestSeparation:
    def test_catalog_correlations_stay_low(self):
        rng = random.Random(302)
        src = AffineSource.random(12, 6, rng)
        prog = subspace_indicator_srolbp(src.basis, src.shift)
        table = prog.eval_all()
        worst = Fraction(0)
        for name, base in baseline_catalog(12, seed=3):
            agree = correlation(base, BitVec(1 << 12, int(
                sum(1 << i for i in range(1 << 12) if table[i])
            )))
            worst = max(worst, abs(agree - Fraction(1, 2)))
        # the indicator accepts a 2^-6 fraction; nothing in the catalog
        # tracks it beyond the trivial constant-side correlation
        assert worst <= Fraction(1, 2) - Fraction(1, 1 << 6)

    def test_bound_report(self):
        rep = srolbp_bound_report(16, 8, Fraction(1, 64))
        assert rep["size_lower_bound"] == str(Fraction(2))
