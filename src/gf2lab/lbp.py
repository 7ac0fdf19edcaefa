"""Linear branching programs: evaluation, read-once validation,
correlation measurement, subspace indicators, and the ROBP cut
decomposition.

Nodes query arbitrary linear functionals; ordinary ROBPs are the
special case of weight-1 queries, so one evaluator serves both models.
Exhaustive evaluation runs on packed words, 64 inputs to a uint64, and
exact correlation counts disagreements by popcount on those words.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from ._kernels import _bits, _pack, parity_words
from .bits import BitVec, GF2Matrix
from .subspaces import BudgetExceeded

SINK0 = -1
SINK1 = -2
EXHAUSTIVE_CAP_N = 28
_CHUNK_BITS = 20


@dataclass(frozen=True)
class Node:
    query: BitVec
    e0: int
    e1: int


@dataclass(frozen=True)
class LinearBP:
    n: int
    nodes: tuple[Node, ...]
    source: int  # node index, or SINK1/SINK0 for constant programs

    @property
    def size(self) -> int:
        return len(self.nodes)

    def validate(self) -> None:
        if self.source not in (SINK0, SINK1) and not (
            0 <= self.source < len(self.nodes)
        ):
            raise ValueError("source out of range")
        for i, node in enumerate(self.nodes):
            if node.query.n != self.n:
                raise ValueError(f"node {i} query width != {self.n}")
            for e in (node.e0, node.e1):
                if e not in (SINK0, SINK1) and not 0 <= e < len(self.nodes):
                    raise ValueError(f"node {i} has a dangling edge")
        order = self.topo_order()
        reachable = set(order)
        if self.nodes and self.source not in (SINK0, SINK1):
            if set(range(len(self.nodes))) - reachable:
                raise ValueError("unreachable nodes (not a single-source DAG)")

    def topo_order(self) -> list[int]:
        """Topological order of nodes reachable from the source; raises
        on cycles."""
        if self.source in (SINK0, SINK1):
            return []
        order: list[int] = []
        state: dict[int, int] = {}

        def visit(v: int) -> None:
            stack = [(v, 0)]
            while stack:
                node, phase = stack.pop()
                if phase == 0:
                    st = state.get(node)
                    if st == 1:
                        raise ValueError("cycle detected")
                    if st == 2:
                        continue
                    state[node] = 1
                    stack.append((node, 1))
                    for e in (self.nodes[node].e1, self.nodes[node].e0):
                        if e not in (SINK0, SINK1) and state.get(e) != 2:
                            if state.get(e) == 1:
                                raise ValueError("cycle detected")
                            stack.append((e, 0))
                else:
                    state[node] = 2
                    order.append(node)

        visit(self.source)
        order.reverse()
        return order

    # -- evaluation -----------------------------------------------------
    def eval(self, x: BitVec) -> int:
        if x.n != self.n:
            raise ValueError("input width mismatch")
        cur = self.source
        steps = 0
        while cur not in (SINK0, SINK1):
            node = self.nodes[cur]
            cur = node.e1 if node.query.dot(x) else node.e0
            steps += 1
            if steps > len(self.nodes):
                raise ValueError("cycle detected during evaluation")
        return 1 if cur == SINK1 else 0

    def eval_words(self) -> np.ndarray:
        """Acceptance over all 2^n inputs (n <= 28), packed: bit j of
        word w is the output on input 64w + j.  Below n = 6 the one
        word is zero past bit 2^n."""
        if self.n > EXHAUSTIVE_CAP_N:
            raise BudgetExceeded(f"exhaustive evaluation capped at n={EXHAUSTIVE_CAP_N}")
        total = 1 << max(self.n - 6, 0)
        chunk = 1 << (_CHUNK_BITS - 6)
        order = self.topo_order()
        out = np.empty(total, dtype=np.uint64)
        for start in range(0, total, chunk):
            words = np.arange(start, min(start + chunk, total), dtype=np.uint64)
            out[start : start + len(words)] = self._accept_words(order, words)
        if self.n < 6:
            out &= np.uint64((1 << (1 << self.n)) - 1)
        return out

    def _accept_words(self, order: list[int], words: np.ndarray) -> np.ndarray:
        """Packed acceptance of the inputs 64w .. 64w + 63 for each word
        index w: each node splits the mask of inputs reaching it by the
        packed parity of its query."""
        accept = np.zeros(len(words), dtype=np.uint64)
        if self.source in (SINK0, SINK1):
            return ~accept if self.source == SINK1 else accept
        reach = {self.source: ~accept}
        for v in order:
            mask = reach.pop(v)
            node = self.nodes[v]
            hit = mask & parity_words(node.query.value, words)
            for e, sub in ((node.e0, mask ^ hit), (node.e1, hit)):
                if e == SINK1:
                    accept |= sub
                elif e != SINK0:
                    if e in reach:
                        reach[e] |= sub
                    else:
                        reach[e] = sub
        return accept

    def eval_all(self) -> np.ndarray:
        """Acceptance over all 2^n inputs as 2^n bools (n <= 28)."""
        return _bits(self.eval_words(), self.n).view(bool)

    # -- wire format ------------------------------------------------------
    def to_json(self) -> dict:
        def edge(e: int):
            return {SINK0: "sink0", SINK1: "sink1"}.get(e, e)

        return {
            "n": self.n,
            "nodes": [
                {"query": nd.query.to_hex(), "e0": edge(nd.e0), "e1": edge(nd.e1)}
                for nd in self.nodes
            ],
            "source": edge(self.source),
            "sink0": "sink0",
            "sink1": "sink1",
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LinearBP":
        def edge(e):
            return {"sink0": SINK0, "sink1": SINK1}.get(e, e)

        nodes = tuple(
            Node(BitVec.from_hex(nd["query"]), edge(nd["e0"]), edge(nd["e1"]))
            for nd in obj["nodes"]
        )
        prog = cls(obj["n"], nodes, edge(obj["source"]))
        prog.validate()
        return prog


# -- span annotation and read-once validation ---------------------------


@dataclass
class SpanAnnotation:
    pre: dict[int, GF2Matrix]
    post: dict[int, GF2Matrix]


def _reduce_rows(n: int, rows: Sequence[int]) -> GF2Matrix:
    return GF2Matrix(tuple(rows), n).row_basis()


def annotate_spans(prog: LinearBP) -> SpanAnnotation:
    """Pre_v: span of queries on source->v paths, excluding v's own;
    Post_v: span of queries in the subprogram at v."""
    prog.validate()
    order = prog.topo_order()
    pre_rows: dict[int, list[int]] = {v: [] for v in order}
    for v in order:
        node = prog.nodes[v]
        contribution = pre_rows[v] + [node.query.value]
        for e in (node.e0, node.e1):
            if e not in (SINK0, SINK1):
                merged = _reduce_rows(prog.n, pre_rows[e] + contribution)
                pre_rows[e] = list(merged.rows)
    post: dict[int, GF2Matrix] = {}
    for v in reversed(order):
        node = prog.nodes[v]
        rows = [node.query.value]
        for e in (node.e0, node.e1):
            if e not in (SINK0, SINK1):
                rows.extend(post[e].rows)
        post[v] = _reduce_rows(prog.n, rows)
    pre = {v: _reduce_rows(prog.n, rows) for v, rows in pre_rows.items()}
    return SpanAnnotation(pre, post)


def _intersection_witness(a: GF2Matrix, b: GF2Matrix) -> int | None:
    """A nonzero vector in rowspace(a) ∩ rowspace(b), if one exists."""
    if a.nrows == 0 or b.nrows == 0:
        return None
    stacked = a.vconcat(b)
    for cmask in stacked.transpose().kernel_basis().rows:
        v = 0
        for i in range(a.nrows):
            if (cmask >> i) & 1:
                v ^= a.rows[i]
        if v:
            return v
    return None


def is_strongly_read_once(prog: LinearBP) -> tuple[bool, tuple[int, BitVec] | None]:
    """Pre_v ∩ Post_v = {0} at every inner node; witness is the first
    violating node with a nonzero intersection vector."""
    spans = annotate_spans(prog)
    for v in prog.topo_order():
        w = _intersection_witness(spans.pre[v], spans.post[v])
        if w is not None:
            return False, (v, BitVec(prog.n, w))
    return True, None


def is_weakly_read_once(prog: LinearBP) -> tuple[bool, tuple[int, BitVec] | None]:
    """The query at v never lies in Pre_v."""
    spans = annotate_spans(prog)
    for v in prog.topo_order():
        q = prog.nodes[v].query
        if spans.pre[v].nrows and spans.pre[v].in_rowspan(q.value):
            return False, (v, q)
    return True, None


def is_coordinate_robp(prog: LinearBP) -> bool:
    """Weight-1 queries and no variable re-read on any path."""
    if any(nd.query.weight() != 1 for nd in prog.nodes):
        return False
    ok, _ = is_weakly_read_once(prog)
    return ok


# -- correlation ---------------------------------------------------------


def _f_table(f, n: int) -> np.ndarray:
    """The truth table of f on all 2^n inputs, packed as in
    `LinearBP.eval_words`."""
    if isinstance(f, LinearBP):
        if f.n != n:
            raise ValueError("truth table length mismatch")
        return f.eval_words()
    if isinstance(f, BitVec):
        if f.n != 1 << n:
            raise ValueError("truth table length mismatch")
        n_bytes = 8 << max(n - 6, 0)
        return np.frombuffer(f.value.to_bytes(n_bytes, "little"), dtype="<u8")
    if isinstance(f, np.ndarray):
        if f.shape != (1 << n,):
            raise ValueError("truth table length mismatch")
        bits = f.astype(bool)
    else:
        bits = np.fromiter((bool(f(x) & 1) for x in range(1 << n)), dtype=bool,
                           count=1 << n)
    return _pack(bits[None].view(np.uint8))[0]


def correlation(
    prog: LinearBP,
    f,
    mode: str = "exhaustive",
    samples: int = 0,
    seed: int = 0,
    confidence: float = 0.99,
):
    """Agreement probability Pr[P(x) = f(x)] over uniform inputs.

    f is a LinearBP, a truth table (2^n bools, or a BitVec of 2^n
    bits), or a callable on int inputs.  Exhaustive mode returns an
    exact Fraction, counting disagreements on packed words; sampled
    mode returns (estimate, radius) with a two-sided Hoeffding radius
    at the stated confidence level.
    """
    if mode == "exhaustive":
        differ = np.bitwise_count(prog.eval_words() ^ _f_table(f, prog.n)).sum()
        return Fraction((1 << prog.n) - int(differ), 1 << prog.n)
    if mode == "sample":
        if samples < 1:
            raise ValueError("need a positive sample count")
        rng = random.Random(seed)
        fcall = f if callable(f) and not isinstance(f, LinearBP) else None
        ftab = None if fcall else _f_table(f, prog.n)
        agree = 0
        for _ in range(samples):
            xv = rng.getrandbits(prog.n)
            fx = fcall(xv) & 1 if fcall else int(ftab[xv >> 6]) >> (xv & 63) & 1
            agree += prog.eval(BitVec(prog.n, xv)) == fx
        radius = math.sqrt(math.log(2 / (1 - confidence)) / (2 * samples))
        return Fraction(agree, samples), radius
    raise ValueError(f"unknown mode {mode!r}")


# -- subspace indicators ---------------------------------------------------


def subspace_indicator_srolbp(basis: GF2Matrix, shift: BitVec) -> LinearBP:
    """Membership test for the affine subspace span(basis) + shift as a
    chain of n-k orthogonal-complement queries; size exactly n-k."""
    if basis.rank() != basis.nrows:
        raise ValueError("basis must have full row rank")
    n = basis.cols
    if shift.n != n:
        raise ValueError("shift width mismatch")
    checks = basis.kernel_basis()  # rows orthogonal to the subspace
    count = checks.nrows
    if count == 0:
        return LinearBP(n, (), SINK1)
    nodes = []
    for j in range(count):
        h = BitVec(n, checks.rows[j])
        target = h.dot(shift)
        nxt = j + 1 if j + 1 < count else SINK1
        e0, e1 = (nxt, SINK0) if target == 0 else (SINK0, nxt)
        nodes.append(Node(h, e0, e1))
    return LinearBP(n, tuple(nodes), 0)


def membership_oracle(basis: GF2Matrix, shift: BitVec) -> Callable[[int], int]:
    def member(xv: int) -> int:
        return 1 if basis.in_rowspan(xv ^ shift.value) else 0
    return member


# -- ROBP cut decomposition -----------------------------------------------


@dataclass
class CutEvent:
    node: int  # node id, or sink constant
    read_vars: frozenset[int]
    free_vars: frozenset[int]
    probability: Fraction


def robp_cut(prog: LinearBP, d: int) -> list[CutEvent]:
    """Antichain of (node, read-set) events at the first moment a path
    has read exactly n-d variables; free_vars are the d unread ones.

    Paths must read at least n-d variables (a shorter path has no
    event of the required size and is rejected).  Paths into the same
    node with different read histories split into separate events.
    """
    if not 0 <= d <= prog.n:
        raise ValueError("d out of range")
    if not is_coordinate_robp(prog):
        raise ValueError("cut decomposition needs a coordinate-query ROBP")
    target = prog.n - d
    states: dict[tuple[int, frozenset[int]], Fraction] = {
        (prog.source, frozenset()): Fraction(1)
    }
    events: list[CutEvent] = []
    all_vars = frozenset(range(prog.n))
    emitted: dict[tuple[int, frozenset[int]], Fraction] = {}
    while states:
        nxt: dict[tuple[int, frozenset[int]], Fraction] = {}
        for (v, read), mass in states.items():
            if len(read) == target:
                key = (v, read)
                emitted[key] = emitted.get(key, Fraction(0)) + mass
                continue
            if v in (SINK0, SINK1):
                raise ValueError(
                    f"a path reaches a sink after {len(read)} < {target} reads"
                )
            node = prog.nodes[v]
            var = (node.query.value.bit_length()) - 1
            new_read = read | {var}
            for e in (node.e0, node.e1):
                key = (e, new_read)
                nxt[key] = nxt.get(key, Fraction(0)) + mass / 2
        states = nxt
    for (v, read), mass in sorted(
        emitted.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))
    ):
        events.append(CutEvent(v, read, all_vars - read, mass))
    return events


# -- baseline coordinate-ROBP catalog ---------------------------------


def parity_program(n: int, vars_: Sequence[int]) -> LinearBP:
    """Parity of the given variables as a width-2 ROBP."""
    if not vars_:
        return LinearBP(n, (), SINK0)
    count = len(vars_)
    # level 0 is the single source; level i >= 1 holds the (even, odd)
    # states at indices 2i-1, 2i
    nodes: list[Node] = [None] * (2 * count - 1)  # type: ignore[list-item]
    for i, v in enumerate(vars_):
        q = BitVec(n, 1 << v)
        if i + 1 < count:
            even, odd = 2 * (i + 1) - 1, 2 * (i + 1)
        else:
            even, odd = SINK0, SINK1
        if i == 0:
            nodes[0] = Node(q, even, odd)
        else:
            nodes[2 * i - 1] = Node(q, even, odd)
            nodes[2 * i] = Node(q, odd, even)
    return LinearBP(n, tuple(nodes), 0)


def conjunction_program(n: int, vars_: Sequence[int]) -> LinearBP:
    """AND of the given variables as a chain with early exit."""
    if not vars_:
        return LinearBP(n, (), SINK1)
    nodes = []
    for i, v in enumerate(vars_):
        nxt = i + 1 if i + 1 < len(vars_) else SINK1
        nodes.append(Node(BitVec(n, 1 << v), SINK0, nxt))
    return LinearBP(n, tuple(nodes), 0)


def tribes_program(n: int, block: int) -> LinearBP:
    """OR of ANDs over consecutive blocks (the tribes function)."""
    if block < 1 or n % block:
        raise ValueError("block size must divide n")
    blocks = n // block
    nodes: list[Node] = []
    for b in range(blocks):
        for j in range(b * block, (b + 1) * block):
            last_in_block = (j + 1) % block == 0
            fail = SINK0 if b + 1 == blocks else (b + 1) * block
            win = SINK1 if last_in_block else j + 1
            nodes.append(Node(BitVec(n, 1 << j), fail, win))
    return LinearBP(n, tuple(nodes), 0)


def baseline_catalog(n: int, seed: int = 0, extra_random: int = 8) -> list[tuple[str, LinearBP]]:
    """Parities, conjunctions and tribes used by the separation demo."""
    rng = random.Random(seed)
    out: list[tuple[str, LinearBP]] = []
    out.append(("parity_all", parity_program(n, list(range(n)))))
    out.append(("conj_all", conjunction_program(n, list(range(n)))))
    for width in (2, 4, n // 2):
        vars_ = list(range(width))
        out.append((f"parity_{width}", parity_program(n, vars_)))
        out.append((f"conj_{width}", conjunction_program(n, vars_)))
    for block in (2, 4):
        if n % block == 0:
            out.append((f"tribes_{block}", tribes_program(n, block)))
    for i in range(extra_random):
        width = rng.randrange(2, n)
        vars_ = rng.sample(range(n), width)
        if rng.random() < 0.5:
            out.append((f"rand_parity_{i}", parity_program(n, vars_)))
        else:
            out.append((f"rand_conj_{i}", conjunction_program(n, vars_)))
    return out


def srolbp_bound_report(n: int, k: int, eps: Fraction) -> dict:
    """The cited size bound for a directional extractor candidate with
    measured bias eps at (n, k): SROLBP_sqrt(eps/2)(f) >= eps*2^(n-k-1).
    A derived report figure, not a verified claim."""
    bound = eps * (1 << (n - k - 1))
    return {
        "n": n,
        "k": k,
        "measured_bias": str(eps),
        "correlation_level": math.sqrt(float(eps) / 2),
        "size_lower_bound": str(bound),
        "note": "derived from the measured bias; the branching-program "
                "lower bound itself is not re-proved here",
    }
