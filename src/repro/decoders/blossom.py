"""Exact minimum-weight matching on a dense distance matrix.

The compiled decoder's matcher for defect sets the subset dynamic
program leaves behind.  It is the primal-dual O(k^3) blossom algorithm
(Galil 1986, after Van Rantwijk's implementation) that
``networkx.max_weight_matching(maxcardinality=True)`` runs, ported to
array indices: vertices are ``0..k-1``, non-trivial blossoms get ids
from ``k`` up in creation order, and duals, labels, mates and best
edges live in flat lists instead of dictionaries keyed by graph nodes.

Every choice the reference makes by iteration order is made in the
same order here, so the matching is the one NetworkX returns on the
graph the reference decoder builds — ties included:

* neighbours are scanned in ascending index (the adjacency order of a
  graph whose edges ``(i, j), i < j`` were added lexicographically);
* vertices are labelled and searched for ``delta`` in the graph's node
  order (first appearance in that edge list), blossoms in creation
  order;
* every running minimum keeps the first of equal candidates.

The neighbour scan stays a scalar loop over Python lists with the slack
inlined rather than NumPy over a row: at the decoder's sizes (k ~ 20 to
50) the dozen NumPy calls one vectorized scan needs (slack row, masks,
an argmin, a best-edge update) take ~30 us, against ~5 us for a whole
scalar scan at k ~ 22 (2-core x86 host).
"""

from __future__ import annotations

import numpy as np


def node_order(finite: np.ndarray) -> np.ndarray:
    """The vertices that have an edge, in the order a graph built by
    adding every finite pair ``(i, j), i < j`` lexicographically first
    sees them.

    A vertex enters with its first edge: ``(i, v)`` for the smallest
    ``i < v`` if there is one, else ``(v, j)`` for the smallest ``j``;
    of an edge's two new ends the smaller enters first.
    """
    k = finite.shape[0]
    upper = np.triu(finite, 1)
    has_lower = upper.any(axis=0)
    vertex = np.arange(k)
    first_edge = np.where(
        has_lower,
        upper.argmax(axis=0) * k + vertex,
        vertex * k + upper.argmax(axis=1),
    )
    (present,) = np.nonzero(finite.any(axis=1))
    key = first_edge[present] * 2 + has_lower[present]
    return present[np.argsort(key, kind="stable")]


def min_weight_matching(dist: np.ndarray) -> np.ndarray:
    """Maximum-cardinality minimum-weight matching of ``dist``.

    ``dist`` is a ``(k, k)`` float64 matrix of pair weights, ``inf``
    marking pairs that cannot be matched; only its upper triangle is
    read.  Returns ``mate``: ``mate[i]`` is the partner of ``i`` or
    ``-1``.  Identical to ``networkx.max_weight_matching(graph,
    maxcardinality=True)`` on the graph with an edge of weight
    ``-dist[i, j]`` for every finite pair, added in lexicographic order.
    """
    k = dist.shape[0]
    # Pair (i, j), i < j, is the edge; an all-pairs table need not be
    # bitwise symmetric.
    dist = np.triu(dist, 1)
    dist += dist.T
    finite = np.isfinite(dist)
    np.fill_diagonal(finite, False)
    mate = np.full(k, -1, dtype=np.int64)
    if not finite.any():
        return mate
    if np.count_nonzero(finite) == k * (k - 1):
        # Every pair is an edge (the decoder's usual case).
        order = list(range(k))
        neighbors = [order[:v] + order[v + 1:] for v in order]
    else:
        order = node_order(finite).tolist()
        neighbors = [np.flatnonzero(row).tolist() for row in finite]
    # The reference maximizes the weights -dist: twice each weight, and
    # the initial vertex dual max(0, largest weight).
    twice = (-2.0 * dist).tolist()
    largest = -dist[finite].min()
    mate[:] = _Matcher(twice, neighbors, order, max(0.0, largest)).run()
    return mate


class _Matcher:
    """One run of the primal-dual method (the reference's closures as
    methods, its dictionaries as lists indexed by vertex or blossom)."""

    def __init__(self, twice, neighbors, order, dual):
        n = len(twice)
        self.n = n
        self.twice = twice
        self.neighbors = neighbors
        self.order = order
        # Per vertex.
        self.mate = [-1] * n
        self.dual = [dual] * n
        self.inblossom = list(range(n))
        # Per vertex or blossom id (blossoms append from id n on).
        self.label = [0] * n
        self.labeledge = [None] * n
        self.bestedge = [None] * n
        self.parent = [-1] * n
        self.base = list(range(n))
        self.childs = [None] * n
        self.edges = [None] * n
        self.mybestedges = [None] * n
        self.blossomdual = [0.0] * n
        # Live non-trivial blossoms, in creation order.
        self.live: list[int] = []
        self.allowed = [bytearray(n) for _ in range(n)]
        self.queue: list[int] = []

    def slack(self, v: int, w: int) -> float:
        """Twice the slack of edge ``(v, w)`` (outside blossoms)."""
        return self.dual[v] + self.dual[w] - self.twice[v][w]

    def leaves(self, b: int) -> list[int]:
        """``b``'s vertices, in the reference's stack order."""
        n = self.n
        stack = list(self.childs[b])
        out = []
        while stack:
            t = stack.pop()
            if t >= n:
                stack.extend(self.childs[t])
            else:
                out.append(t)
        return out

    def assign_label(self, w: int, t: int, v: int) -> None:
        """Label the top-level blossom of ``w`` with ``t`` (1 = S,
        2 = T), reached through ``v`` (``-1``: a single vertex)."""
        label = self.label
        while True:
            b = self.inblossom[w]
            label[w] = label[b] = t
            edge = None if v < 0 else (v, w)
            self.labeledge[w] = self.labeledge[b] = edge
            self.bestedge[w] = self.bestedge[b] = None
            if t == 1:
                if b >= self.n:
                    self.queue.extend(self.leaves(b))
                else:
                    self.queue.append(b)
                return
            # A T-blossom's base mate becomes S.
            v = self.base[b]
            w, t = self.mate[v], 1

    def scan_blossom(self, v: int, w: int) -> int:
        """Trace back from ``v`` and ``w``: the base of a new blossom,
        or ``-1`` when the two paths form an augmenting path."""
        label, labeledge, inblossom = self.label, self.labeledge, self.inblossom
        path = []
        base = -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = self.base[b]
                break
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                v = -1
            else:
                v = labeledge[inblossom[labeledge[b][0]]][0]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def new_blossom(self) -> int:
        """A fresh blossom id (ids are not reused, so id order is
        creation order)."""
        b = len(self.label)
        self.label.append(0)
        for store in (
            self.labeledge, self.bestedge, self.childs, self.edges,
            self.mybestedges,
        ):
            store.append(None)
        self.parent.append(-1)
        self.base.append(-1)
        self.blossomdual.append(0.0)
        self.live.append(b)
        return b

    def add_blossom(self, base: int, v: int, w: int) -> None:
        """Contract the odd cycle through S-vertices ``v`` and ``w`` into
        a new S-blossom with base ``base``."""
        n = self.n
        inblossom, label, labeledge = self.inblossom, self.label, self.labeledge
        parent, bestedge = self.parent, self.bestedge
        bb, bv, bw = inblossom[base], inblossom[v], inblossom[w]
        b = self.new_blossom()
        self.base[b] = base
        parent[bb] = b
        path = []
        edges = [(v, w)]
        while bv != bb:
            parent[bv] = b
            path.append(bv)
            edges.append(labeledge[bv])
            bv = inblossom[labeledge[bv][0]]
        path.append(bb)
        path.reverse()
        edges.reverse()
        while bw != bb:
            parent[bw] = b
            path.append(bw)
            edges.append((labeledge[bw][1], labeledge[bw][0]))
            bw = inblossom[labeledge[bw][0]]
        self.childs[b] = path
        self.edges[b] = edges
        label[b] = 1
        labeledge[b] = labeledge[bb]
        for leaf in self.leaves(b):
            if label[inblossom[leaf]] == 2:
                # A T-vertex turns S inside the new S-blossom.
                self.queue.append(leaf)
            inblossom[leaf] = b
        # Least-slack edges from the new blossom to each neighbouring
        # S-blossom (dict order: first reached).
        slack = self.slack
        bestedgeto: dict[int, tuple[int, int]] = {}
        for sub in path:
            if sub >= n:
                if self.mybestedges[sub] is not None:
                    candidates = self.mybestedges[sub]
                    self.mybestedges[sub] = None
                else:
                    candidates = [
                        (i, j)
                        for i in self.leaves(sub)
                        for j in self.neighbors[i]
                    ]
            else:
                candidates = [(sub, j) for j in self.neighbors[sub]]
            for edge in candidates:
                i, j = edge
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (
                    bj != b
                    and label[bj] == 1
                    and (
                        bj not in bestedgeto
                        or slack(i, j) < slack(*bestedgeto[bj])
                    )
                ):
                    bestedgeto[bj] = edge
            bestedge[sub] = None
        self.mybestedges[b] = list(bestedgeto.values())
        best = None
        for edge in self.mybestedges[b]:
            edge_slack = slack(*edge)
            if best is None or edge_slack < best_slack:
                best, best_slack = edge, edge_slack
        bestedge[b] = best

    def expand_blossom(self, b: int, endstage: bool) -> None:
        """Dissolve top-level blossom ``b`` into its sub-blossoms; at
        the end of a stage, recursively those with zero dual too."""
        n = self.n
        inblossom, label, labeledge = self.inblossom, self.label, self.labeledge
        childs = self.childs[b]
        for s in childs:
            self.parent[s] = -1
            if s >= n:
                if endstage and self.blossomdual[s] == 0:
                    self.expand_blossom(s, endstage)
                else:
                    for leaf in self.leaves(s):
                        inblossom[leaf] = s
            else:
                inblossom[s] = s
        if not endstage and label[b] == 2:
            # Relabel the sub-blossoms of an expanding T-blossom, from
            # the one it was entered through round to the base.
            allowed = self.allowed
            edges = self.edges[b]
            entrychild = inblossom[labeledge[b][1]]
            j = childs.index(entrychild)
            if j & 1:
                j -= len(childs)
                jstep = 1
            else:
                jstep = -1
            v, w = labeledge[b]
            while j != 0:
                if jstep == 1:
                    p, q = edges[j]
                else:
                    q, p = edges[j - 1]
                label[w] = 0
                label[q] = 0
                self.assign_label(w, 2, v)
                allowed[p][q] = allowed[q][p] = 1
                j += jstep
                if jstep == 1:
                    v, w = edges[j]
                else:
                    w, v = edges[j - 1]
                allowed[v][w] = allowed[w][v] = 1
                j += jstep
            bw = childs[j]
            label[w] = label[bw] = 2
            labeledge[w] = labeledge[bw] = (v, w)
            self.bestedge[bw] = None
            j += jstep
            while childs[j] != entrychild:
                bv = childs[j]
                j += jstep
                if label[bv] == 1:
                    continue
                if bv >= n:
                    for v in self.leaves(bv):
                        if label[v]:
                            break
                else:
                    v = bv
                if label[v]:
                    label[v] = 0
                    label[self.mate[self.base[bv]]] = 0
                    self.assign_label(v, 2, labeledge[v][0])
        label[b] = 0
        labeledge[b] = None
        self.bestedge[b] = None
        self.live.remove(b)

    def augment_blossom(self, b: int, v: int) -> None:
        """Swap matched and unmatched edges along the even path from
        ``v`` to ``b``'s base, then make ``v`` the base."""
        n = self.n
        parent, mate = self.parent, self.mate
        t = v
        while parent[t] != b:
            t = parent[t]
        if t >= n:
            self.augment_blossom(t, v)
        childs, edges = self.childs[b], self.edges[b]
        i = j = childs.index(t)
        if i & 1:
            j -= len(childs)
            jstep = 1
        else:
            jstep = -1
        while j != 0:
            j += jstep
            t = childs[j]
            if jstep == 1:
                w, x = edges[j]
            else:
                x, w = edges[j - 1]
            if t >= n:
                self.augment_blossom(t, w)
            j += jstep
            t = childs[j]
            if t >= n:
                self.augment_blossom(t, x)
            mate[w] = x
            mate[x] = w
        self.childs[b] = childs[i:] + childs[:i]
        self.edges[b] = edges[i:] + edges[:i]
        self.base[b] = self.base[self.childs[b][0]]

    def augment_matching(self, v: int, w: int) -> None:
        """Augment along the path through S-vertices ``v`` and ``w``."""
        n = self.n
        inblossom, labeledge, mate = self.inblossom, self.labeledge, self.mate
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                if bs >= n:
                    self.augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    break
                bt = inblossom[labeledge[bs][0]]
                s, j = labeledge[bt]
                if bt >= n:
                    self.augment_blossom(bt, j)
                mate[j] = s

    def scan(self, v: int) -> bool:
        """Grow the search tree from S-vertex ``v``; True once an
        augmenting path was found (and used).

        The reference's neighbour loop with its slacks inlined: the
        duals do not move during a scan, so ``v``'s row and the slack of
        its blossom's best edge are read once, and again only after a
        tight edge changed the labels.
        """
        inblossom, label = self.inblossom, self.label
        bestedge, dual, twice = self.bestedge, self.dual, self.twice
        allowed = self.allowed[v]
        dual_v, twice_v = dual[v], twice[v]
        bv = inblossom[v]
        best = bestedge[bv]
        if best is not None:
            x, y = best
            best_slack = dual[x] + dual[y] - twice[x][y]
        for w in self.neighbors[v]:
            bw = inblossom[w]
            if bv == bw:
                continue
            if not allowed[w]:
                kslack = dual_v + dual[w] - twice_v[w]
                if kslack > 0:
                    if label[bw] == 1:
                        # Least-slack edge to a different S-blossom.
                        if best is None or kslack < best_slack:
                            best = bestedge[bv] = (v, w)
                            best_slack = kslack
                    elif label[w] == 0:
                        # Least-slack edge into a free (or unreached)
                        # vertex.
                        edge = bestedge[w]
                        if edge is None:
                            bestedge[w] = (v, w)
                        else:
                            x, y = edge
                            if kslack < dual[x] + dual[y] - twice[x][y]:
                                bestedge[w] = (v, w)
                    continue
                allowed[w] = self.allowed[w][v] = 1
            if label[bw] == 0:
                self.assign_label(w, 2, v)
            elif label[bw] == 1:
                base = self.scan_blossom(v, w)
                if base == -1:
                    self.augment_matching(v, w)
                    return True
                self.add_blossom(base, v, w)
            elif label[w] == 0:
                label[w] = 2
                self.labeledge[w] = (v, w)
            bv = inblossom[v]
            best = bestedge[bv]
            if best is not None:
                x, y = best
                best_slack = dual[x] + dual[y] - twice[x][y]
        return False

    def run(self) -> list[int]:
        """Stages until no augmenting path is left; the mates."""
        n = self.n
        label, parent, inblossom = self.label, self.parent, self.inblossom
        bestedge, dual, blossomdual = self.bestedge, self.dual, self.blossomdual
        order, mate = self.order, self.mate
        while True:
            # One stage: find an augmenting path.
            ids = len(label)
            label[:] = [0] * ids
            self.labeledge[:] = [None] * ids
            bestedge[:] = [None] * ids
            for b in self.live:
                self.mybestedges[b] = None
            self.allowed = [bytearray(n) for _ in range(n)]
            self.queue = queue = []
            for v in order:
                if mate[v] == -1 and label[inblossom[v]] == 0:
                    self.assign_label(v, 1, -1)
            augmented = False
            while True:
                while queue and not augmented:
                    augmented = self.scan(queue.pop())
                if augmented:
                    break
                # No augmenting path: move the duals by delta.
                deltatype = -1
                delta = deltaedge = deltablossom = None
                for v in order:
                    if label[inblossom[v]] == 0 and bestedge[v] is not None:
                        d = self.slack(*bestedge[v])
                        if deltatype == -1 or d < delta:
                            delta, deltatype, deltaedge = d, 2, bestedge[v]
                for b in order + self.live:
                    if (
                        parent[b] == -1
                        and label[b] == 1
                        and bestedge[b] is not None
                    ):
                        d = self.slack(*bestedge[b]) / 2.0
                        if deltatype == -1 or d < delta:
                            delta, deltatype, deltaedge = d, 3, bestedge[b]
                for b in self.live:
                    if (
                        parent[b] == -1
                        and label[b] == 2
                        and (deltatype == -1 or blossomdual[b] < delta)
                    ):
                        delta, deltatype, deltablossom = blossomdual[b], 4, b
                if deltatype == -1:
                    # Maximum cardinality reached.
                    deltatype = 1
                    delta = max(0, min(dual[v] for v in order))
                for v in range(n):
                    t = label[inblossom[v]]
                    if t == 1:
                        dual[v] -= delta
                    elif t == 2:
                        dual[v] += delta
                for b in self.live:
                    if parent[b] == -1:
                        if label[b] == 1:
                            blossomdual[b] += delta
                        elif label[b] == 2:
                            blossomdual[b] -= delta
                if deltatype == 1:
                    break
                if deltatype == 4:
                    self.expand_blossom(deltablossom, False)
                else:
                    v, w = deltaedge
                    self.allowed[v][w] = self.allowed[w][v] = 1
                    queue.append(v)
            if not augmented:
                break
            # End of stage: expand S-blossoms whose dual reached zero.
            for b in list(self.live):
                if (
                    b in self.live
                    and parent[b] == -1
                    and label[b] == 1
                    and blossomdual[b] == 0
                ):
                    self.expand_blossom(b, True)
        return mate
