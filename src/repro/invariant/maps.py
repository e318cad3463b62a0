"""Combinatorial-map support for realization (Theorem 3.5).

The realization algorithm draws each skeleton component of an invariant
from purely combinatorial data.  This module prepares that data:

* :func:`subdivided_component` — re-express one component as a *simple*
  graph by placing two subdivision nodes on every edge (killing loops and
  parallel edges), carrying the rotation system and facial walks over;
* block (biconnected component) decomposition with the block-cut tree.

Darts of the subdivided graph are ``(tail_node, head_node)`` pairs, which
is unambiguous in a simple graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import InvariantError
from .structure import TopologicalInvariant
from .validate import Dart, ValidationWitness

__all__ = ["SimpleComponentMap", "subdivided_component"]

Node = str
SDart = tuple[Node, Node]


@dataclass
class SimpleComponentMap:
    """A simple planar map for one skeleton component.

    Attributes
    ----------
    nodes:
        All node names: original vertex ids plus subdivision nodes
        ``"<edge>#a"`` / ``"<edge>#b"``.
    rotation:
        node -> CCW-cyclic tuple of neighbour nodes.
    walks:
        Facial walks as tuples of darts ``(tail, head)``; index-aligned
        with the original witness walks of this component.
    outer_walk:
        Index of the outer walk.
    edge_of_segment:
        maps each undirected node pair (sorted tuple) to the original
        edge id it belongs to.
    node_of_vertex:
        original vertex id -> node (identity for kept vertices).
    """

    nodes: list[Node]
    rotation: dict[Node, tuple[Node, ...]]
    walks: list[tuple[SDart, ...]]
    outer_walk: int
    edge_of_segment: dict[tuple[Node, Node], str]
    node_of_vertex: dict[str, Node]
    blocks: list[frozenset[tuple[Node, Node]]] = field(default_factory=list)
    cut_nodes: set[Node] = field(default_factory=set)

    def neighbours(self, node: Node) -> tuple[Node, ...]:
        return self.rotation[node]


def _edge_chain(edge: str, direction: int) -> list[Node]:
    """Internal node chain of a subdivided edge in dart direction.

    Direction 0 runs ``a -> b`` (endpoint order), direction 1 reverses.
    """
    a, b = f"{edge}#a", f"{edge}#b"
    return [a, b] if direction == 0 else [b, a]


def subdivided_component(
    t: TopologicalInvariant,
    witness: ValidationWitness,
    component_index: int,
) -> SimpleComponentMap:
    """Build the simple map of one component of a validated invariant."""
    component = witness.components[component_index]
    edges = sorted(e for e in component if e in t.edges)
    vertices = sorted(v for v in component if v in t.vertices)

    # Node set and segment structure.
    nodes: list[Node] = list(vertices)
    edge_of_segment: dict[tuple[Node, Node], str] = {}
    endpoints_of_edge: dict[str, tuple[Node, Node]] = {}
    for e in edges:
        eps = t.endpoints.get(e, ())
        nodes.extend([f"{e}#a", f"{e}#b"])
        if not eps:
            chain = [f"{e}#a", f"{e}#b"]
            segs = [(chain[0], chain[1]), (chain[1], chain[0])]
            # A free loop: two parallel segments would not be simple; the
            # caller must not reach this path (free loops are drawn
            # directly as squares).
            raise InvariantError(
                "free-loop components are drawn directly, not subdivided"
            )
        if len(eps) == 1:
            endpoints_of_edge[e] = (eps[0], eps[0])
        else:
            endpoints_of_edge[e] = (eps[0], eps[1])
        tail, head = endpoints_of_edge[e]
        chain = [tail, f"{e}#a", f"{e}#b", head]
        for u, v in zip(chain, chain[1:]):
            edge_of_segment[tuple(sorted((u, v)))] = e

    # Rotation: at original vertices, expand the witness rotation's darts
    # into subdivided neighbours; at subdivision nodes the rotation is the
    # trivial 2-cycle along the chain.
    rotation: dict[Node, tuple[Node, ...]] = {}
    for v in vertices:
        ring = witness.rotations[v]
        neighbours: list[Node] = []
        for (e, occ) in ring:
            if e not in component:
                raise InvariantError(
                    f"rotation at {v!r} references foreign edge {e!r}"
                )
            chain = _edge_chain(e, occ)
            neighbours.append(chain[0])
        rotation[v] = tuple(neighbours)
    for e in edges:
        tail, head = endpoints_of_edge[e]
        a, b = f"{e}#a", f"{e}#b"
        rotation[a] = (tail, b)
        rotation[b] = (a, head)

    # Walks carried onto the subdivided graph.
    walks: list[tuple[SDart, ...]] = []
    for walk in witness.walks_by_component[component_index]:
        sdarts: list[SDart] = []
        for (e, occ) in walk:
            tail, head = endpoints_of_edge[e]
            if occ == 1:
                tail, head = head, tail
            chain = [tail, *_edge_chain(e, occ), head]
            sdarts.extend(zip(chain, chain[1:]))
        walks.append(tuple(sdarts))

    smap = SimpleComponentMap(
        nodes=nodes,
        rotation=rotation,
        walks=walks,
        outer_walk=witness.outer_walk[component_index],
        edge_of_segment=edge_of_segment,
        node_of_vertex={v: v for v in vertices},
    )
    _decompose_blocks(smap)
    return smap


def _decompose_blocks(smap: SimpleComponentMap) -> None:
    """Biconnected components (as segment sets) and cut nodes.

    Iterative Hopcroft–Tarjan on the simple graph.
    """
    adj: dict[Node, list[Node]] = {n: [] for n in smap.nodes}
    for (u, v) in smap.edge_of_segment:
        adj[u].append(v)
        adj[v].append(u)

    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    counter = 0
    stack_edges: list[tuple[Node, Node]] = []
    blocks: list[frozenset[tuple[Node, Node]]] = []
    cut: set[Node] = set()

    for root in smap.nodes:
        if root in index:
            continue
        dfs: list[tuple[Node, Node | None, int]] = [(root, None, 0)]
        children_of_root = 0
        while dfs:
            node, parent, child_i = dfs.pop()
            if child_i == 0:
                index[node] = low[node] = counter
                counter += 1
            advanced = False
            neighbours = adj[node]
            while child_i < len(neighbours):
                nxt = neighbours[child_i]
                child_i += 1
                if nxt == parent:
                    # Simple graph: the unique edge to the parent is the
                    # tree edge; skip it.
                    continue
                if nxt not in index:
                    stack_edges.append(tuple(sorted((node, nxt))))
                    dfs.append((node, parent, child_i))
                    dfs.append((nxt, node, 0))
                    if node == root:
                        children_of_root += 1
                    advanced = True
                    break
                if index[nxt] < index[node]:
                    stack_edges.append(tuple(sorted((node, nxt))))
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            # node finished; propagate low to parent and cut blocks.
            if parent is not None:
                low[parent] = min(low[parent], low[node])
                if low[node] >= index[parent]:
                    if parent != root or children_of_root > 1:
                        cut.add(parent)
                    block: set[tuple[Node, Node]] = set()
                    key = tuple(sorted((parent, node)))
                    while stack_edges:
                        seg = stack_edges.pop()
                        block.add(seg)
                        if seg == key:
                            break
                    if block:
                        blocks.append(frozenset(block))
    smap.blocks = blocks
    smap.cut_nodes = cut
