"""The layered scene graph instance: typed nodes, typed edges, feature access.

A node's features (``Features``) are a plain tuple of ``(label, desc)`` pairs,
and one method, ``SceneGraph.leaves_of``, lists a place's leaves, whose pairs
are its features: its objects, then the connectors it links to.

A graph is bound to a schema; every stored edge triple (source concept, edge
kind, target concept) must be permitted by it.  Node ids follow the
``<label-or-class>_<counter>`` convention (``livingroom_1``, ``door_2``) so
graph content can be rendered verbatim into text prompts.
"""

from __future__ import annotations

import json
from bisect import insort
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType

from .schema import (
    CONNECTOR,
    CONNECTS_TO,
    CONTAINS,
    HAS,
    IS_NEAR,
    OBJECT_ROLE,
    PLACE,
    REGION,
    ConceptKind,
    EdgeKind,
    Schema,
)

__all__ = [
    "ObjectNode",
    "PlaceNode",
    "ConnectorNode",
    "RegionNode",
    "SceneGraph",
    "GraphError",
    "UnknownNodeError",
    "EdgeRuleError",
    "GraphCorruptionError",
    "validate_graph",
    "import_graph",
]


class GraphError(Exception):
    pass


class UnknownNodeError(GraphError):
    pass


class EdgeRuleError(GraphError):
    pass


class GraphCorruptionError(GraphError):
    pass


@dataclass(slots=True)
class ObjectNode:
    label: str
    desc: str = ""
    image_ref: str = ""
    id: str = ""
    # the schema's object concept, set by ``SceneGraph.add_node``
    cls: str = field(default="", init=False)

    kind = OBJECT_ROLE


@dataclass(slots=True)
class PlaceNode:
    cls: str
    label: str
    id: str = ""
    aliases: list[str] = field(default_factory=list)

    kind = PLACE


@dataclass(slots=True)
class ConnectorNode:
    cls: str
    label: str
    desc: str = ""
    image_ref: str = ""
    id: str = ""

    kind = CONNECTOR


@dataclass(slots=True)
class RegionNode:
    cls: str
    label: str
    id: str = ""

    kind = REGION


Node = ObjectNode | PlaceNode | ConnectorNode | RegionNode


# a node's semantic context: the (label, desc) pair of each of its neighbours
Features = tuple[tuple[str, str], ...]


# the edge kind whose targets' labels make up a node's candidate row
_SUMMARY_EDGE = {PLACE: HAS, REGION: CONTAINS, CONNECTOR: IS_NEAR}
# the kinds stored both ways, with the name an audit gives their edges
_SYMMETRIC = {CONNECTS_TO: "connectivity", IS_NEAR: "proximity"}
# the node kinds of the place/connector adjacency
_LINKED = (PLACE, CONNECTOR)


def _id_prefix(node: Node) -> str:
    # a blank-label object is numbered as "node", any other node by its class
    return node.label.strip() or ("node" if node.kind is OBJECT_ROLE else node.cls)


def _dot_quoted(text: str) -> str:
    """``text`` as a DOT quoted string: ``\\`` and ``"`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


class SceneGraph:
    """Mutable layered scene graph bound to a schema.

    One writer at a time; readers may interleave between mutations.  The
    ``version`` counter advances once per added node, edge or symmetric
    pair, which lets planners detect staleness cheaply.  Connectivity
    (``CONNECTS_TO``) and proximity (``IS_NEAR``) are symmetric: ``add_edge``
    stores either both ways, as one mutation.  The mapper writes proximity
    only for pairs with a connector at one end, since no decision reads the
    proximity of two objects; ``add_edge`` still stores such a pair when a
    caller offers it.

    The derived views are maintained on write, not rebuilt on read: the
    place/connector adjacency, the node lists per concept kind,
    each place's, region's and connector's candidate row
    (``candidate_rows``: id, label and the tuple of its children's labels,
    extended by each ``HAS``, ``CONTAINS`` or ``IS_NEAR`` insert from it; an
    object is never a candidate and keeps no row), each connector's count
    of place-side neighbours (``connector_place_counts``), each node's
    ``(label, desc)`` pair and the ``image_ref`` -> node index.  Nodes
    and edges are never removed, and a node's kind, class and label never
    change after ``add_node``.  A leaf's ``desc`` and ``image_ref`` change only through
    ``set_leaf``, never by assignment.

    A node's concept kind fixes where it sits: places and connectors join
    the adjacency, a connector keeps a place count, and a place's, region's
    and connector's row follows its ``HAS``, ``CONTAINS`` or ``IS_NEAR``
    edges.  A node carries its schema class (``cls``, set by ``add_node``
    for an object) and its layer is its class's; an edge lives in its
    source's out-list (a non-symmetric kind also in its target's in-list),
    which ``has_edge`` reads.  Every write reads these facts off the nodes
    and the lists; no other table repeats them.

    Two views are kept on read instead.  ``object_features`` of objects,
    connectors and places reads the node's own out-lists and is memoised per
    node; an entry is dropped when an ``IS_NEAR``, ``HAS`` or ``CONNECTS_TO``
    edge from the node is stored or ``set_leaf`` changes a neighbour's ``desc``.
    ``hop_tree`` keeps one breadth-first tree, for the latest ``(version,
    source)``.  ``connectivity_subgraph()``, ``connector_place_counts()``,
    ``out_targets``, the features, the rows and the tree are the graph's own
    objects: read them, never modify them.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self._nodes: dict[str, Node] = {}
        self._counters: dict[str, int] = {}
        self._out: dict[str, dict[EdgeKind, list[str]]] = {}
        self._in: dict[str, dict[EdgeKind, list[str]]] = {}  # non-symmetric kinds only
        self._adj: dict[str, dict[str, float]] = {}
        self._by_kind: dict[ConceptKind, list[Node]] = {kind: [] for kind in ConceptKind}
        # place, region or connector id -> (id, label, children's labels), the
        # row a planning query hands the oracle
        self._rows: dict[str, tuple[str, str, tuple[str, ...]]] = {}
        self._place_counts: dict[str, int] = {}
        self._pairs: dict[str, tuple[str, str]] = {}
        self._features: dict[str, Features] = {}
        self._rank: dict[str, int] = {}
        self._by_ref: dict[str, list[str]] = {}
        self._tree: tuple[int, str, Mapping[str, int], dict[str, str]] | None = None
        self.version = 0

    # -- nodes ---------------------------------------------------------------

    def add_node(self, node: Node) -> str:
        """Store a node under a fresh ``<label-or-class>_<counter>`` id and return it.

        An object's ``cls`` is set to the schema's object concept.  Raises
        ``EdgeRuleError``, and stores nothing, unless the schema holds the
        node's class as a concept of the node's kind.
        """
        kind = node.kind
        if kind is OBJECT_ROLE:
            role = self.schema.object_concept
            if role is None:
                raise EdgeRuleError("schema declares no object concept")
            node.cls = role.name
        cls = node.cls
        concept = self.schema.concepts.get(cls)
        if concept is None or concept.kind is not kind:
            raise EdgeRuleError(
                f"class {cls!r} is not a {kind.value} concept of the active schema"
            )
        prefix = _id_prefix(node)
        count = self._counters.get(prefix, 0) + 1
        self._counters[prefix] = count
        node_id = node.id = f"{prefix}_{count}"
        self._nodes[node_id] = node
        self._out[node_id] = {}
        self._in[node_id] = {}
        if kind in _LINKED:
            self._adj[node_id] = {}
        if kind in _SUMMARY_EDGE:
            self._rows[node_id] = (node_id, node.label, ())
        if kind is CONNECTOR:
            self._place_counts[node_id] = 0
        self._by_kind[kind].append(node)
        self._pairs[node_id] = (node.label, getattr(node, "desc", ""))
        self._rank[node_id] = len(self._rank)
        image_ref = getattr(node, "image_ref", "")
        if image_ref:
            # a new node ranks last, so appending keeps the holders in rank order
            self._by_ref.setdefault(image_ref, []).append(node_id)
        self.version += 1
        return node_id

    def set_leaf(
        self, node_id: str, *, desc: str | None = None, image_ref: str | None = None
    ) -> None:
        """Change an object's or connector's ``desc`` or ``image_ref``; ``None`` keeps it.

        Not a structural mutation: ``version`` stays.  The features of every
        node that aggregates this leaf's pair are dropped, to be rebuilt on
        their next read: its ``HAS`` holders, its ``IS_NEAR`` neighbours and
        the places a connector ``CONNECTS_TO``.
        """
        node = self.node(node_id)
        if not isinstance(node, (ObjectNode, ConnectorNode)):
            raise GraphError(f"{node_id!r} is not a leaf node")
        if desc is not None and desc != node.desc:
            node.desc = desc
            self._pairs[node_id] = (node.label, desc)
            # proximity and connectivity are stored both ways: the leaf's
            # neighbours and the places a connector joins are its out-lists
            out, held_by = self._out[node_id], self._in[node_id].get(HAS, ())
            for holders in (out.get(IS_NEAR, ()), out.get(CONNECTS_TO, ()), held_by):
                for holder in holders:
                    self._features.pop(holder, None)
        if image_ref is not None and image_ref != node.image_ref:
            if node.image_ref:
                holders = self._by_ref[node.image_ref]
                holders.remove(node_id)
                if not holders:
                    del self._by_ref[node.image_ref]
            node.image_ref = image_ref
            if image_ref:
                insort(self._by_ref.setdefault(image_ref, []), node_id, key=self._rank.__getitem__)

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"no node {node_id!r}") from None

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def nodes(self, kind: ConceptKind | None = None) -> list[Node]:
        if kind is None:
            return list(self._nodes.values())
        return list(self._by_kind[kind])

    def places(self) -> list[PlaceNode]:
        return list(self._by_kind[PLACE])

    def count(self, kind: ConceptKind) -> int:
        """How many nodes of a concept kind the graph holds."""
        return len(self._by_kind[kind])

    def node_layer(self, node_id: str) -> int:
        return self.schema.concepts[self.node(node_id).cls].layer_id

    # -- edges ---------------------------------------------------------------

    def has_edge(self, src: str, dst: str, kind: EdgeKind) -> bool:
        out = self._out.get(src)
        return out is not None and dst in out.get(kind, ())

    def add_edge(self, src: str, dst: str, kind: EdgeKind) -> None:
        if not self._admits(src, dst, kind):
            return
        self._insert(src, dst, kind)
        # a symmetric kind is stored both ways, so the reverse is missing too
        if kind in _SYMMETRIC:
            self._insert(dst, src, kind)
        self.version += 1

    def _admits(self, src: str, dst: str, kind: EdgeKind) -> bool:
        """Raise for an edge the schema or the containment forest forbids.

        Returns False when the edge is already stored: it was admitted then.
        """
        nodes = self._nodes
        try:
            src_cls, dst_cls = nodes[src].cls, nodes[dst].cls
        except KeyError as missing:
            raise UnknownNodeError(f"no node {missing.args[0]!r}") from None
        if dst in self._out[src].get(kind, ()):
            return False
        if src == dst:
            raise EdgeRuleError(f"self-loop on {src!r} rejected")
        if not self.schema.permits(src_cls, kind, dst_cls):
            raise EdgeRuleError(f"schema forbids {kind.value} edge {src_cls} -> {dst_cls}")
        if kind is CONTAINS:
            parents = self._in[dst].get(kind)
            if parents:
                raise EdgeRuleError(
                    f"{dst!r} already has a containing parent {parents[0]!r}"
                )
        return True

    def _insert(self, src: str, dst: str, kind: EdgeKind) -> None:
        self._out[src].setdefault(kind, []).append(dst)
        # a symmetric kind's in-list would repeat its out-list
        if kind not in _SYMMETRIC:
            self._in[dst].setdefault(kind, []).append(src)
        nodes = self._nodes
        src_kind = nodes[src].kind
        if kind is CONNECTS_TO:
            adj = self._adj
            if src in adj and dst in adj:
                adj[src][dst] = 1.0
                if src_kind is CONNECTOR and nodes[dst].kind is PLACE:
                    self._place_counts[src] += 1
        # a node's features read its own IS_NEAR, HAS and CONNECTS_TO out-lists only
        if kind is not CONTAINS:
            self._features.pop(src, None)
        if kind is _SUMMARY_EDGE.get(src_kind):
            _, name, labels = self._rows[src]
            self._rows[src] = (src, name, labels + (nodes[dst].label,))

    def edges(self) -> list[tuple[str, str, EdgeKind]]:
        out = []
        for src, by_kind in self._out.items():
            for kind, targets in by_kind.items():
                for dst in targets:
                    out.append((src, dst, kind))
        return out

    def out_neighbors(self, node_id: str, kind: EdgeKind) -> list[str]:
        self.node(node_id)
        return list(self._out[node_id].get(kind, ()))

    def in_neighbors(self, node_id: str, kind: EdgeKind) -> list[str]:
        self.node(node_id)
        by_kind = self._out if kind in _SYMMETRIC else self._in
        return list(by_kind[node_id].get(kind, ()))

    def out_targets(self, node_id: str, kind: EdgeKind) -> Sequence[str]:
        """``out_neighbors`` without the copy: the graph's own sequence."""
        try:
            return self._out[node_id].get(kind, ())
        except KeyError:
            raise UnknownNodeError(f"no node {node_id!r}") from None

    # -- derived views ---------------------------------------------------------

    def object_features(self, node_id: str) -> Features:
        """The ``(label, desc)`` pairs of a place's leaves or of a leaf's proximity neighbours.

        A place's are its objects', then its connectors' (``leaves_of``): the
        observation side of place matching always carries doors and stairs, so
        the stored side does too.  A leaf's are its ``IS_NEAR`` neighbours, in
        edge order: on a mapped graph an object's are the connectors seen near
        it, and a connector's are the objects and connectors seen near it.  A
        region has none and raises ``GraphError``.  Memoised (see the class
        docstring) and shared: read, never modify.
        """
        features = self._features.get(node_id)
        if features is not None:
            return features
        kind = self.node(node_id).kind
        if kind is REGION:
            raise GraphError(f"{node_id!r} is a region, which has no features")
        leaves = self.leaves_of(node_id) if kind is PLACE else self._out[node_id].get(IS_NEAR, ())
        pairs = self._pairs
        features = self._features[node_id] = tuple([pairs[nb] for nb in leaves])
        return features

    def leaves_of(self, place_id: str) -> list[str]:
        """A place's leaves: its ``HAS`` objects, then the connectors it ``CONNECTS_TO``.

        Each group is in edge insertion order; a place it connects to directly
        is no leaf.  The list is new.
        """
        try:
            out = self._out[place_id]
        except KeyError:
            raise UnknownNodeError(f"no node {place_id!r}") from None
        nodes = self._nodes
        leaves = list(out.get(HAS, ()))
        leaves += [nb for nb in out.get(CONNECTS_TO, ()) if nodes[nb].kind is CONNECTOR]
        return leaves

    def candidate_rows(self, node_ids: Iterable[str]) -> list[tuple[str, str, tuple[str, ...]]]:
        """The ``(id, label, labels)`` row of each place, region or connector, in order.

        ``labels`` is the tuple of the labels of a place's ``HAS`` targets, a
        region's ``CONTAINS`` children or a connector's ``IS_NEAR`` neighbours,
        in edge order; each label stays whole, commas and all.  An object has
        no row: its id raises ``KeyError``.  The list is new.
        """
        rows = self._rows
        return [rows[n] for n in node_ids]

    def connector_place_counts(self) -> dict[str, int]:
        """Connector id -> number of places it ``CONNECTS_TO``, in node insertion order.

        The mapping is the graph's own, kept up to date by every write: read
        it, never modify it.
        """
        return self._place_counts

    def connectivity_subgraph(self) -> dict[str, dict[str, float]]:
        """Undirected adjacency over the place/connector layer.

        Each neighbour maps to its hop cost, always 1.0: connectivity is
        unit-cost.  Key order follows node insertion order and neighbour
        order follows edge insertion order, keeping downstream tie-breaks
        reproducible across processes.  The mapping is the graph's own, kept
        up to date by every write: read it, never modify it.
        """
        return self._adj

    def hop_tree(self, source: str) -> tuple[Mapping[str, int], Mapping[str, str]]:
        """Breadth-first tree over the connectivity layer from ``source``.

        Returns hop counts and each reached node's first-discoverer parent,
        visiting neighbours in adjacency order.  The graph keeps the tree for
        the latest ``(version, source)`` only; both mappings are its own.
        ``source`` must be a place or connector.
        """
        tree = self._tree
        if tree is None or tree[0] != self.version or tree[1] != source:
            adj = self._adj
            dist = {source: 0}
            parent: dict[str, str] = {}
            queue = deque([source])
            while queue:
                node = queue.popleft()
                hops = dist[node] + 1
                for nb in adj[node]:
                    if nb not in dist:
                        dist[nb] = hops
                        parent[nb] = node
                        queue.append(nb)
            tree = self._tree = (self.version, source, MappingProxyType(dist), parent)
        return tree[2], tree[3]

    def parent_region(self, node_id: str) -> str | None:
        parents = self.in_neighbors(node_id, CONTAINS)
        if not parents:
            return None
        if len(parents) > 1:
            raise GraphCorruptionError(
                f"{node_id!r} has {len(parents)} containing parents: {parents}"
            )
        return parents[0]

    def find_by_image_ref(self, image_ref: str) -> str | None:
        """The first node, in insertion order, that holds ``image_ref`` now."""
        holders = self._by_ref.get(image_ref)
        return holders[0] if holders else None

    # -- export ----------------------------------------------------------------

    def export(self, fmt: str = "structured") -> str:
        if fmt == "structured":
            return self._export_structured()
        if fmt == "dot":
            return self._export_dot()
        raise ValueError(f"unknown export format {fmt!r}")

    def _export_structured(self) -> str:
        nodes = []
        for node in self._nodes.values():
            entry = {
                "id": node.id,
                "layer": self.node_layer(node.id),
                "cls": node.cls,
                "label": node.label,
                "desc": getattr(node, "desc", ""),
            }
            image_ref = getattr(node, "image_ref", "")
            if image_ref:
                entry["image_ref"] = image_ref
            aliases = getattr(node, "aliases", None)
            if aliases:
                entry["aliases"] = list(aliases)
            nodes.append(entry)
        edges = [
            {"src": src, "dst": dst, "kind": kind.value} for src, dst, kind in self.edges()
        ]
        return json.dumps({"nodes": nodes, "edges": edges}, indent=2, ensure_ascii=False) + "\n"

    def _export_dot(self) -> str:
        lines = ["digraph scene {", "  rankdir=BT;"]
        by_layer: dict[int, list[Node]] = {}
        for node in self._nodes.values():
            by_layer.setdefault(self.node_layer(node.id), []).append(node)
        for layer in sorted(by_layer):
            lines.append(f"  subgraph cluster_{layer} {{")
            lines.append(f'    label="layer {layer}";')
            for node in by_layer[layer]:
                lines.append(f"    {_dot_quoted(node.id)} [label={_dot_quoted(node.label)}];")
            lines.append("  }")
        style = {
            IS_NEAR: "dashed",
            CONNECTS_TO: "solid",
            HAS: "dotted",
            CONTAINS: "bold",
        }
        for src, dst, kind in self.edges():
            lines.append(f"  {_dot_quoted(src)} -> {_dot_quoted(dst)} [style={style[kind]}];")
        lines.append("}")
        return "\n".join(lines) + "\n"


_NO_HOPS: Mapping[str, int] = MappingProxyType({})


def hop_distances(graph: SceneGraph, source: str | None) -> Mapping[str, int]:
    """BFS hop counts over the connectivity layer from a source node.

    The counts are those of the graph's kept ``hop_tree``, as a read-only
    mapping; empty when ``source`` is not a place or connector.
    """
    if source is None or source not in graph.connectivity_subgraph():
        return _NO_HOPS
    return graph.hop_tree(source)[0]


def hop_order(ids: Iterable[str], distances: Mapping[str, int]) -> list[str]:
    """``ids`` nearest-first by ``distances``; equal hops and unreachable ids keep input order."""
    get = distances.get
    inf = float("inf")
    return sorted(ids, key=lambda n: get(n, inf))


def import_graph(document: str, schema: Schema) -> SceneGraph:
    """Rebuild a graph from its structured export.

    Edges are inserted one triple at a time in file order, so every out-list,
    the adjacency's neighbour order and the maintained views come back as
    exported; in-neighbour order is not part of the export.  An edge binds
    to the nodes by their ids in the document.  Every edge is unit-cost, so
    an edge entry whose ``weight`` is present and not the number 1 raises
    ``GraphCorruptionError``, as does a node entry whose ``layer`` is present
    and not the schema layer of its ``cls``, a connectivity or proximity edge
    whose reverse is missing, a document that is not a JSON object, ``nodes``
    or ``edges`` that is not a list, a node or edge entry without a required
    field or with a required field that is not a string, a node whose
    ``desc`` or ``image_ref`` is not a string or whose ``aliases`` is not a
    list of strings, a node id that repeats, an edge naming an id no node
    holds and an edge of unknown kind.
    """
    raw = json.loads(document)
    if not isinstance(raw, dict):
        raise GraphCorruptionError(f"a graph export is a JSON object, not {type(raw).__name__}")
    for key in ("nodes", "edges"):
        if not isinstance(raw.get(key, []), list):
            raise GraphCorruptionError(f"a graph export's {key!r} is a JSON list, not {raw[key]!r}")
    graph = SceneGraph(schema)
    id_map: dict[str, str] = {}
    for entry in raw.get("nodes", ()):
        cls, label, node_id = _fields(entry, "node", "cls", "label", "id")
        if not all(isinstance(entry.get(key, ""), str) for key in ("desc", "image_ref")):
            raise GraphCorruptionError(f"node entry {entry!r} has a non-string desc or image_ref")
        aliases = entry.get("aliases", [])
        if not (isinstance(aliases, list) and all(isinstance(a, str) for a in aliases)):
            raise GraphCorruptionError(f"node entry {entry!r} has aliases that are not strings")
        concept = schema.concepts.get(cls)
        if concept is None:
            raise EdgeRuleError(f"import references unknown concept {cls!r}")
        layer = entry.get("layer", concept.layer_id)
        if isinstance(layer, bool) or layer != concept.layer_id:
            raise GraphCorruptionError(
                f"node entry {entry!r} puts a {cls} at layer {layer!r}, "
                f"not at its schema layer {concept.layer_id}"
            )
        if concept.kind is OBJECT_ROLE:
            node: Node = ObjectNode(
                label=label,
                desc=entry.get("desc", ""),
                image_ref=entry.get("image_ref", ""),
            )
        elif concept.kind is PLACE:
            node = PlaceNode(cls=cls, label=label)
            node.aliases = list(aliases)
        elif concept.kind is CONNECTOR:
            node = ConnectorNode(
                cls=cls,
                label=label,
                desc=entry.get("desc", ""),
                image_ref=entry.get("image_ref", ""),
            )
        else:
            node = RegionNode(cls=cls, label=label)
        if node_id in id_map:
            raise GraphCorruptionError(f"node entry {entry!r} repeats the id {node_id!r}")
        id_map[node_id] = graph.add_node(node)
    for entry in raw.get("edges", ()):
        raw_src, raw_dst, raw_kind = _fields(entry, "edge", "src", "dst", "kind")
        try:
            kind = EdgeKind(raw_kind)
        except ValueError:
            raise GraphCorruptionError(f"edge entry {entry!r} has unknown kind") from None
        try:
            src, dst = id_map[raw_src], id_map[raw_dst]
        except KeyError as missing:
            raise GraphCorruptionError(
                f"edge entry {entry!r} names {missing.args[0]!r}, the id of no node"
            ) from None
        weight = entry.get("weight", 1)
        if isinstance(weight, bool) or weight != 1:
            raise GraphCorruptionError(
                f"{kind.value} edge {raw_src} -> {raw_dst} has weight "
                f"{entry['weight']!r}; edges are unit-cost"
            )
        if not graph._admits(src, dst, kind):
            continue
        # one mutation per symmetric pair, as add_edge counts it with its reverse
        if not (kind in _SYMMETRIC and graph.has_edge(dst, src, kind)):
            graph.version += 1
        graph._insert(src, dst, kind)
    for src, dst, kind in graph.edges():
        if kind in _SYMMETRIC and not graph.has_edge(dst, src, kind):
            relation = _SYMMETRIC[kind]
            raise GraphCorruptionError(f"{relation} edge {src} -> {dst} lacks its reverse")
    return graph


def _fields(entry: object, what: str, *keys: str) -> list:
    """The string values of ``keys`` in an export entry; a missing or other one is corruption."""
    if not isinstance(entry, dict):
        raise GraphCorruptionError(f"{what} entry {entry!r} is not a JSON object")
    for key in keys:
        if key not in entry:
            raise GraphCorruptionError(f"{what} entry {entry!r} has no {key!r}")
        if not isinstance(entry[key], str):
            raise GraphCorruptionError(f"{what} entry {entry!r} has a non-string {key!r}")
    return [entry[key] for key in keys]


def validate_graph(graph: SceneGraph) -> list[str]:
    """Full-scan structural audit; returns human-readable violations.

    Checks edge simplicity, schema conformance of every stored triple,
    connectivity and proximity symmetry, the single-parent containment
    forest and that containment never skips layers.  It also rebuilds the
    maintained views from the edge lists and reports any that differ: the
    candidate row of every place, region and connector, the connector place
    counts and the connectivity subgraph, key and neighbour order included,
    and reports every node whose class is not a schema concept of its kind.
    Each distinct class triple is checked against the schema once per audit.
    """
    problems: list[str] = []
    all_edges = graph.edges()
    edge_set = set(all_edges)
    if len(edge_set) < len(all_edges):
        seen: set[tuple[str, str, EdgeKind]] = set()
        for triple in all_edges:
            if triple in seen:
                problems.append(f"duplicate edge {triple}")
            seen.add(triple)
    node_of = graph.node  # an edge naming an unknown id raises UnknownNodeError
    concepts = graph.schema.concepts
    permitted: dict[tuple[str, EdgeKind, str], bool] = {}
    for src, by_kind in graph._out.items():  # the edges in edges() order
        for kind, targets in by_kind.items():
            symmetric, contains = _SYMMETRIC.get(kind), kind is CONTAINS
            for dst in targets:
                if src == dst:
                    problems.append(f"self-loop on {src}")
                src_cls, dst_cls = node_of(src).cls, node_of(dst).cls
                triple = (src_cls, kind, dst_cls)
                allowed = permitted.get(triple)
                if allowed is None:
                    allowed = permitted[triple] = graph.schema.permits(*triple)
                if not allowed:
                    problems.append(
                        f"edge {(src, dst, kind)} violates schema ({src_cls} -> {dst_cls})"
                    )
                if symmetric and (dst, src, kind) not in edge_set:
                    problems.append(f"{symmetric} edge {src} -> {dst} lacks its reverse")
                if contains and concepts[src_cls].layer_id != concepts[dst_cls].layer_id + 1:
                    problems.append(f"containment {src} -> {dst} skips a layer")
    # every edge's ends are known nodes from here on: the loop above resolved them
    by_id = graph._nodes
    nodes = list(by_id.values())
    for node in nodes:
        parents = graph._in[node.id].get(CONTAINS, ())
        if len(parents) > 1:
            problems.append(f"{node.id} has multiple parents {list(parents)}")
        concept = concepts.get(node.cls)
        if concept is None or concept.kind is not node.kind:
            problems.append(f"{node.id} has class {node.cls!r}, not a {node.kind.value} concept")
    candidates = [n for n in nodes if n.kind is not OBJECT_ROLE]
    for node, row in zip(candidates, graph.candidate_rows(n.id for n in candidates)):
        rebuilt = (node.id, node.label, _rebuilt_summary(graph, node))
        if row != rebuilt:
            problems.append(f"candidate row {row!r} differs from its rebuild {rebuilt!r}")
    adj = {
        n.id: {
            nb: 1.0
            for nb in graph.out_targets(n.id, CONNECTS_TO)
            if by_id[nb].kind in _LINKED
        }
        for n in nodes
        if n.kind in _LINKED
    }
    if _ordered(graph.connectivity_subgraph()) != _ordered(adj):
        problems.append("the connectivity adjacency differs from its rebuild")
    counts = {
        c.id: sum(by_id[nb].kind is PLACE for nb in adj[c.id])
        for c in nodes
        if c.kind is CONNECTOR
    }
    if list(graph.connector_place_counts().items()) != list(counts.items()):
        problems.append("the connector place counts differ from their rebuild")
    return problems


def _rebuilt_summary(graph: SceneGraph, node: Node) -> tuple[str, ...]:
    contents = graph.out_targets(node.id, _SUMMARY_EDGE[node.kind])
    by_id = graph._nodes
    return tuple([by_id[c].label for c in contents])


def _ordered(adj: Mapping[str, Mapping[str, float]]) -> list:
    return [(k, list(v.items())) for k, v in adj.items()]
