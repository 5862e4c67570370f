"""Map-quality scoring: compare a built graph with its ground-truth scene.

Nodes and connectivity edges of the place/connector layer are compared as
label multisets (each label read without its instance suffix and
canonicalised through the synonym table), giving precision and recall that
tolerate id differences while punishing missing, duplicated or mislabelled
structure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..graph import ConnectorNode, PlaceNode, SceneGraph
from ..oracle.tables import default_tables
from .scene import GroundTruthScene

__all__ = ["LayerQuality", "layer2_quality"]


@dataclass(frozen=True)
class LayerQuality:
    node_precision: float
    node_recall: float
    edge_precision: float
    edge_recall: float

    def all_perfect(self) -> bool:
        return (
            self.node_precision == 1.0
            and self.node_recall == 1.0
            and self.edge_precision == 1.0
            and self.edge_recall == 1.0
        )


def _overlap_scores(predicted: Counter, truth: Counter) -> tuple[float, float]:
    inter = sum((predicted & truth).values())
    p_total = sum(predicted.values())
    t_total = sum(truth.values())
    precision = inter / p_total if p_total else 1.0
    recall = inter / t_total if t_total else 1.0
    return precision, recall


def _scene_multisets(scene: GroundTruthScene, canon) -> tuple[Counter, Counter]:
    nodes = Counter()
    label_of: dict[str, str] = {}
    for place in scene.places.values():
        label = canon(place.label)
        nodes[label] += 1
        label_of[place.id] = label
    for conn in scene.connectors.values():
        label = canon(conn.label)
        nodes[label] += 1
        label_of[conn.id] = label
    edges = Counter()
    for a, b, via in scene.links:
        if via is None:
            edges[frozenset((label_of[a] + "|p", label_of[b] + "|p"))] += 1
        else:
            edges[frozenset((label_of[a] + "|p", label_of[via] + "|q"))] += 1
            edges[frozenset((label_of[via] + "|q", label_of[b] + "|p"))] += 1
    return nodes, edges


def _graph_multisets(graph: SceneGraph, canon) -> tuple[Counter, Counter]:
    nodes = Counter()
    label_of: dict[str, tuple[str, str]] = {}
    for node in graph.nodes():
        if isinstance(node, PlaceNode):
            label = canon(node.label)
            nodes[label] += 1
            label_of[node.id] = (label, "|p")
        elif isinstance(node, ConnectorNode):
            label = canon(node.label)
            nodes[label] += 1
            label_of[node.id] = (label, "|q")
    edges = Counter()
    seen = set()
    for src, targets in graph.connectivity_subgraph().items():
        for dst in targets:
            key = frozenset((src, dst))
            if key in seen:
                continue
            seen.add(key)
            (la, ta), (lb, tb) = label_of[src], label_of[dst]
            edges[frozenset((la + ta, lb + tb))] += 1
    return nodes, edges


def layer2_quality(graph: SceneGraph, scene: GroundTruthScene) -> LayerQuality:
    """Precision/recall of place-layer structure against the scene."""
    canon = default_tables().canonical_base
    pred_nodes, pred_edges = _graph_multisets(graph, canon)
    true_nodes, true_edges = _scene_multisets(scene, canon)
    node_p, node_r = _overlap_scores(pred_nodes, true_nodes)
    edge_p, edge_r = _overlap_scores(pred_edges, true_edges)
    return LayerQuality(
        node_precision=node_p,
        node_recall=node_r,
        edge_precision=edge_p,
        edge_recall=edge_r,
    )
