"""Ground-truth scenes for the discrete navigation world.

A scene is a set of labelled places holding objects, linked either through
connectors (doors, stairs) or directly, plus an optional region hierarchy
(floors).  Generators produce home-style worlds (rooms over two or three
floors, joined by doors within a floor and stairs across floors) and
market-style worlds (a strip of themed aisles with direct adjacency).
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..oracle.tables import default_tables

__all__ = [
    "SceneObject",
    "ScenePlace",
    "SceneConnector",
    "SceneRegion",
    "GroundTruthScene",
    "generate_home_scene",
    "generate_market_scene",
    "validate_scene",
    "scene_to_json",
    "scene_from_json",
]

ROOM_POOLS: dict[str, list[str]] = {
    "bedroom": ["bed", "nightstand", "lamp", "dresser", "wardrobe", "mirror", "rug", "pillow"],
    "kitchen": ["sink", "fridge", "oven", "counter", "cabinet", "kettle", "stove", "toaster"],
    "livingroom": ["sofa", "tv", "coffee table", "armchair", "bookshelf", "rug", "plant", "guitar"],
    "bathroom": ["toilet", "sink", "mirror", "bathtub", "towel", "scale", "cabinet", "hamper"],
    "diningroom": ["dining table", "chair", "cabinet", "vase", "rug", "candle", "sideboard", "tablecloth"],
    "office": ["desk", "chair", "computer", "bookshelf", "lamp", "printer", "plant", "whiteboard"],
    "hallway": ["picture", "plant", "shoe rack", "coat hook", "bench", "umbrella", "doormat", "key bowl"],
}

AISLE_POOLS: dict[str, list[str]] = {
    "dairy aisle": ["milk", "cheese", "yogurt", "butter", "cream"],
    "produce aisle": ["apples", "bananas", "lettuce", "tomatoes", "carrots"],
    "bakery aisle": ["bread", "bagels", "croissants", "muffins", "cake"],
    "household aisle": ["detergent", "sponges", "broom", "bucket", "soap"],
    "snack aisle": ["chips", "cookies", "crackers", "popcorn", "candy"],
}

COLORS = ["white", "black", "brown", "gray", "red", "blue", "green", "beige"]
MATERIALS = ["wood", "metal", "plastic", "fabric", "glass", "ceramic", "leather", "wicker"]

DOOR_LABELS = ["door", "doorway"]


@dataclass(frozen=True)
class SceneObject:
    label: str
    desc: str = ""


@dataclass
class ScenePlace:
    id: str
    cls: str
    label: str
    objects: list[SceneObject] = field(default_factory=list)


@dataclass
class SceneConnector:
    id: str
    label: str
    endpoints: tuple[str, str]


@dataclass
class SceneRegion:
    id: str
    cls: str
    label: str
    children: list[str] = field(default_factory=list)


@dataclass
class GroundTruthScene:
    env_label: str
    places: dict[str, ScenePlace] = field(default_factory=dict)
    connectors: dict[str, SceneConnector] = field(default_factory=dict)
    regions: dict[str, SceneRegion] = field(default_factory=dict)
    links: list[tuple[str, str, str | None]] = field(default_factory=list)
    # the neighbour table and the copy of ``links`` it was built from
    _table_links: list = field(default_factory=list, init=False, repr=False, compare=False)
    _table: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def neighbors(self, place_id: str) -> Sequence[tuple[str, str | None]]:
        """``(neighbour, connector or None)`` of every link at ``place_id``, in link order.

        Answered from a table built from ``links``; the table is built again
        when ``links`` no longer equals the copy it was built from, so appending
        to, reassigning or replacing an item of ``links`` is seen on the next
        call.  That check is one list comparison, so each call still walks
        the links, in C.  Links are tuples.  The sequence is the table's own
        and read-only.
        """
        if self._table_links != self.links:
            table: dict[str, list[tuple[str, str | None]]] = {}
            for a, b, via in self.links:
                table.setdefault(a, []).append((b, via))
                if b != a:
                    table.setdefault(b, []).append((a, via))
            self._table = {pid: tuple(pairs) for pid, pairs in table.items()}
            self._table_links = list(self.links)
        return self._table.get(place_id, ())

    def hosts(self, goal: str) -> list[str]:
        """The places holding an object that satisfies ``goal``, by the rule oracle's test."""
        is_goal = default_tables().goal_test(goal)
        return [
            pid
            for pid, place in self.places.items()
            if any(is_goal(obj.label, obj.desc) for obj in place.objects)
        ]

    def route(self, start: str, is_goal: Callable[[str], bool]) -> list[str] | None:
        """Fewest-hop route to the first place ``is_goal`` accepts, start excluded.

        Breadth-first in ``neighbors`` order, so ties go to the place found
        first.  Returns ``[]`` when the start already qualifies and ``None``
        when no reachable place does.
        """
        if is_goal(start):
            return []
        prev = {start: start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for nb, _ in self.neighbors(node):
                if nb in prev:
                    continue
                prev[nb] = node
                if is_goal(nb):
                    path = [nb]
                    while prev[path[-1]] != start:
                        path.append(prev[path[-1]])
                    return path[::-1]
                queue.append(nb)
        return None

    def shortest_hops(self, start: str, targets: list[str]) -> float:
        path = self.route(start, set(targets).__contains__)
        return float("inf") if path is None else len(path)

    def object_labels(self) -> list[str]:
        out = []
        for place in self.places.values():
            out.extend(obj.label for obj in place.objects)
        return out


def _desc(rng: np.random.Generator) -> str:
    return f"{COLORS[rng.integers(len(COLORS))]} {MATERIALS[rng.integers(len(MATERIALS))]}"


def _sample_objects(
    rng: np.random.Generator,
    pool: list[str],
    count: int,
    used_by_same_label: set[str],
) -> list[SceneObject]:
    # keep sibling rooms of one label distinguishable: prefer labels their
    # twins do not already carry
    fresh = [l for l in pool if l not in used_by_same_label]
    labels: list[str] = []
    take_fresh = min(count, len(fresh))
    if take_fresh:
        idx = rng.choice(len(fresh), size=take_fresh, replace=False)
        labels.extend(fresh[i] for i in sorted(idx))
    if len(labels) < count:
        rest = [l for l in pool if l not in labels]
        idx = rng.choice(len(rest), size=count - len(labels), replace=False)
        labels.extend(rest[i] for i in sorted(idx))
    return [SceneObject(label=l, desc=_desc(rng)) for l in labels]


def generate_home_scene(rng: np.random.Generator) -> GroundTruthScene:
    """A 2-3 floor home: rooms joined by doors, floors joined by stairs."""
    scene = GroundTruthScene(env_label="home")
    n_floors = int(rng.integers(2, 4))
    n_rooms = int(rng.integers(max(4, n_floors * 2), 11))
    per_floor = [n_rooms // n_floors] * n_floors
    for i in range(n_rooms % n_floors):
        per_floor[i] += 1

    # at most two rooms per label, so siblings can stay feature-distinguishable
    room_labels = list(ROOM_POOLS)
    deck = [room_labels[i] for i in rng.permutation(len(room_labels))]
    deck += [room_labels[i] for i in rng.permutation(len(room_labels))]
    label_plan = deck[:n_rooms]
    used_labels: dict[str, set[str]] = {}
    counter = 0
    floors: list[list[str]] = []
    for floor_idx in range(n_floors):
        floor_rooms: list[str] = []
        for _ in range(per_floor[floor_idx]):
            label = label_plan[counter]
            counter += 1
            pid = f"{label}_{counter}"
            cls = "Corridor" if label == "hallway" else "Room"
            used = used_labels.setdefault(label, set())
            n_objects = int(rng.integers(3, 5))
            objects = _sample_objects(rng, ROOM_POOLS[label], n_objects, used)
            used.update(obj.label for obj in objects)
            scene.places[pid] = ScenePlace(id=pid, cls=cls, label=label, objects=objects)
            floor_rooms.append(pid)
        floors.append(floor_rooms)

    conn_counter = 0

    def door(a: str, b: str, label: str) -> None:
        nonlocal conn_counter
        conn_counter += 1
        cid = f"{label}_{conn_counter}"
        scene.connectors[cid] = SceneConnector(id=cid, label=label, endpoints=(a, b))
        scene.links.append((a, b, cid))

    for floor_rooms in floors:
        for i in range(1, len(floor_rooms)):
            other = floor_rooms[int(rng.integers(i))]
            door(floor_rooms[i], other, DOOR_LABELS[int(rng.integers(len(DOOR_LABELS)))])
        if len(floor_rooms) >= 4 and rng.random() < 0.5:
            a, b = rng.choice(len(floor_rooms), size=2, replace=False)
            a_id, b_id = floor_rooms[int(a)], floor_rooms[int(b)]
            existing = {frozenset((x, y)) for x, y, _ in scene.links}
            if frozenset((a_id, b_id)) not in existing:
                door(a_id, b_id, DOOR_LABELS[int(rng.integers(len(DOOR_LABELS)))])

    for lower, upper in zip(floors, floors[1:]):
        a = lower[int(rng.integers(len(lower)))]
        b = upper[int(rng.integers(len(upper)))]
        door(a, b, "stairs")

    for floor_idx, floor_rooms in enumerate(floors, start=1):
        rid = f"floor_{floor_idx}"
        scene.regions[rid] = SceneRegion(id=rid, cls="Floor", label="floor", children=list(floor_rooms))
    return scene


def generate_market_scene(rng: np.random.Generator) -> GroundTruthScene:
    """A strip of themed aisles with direct adjacency; no connectors."""
    scene = GroundTruthScene(env_label="supermarket")
    themes = list(AISLE_POOLS)
    n_aisles = int(rng.integers(4, min(len(themes), 8) + 1))
    order = rng.permutation(len(themes))[:n_aisles]
    ids = []
    for k, theme_idx in enumerate(order, start=1):
        theme = themes[int(theme_idx)]
        pid = f"{theme.split()[0]}_{k}"
        pool = AISLE_POOLS[theme]
        n_objects = int(rng.integers(3, min(5, len(pool)) + 1))
        objects = _sample_objects(rng, pool, n_objects, set())
        scene.places[pid] = ScenePlace(id=pid, cls="Aisle", label=theme, objects=objects)
        ids.append(pid)
    for a, b in zip(ids, ids[1:]):
        scene.links.append((a, b, None))
    if len(ids) >= 4 and rng.random() < 0.5:
        scene.links.append((ids[0], ids[2], None))
    return scene


def validate_scene(scene: GroundTruthScene) -> list[str]:
    problems = []
    seen_pairs = set()
    for a, b, via in scene.links:
        if a not in scene.places or b not in scene.places:
            problems.append(f"link ({a}, {b}) references an unknown place")
            continue
        if a == b:
            problems.append(f"link ({a}, {b}) is a self-loop")
        key = frozenset((a, b))
        if key in seen_pairs:
            problems.append(f"duplicate link between {a} and {b}")
        seen_pairs.add(key)
        if via is not None:
            conn = scene.connectors.get(via)
            if conn is None:
                problems.append(f"link ({a}, {b}) references unknown connector {via}")
            elif set(conn.endpoints) != {a, b}:
                problems.append(f"connector {via} endpoints disagree with its link")
    child_owner: dict[str, str] = {}
    for region in scene.regions.values():
        for child in region.children:
            if child not in scene.places:
                problems.append(f"region {region.id} contains unknown place {child}")
            if child in child_owner:
                problems.append(f"place {child} sits in two regions")
            child_owner[child] = region.id
    return problems


def scene_to_json(scene: GroundTruthScene) -> str:
    payload = {
        "env_label": scene.env_label,
        "places": [
            {
                "id": p.id,
                "cls": p.cls,
                "label": p.label,
                "objects": [{"label": o.label, "desc": o.desc} for o in p.objects],
            }
            for p in scene.places.values()
        ],
        "connectors": [
            {"id": c.id, "label": c.label, "endpoints": list(c.endpoints)}
            for c in scene.connectors.values()
        ],
        "regions": [
            {"id": r.id, "cls": r.cls, "label": r.label, "children": list(r.children)}
            for r in scene.regions.values()
        ],
        "links": [[a, b, via] for a, b, via in scene.links],
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def scene_from_json(text: str) -> GroundTruthScene:
    """Load a scene; malformed JSON, a missing key or a repeated id raises ``ValueError``."""
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError(f"a scene must be a JSON object, not {type(raw).__name__}")
    try:
        return _scene_from_dict(raw)
    except KeyError as exc:
        raise ValueError(f"scene lacks required key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"malformed scene entry: {exc}") from None


def _entries(raw: dict, key: str) -> list[dict]:
    entries = raw.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise TypeError(f"{key!r} must be a list of objects")
    return entries


def _text(entry: dict, key: str, default: str | None = None) -> str:
    value = entry[key] if default is None else entry.get(key, default)
    if not isinstance(value, str):
        raise TypeError(f"{key!r} must be a string, got {value!r}")
    return value


def _texts(value: object, count: int | None = None) -> list[str]:
    if (
        not isinstance(value, list)
        or not all(isinstance(v, str) for v in value)
        or (count is not None and len(value) != count)
    ):
        size = "a list of strings" if count is None else f"a list of {count} strings"
        raise TypeError(f"expected {size}, got {value!r}")
    return value


def _add(table: dict, what: str, entry: ScenePlace | SceneConnector | SceneRegion) -> None:
    if entry.id in table:
        raise ValueError(f"repeated {what} id {entry.id!r}")
    table[entry.id] = entry


def _scene_from_dict(raw: dict) -> GroundTruthScene:
    scene = GroundTruthScene(env_label=_text(raw, "env_label"))
    for p in _entries(raw, "places"):
        _add(scene.places, "place", ScenePlace(
            id=_text(p, "id"),
            cls=_text(p, "cls"),
            label=_text(p, "label"),
            objects=[
                SceneObject(label=_text(o, "label"), desc=_text(o, "desc", ""))
                for o in _entries(p, "objects")
            ],
        ))
    for c in _entries(raw, "connectors"):
        _add(scene.connectors, "connector", SceneConnector(
            id=_text(c, "id"), label=_text(c, "label"), endpoints=tuple(_texts(c["endpoints"], 2))
        ))
    for r in _entries(raw, "regions"):
        _add(scene.regions, "region", SceneRegion(
            id=_text(r, "id"), cls=_text(r, "cls"), label=_text(r, "label"),
            children=list(_texts(r["children"])),
        ))
    links = raw.get("links", [])
    if not isinstance(links, list):
        raise TypeError("'links' must be a list")
    for link in links:
        if not (
            isinstance(link, list)
            and len(link) == 3
            and all(isinstance(v, str) for v in link[:2])
            and isinstance(link[2], (str, type(None)))
        ):
            raise TypeError(f"a link must be [place, place, connector or null], got {link!r}")
        scene.links.append(tuple(link))
    return scene
