"""Fuzzed input at the CLI boundary: trajectory logs, schemas, scene files, mock backends, flags.

Every input is a valid document with a few parts deleted or replaced by
arbitrary JSON, or a flag list with arbitrary numbers and non-numeric values.  Whatever the input,
a command ends in a documented exit code (0 ok, 1 invalid, 2 I/O, 3 remote),
at most one line on standard error and no traceback.
"""

import contextlib
import copy
import io
import json
import tempfile
from functools import cache
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scenenav.cli import main
from scenenav.mapper import frames_to_jsonl
from scenenav.sim import (
    cover_walk,
    default_noise,
    generate_home_scene,
    scene_to_json,
    walk_to_frames,
)

HOME = "src/scenenav/assets/schemas/home.json"
HOME_MOCK = "src/scenenav/assets/mocks/home.json"

FUZZ = settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=5),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _paths(value, prefix + (index,))


@st.composite
def _mutated(draw, doc):
    """``doc`` with one to three parts deleted or replaced by arbitrary JSON."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JUNK)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JUNK)
    return doc


@cache
def _scene_doc():
    return json.loads(scene_to_json(generate_home_scene(np.random.default_rng(5))))


@cache
def _frame_docs():
    scene = generate_home_scene(np.random.default_rng(5))
    walk = cover_walk(scene, next(iter(scene.places)))[:4]
    frames = walk_to_frames(scene, walk, default_noise(), np.random.default_rng(0))
    return [json.loads(line) for line in frames_to_jsonl(frames).splitlines()]


def _assert_clean_exit(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, err
    assert len(err.strip().splitlines()) <= 1, err


@FUZZ
@given(st.lists(_mutated(_frame_docs()), min_size=1, max_size=3) | st.text(max_size=40))
def test_fuzzed_trajectory_log(frames):
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "t.jsonl"
        if isinstance(frames, str):
            log.write_text(frames, encoding="utf-8")
        else:
            log.write_text("\n".join(json.dumps(f) for f in frames), encoding="utf-8")
        _assert_clean_exit(["map", "--log", str(log), "--schema", HOME,
                            "--out", str(Path(tmp) / "g.json")])


@FUZZ
@given(_mutated(json.loads(Path(HOME).read_text(encoding="utf-8"))) | st.text(max_size=40))
def test_fuzzed_schema(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        _assert_clean_exit(["verify-schema", str(path)])
        _assert_clean_exit(["run", "--schema", str(path), "--scenes", "1", "--episodes", "1",
                            "--out", str(Path(tmp) / "m.csv")])


@st.composite
def _pruned(draw, doc):
    """``doc`` with one to four relation-rule entries deleted; it still verifies."""
    doc = copy.deepcopy(doc)
    entries = [
        (name, key, target)
        for name, body in doc.items()
        for key, targets in body.items() if isinstance(targets, list)
        for target in targets
    ]
    for name, key, target in draw(
        st.lists(st.sampled_from(entries), min_size=1, max_size=4, unique=True)
    ):
        doc[name][key].remove(target)
    return doc


@FUZZ
@given(_pruned(json.loads(Path(HOME).read_text(encoding="utf-8"))))
def test_fuzzed_schema_that_verifies_maps_a_fixed_trajectory(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        log = Path(tmp) / "t.jsonl"
        log.write_text("\n".join(json.dumps(f) for f in _frame_docs()), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify-schema", str(path)]) == 0
        _assert_clean_exit(["map", "--log", str(log), "--schema", str(path),
                            "--out", str(Path(tmp) / "g.json")])


@FUZZ
@given(_mutated(_scene_doc()))
def test_fuzzed_scene_file(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        _assert_clean_exit(["run", "--schema", HOME, "--scene", str(path), "--episodes", "2",
                            "--out", str(Path(tmp) / "m.csv")])


@FUZZ
@given(_mutated(json.loads(Path(HOME_MOCK).read_text(encoding="utf-8"))))
def test_fuzzed_mock_backend(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mock.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        _assert_clean_exit(["gen-schema", "home", "--backend", f"mock:{path}",
                            "--out", str(Path(tmp) / "s.json")])


_SMALL = st.integers(-2, 3).map(str)
# no digits, so a count flag never parses to a large workload; argparse rejects these
_NOT_A_NUMBER = st.text(alphabet="abcex.-+ _,", max_size=5) | st.sampled_from(["1.5", "two"])
_FLAGS = {
    "run": {
        "--scenes": _SMALL, "--episodes": _SMALL, "--jobs": st.integers(-2, 1).map(str),
        "--particles": _SMALL, "--goal": st.text(max_size=8),
    },
    "map": {"--format": st.sampled_from(["structured", "dot", "svg", ""])},
    "gen-schema": {"--max-iterations": _SMALL},
}


@st.composite
def _flags(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    names = draw(st.lists(st.sampled_from(sorted(_FLAGS[command])), unique=True, max_size=4))
    values = [draw(_FLAGS[command][name] | _NOT_A_NUMBER) for name in names]
    return command, [f"{name}={value}" for name, value in zip(names, values)]


@FUZZ
@given(_flags())
def test_fuzzed_flags(drawn):
    command, flags = drawn
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out")
        if command == "run":
            argv = ["run", "--schema", HOME, "--scenes", "1", "--episodes", "1", "--out", out]
        elif command == "map":
            log = Path(tmp) / "t.jsonl"
            log.write_text("\n".join(json.dumps(f) for f in _frame_docs()), encoding="utf-8")
            argv = ["map", "--log", str(log), "--schema", HOME, "--out", out]
        else:
            argv = ["gen-schema", "home", "--out", out]
        # later occurrences win, so drawn flags override the small defaults above
        _assert_clean_exit(argv + flags)
