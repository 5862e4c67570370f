import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scenenav
from scenenav import cli, mapper
from scenenav.cli import main
from scenenav.mapper import MapperConfig, frames_to_jsonl
from scenenav.oracle.rules import RuleOracle
from scenenav.schema import CONNECTOR, OBJECT_ROLE, PLACE, builtin_schema
from scenenav.sim import (
    EpisodeResult,
    cover_walk,
    generate_home_scene,
    generate_market_scene,
    noiseless,
    scene_to_json,
    walk_to_frames,
)
from scenenav.sim.protocol import HORIZON_FACTOR, HORIZON_SLACK

HOME = "src/scenenav/assets/schemas/home.json"

# SHA-256 of metrics CSVs recorded before the simulator's BFS, episode builder
# and noise table were each reduced to one implementation
FIXED_RUN_SHA256 = "915d33c82476f92592079c0892820180042b8568d7f32442850592a9d1943cca"
# the same run with --noiseless
FIXED_NOISELESS_RUN_SHA256 = "5156264fe742a483ebfa1bf563eb168b184c03fa352eba606bc5d88a75ccfbc6"
# RuleOracle decisions of the fixed run, per kind
FIXED_RUN_DECISIONS = {
    "select_region": 1630, "classify_elements": 1196, "goal_match": 1196,
    "similar_labels": 827, "infer_region": 704, "match_place": 380, "select_object": 151,
    "match_object": 121,
}
# the structured export of TestMap's log with a quote and a backslash in its
# labels, recorded before the DOT export escaped them; re-pinned when the
# mapper stopped writing object-object proximity: the export is the previous
# one with its object-object IS_NEAR edges taken out (39 -> 27 edges)
STRUCTURED_SHA256 = "11e1822a21e8df24ceeb611f93f4e99e33e0c064ff06dce50b423e03468da957"
SCENE_RUN_SHA256 = {
    "noise": "884c2dbd814bb64ba61a22535007976c847422e7d1bd395fff5e4fbedb6cce8a",
    "absent-goal": "fcdcc59f36c2b20464ac4f31567395f506a2922c4c2112a85a06dde7bc4988d7",
    "noiseless": "18030420c7606d4a3225deb0ff883a81fbe0a7b44c8d990e924f0ee50ebec1ab",
}


@pytest.fixture
def home_path(tmp_path):
    from importlib import resources

    ref = resources.files("scenenav.assets.schemas").joinpath("home.json")
    path = tmp_path / "home.json"
    path.write_text(ref.read_text(encoding="utf-8"))
    return str(path)


class TestVerifySchema:
    def test_valid_listing(self, home_path, capsys):
        assert main(["verify-schema", home_path]) == 0
        assert "valid" in capsys.readouterr().out

    def test_broken_rule_nonzero(self, tmp_path, home_path, capsys):
        doc = json.loads(Path(home_path).read_text())
        doc["Room"]["has"] = ["Corridor"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify-schema", str(bad)]) == 1
        assert "R5" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["verify-schema", "/nonexistent/schema.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "schema.json"
        bad.write_bytes(b"\xff\xfe")
        assert main(["verify-schema", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("schema parse error: 'utf-8' codec can't decode")
        assert len(err.splitlines()) == 1


class TestGenSchema:
    @pytest.mark.parametrize("env", ["home", "hospital", "airport"])
    def test_builtin_mock_roundtrip(self, tmp_path, env):
        out = tmp_path / "schema.json"
        trace = tmp_path / "trace.json"
        code = main([
            "gen-schema", env, "--backend", f"mock:{env}",
            "--out", str(out), "--trace", str(trace),
        ])
        assert code == 0
        assert main(["verify-schema", str(out)]) == 0
        assert json.loads(trace.read_text())["succeeded"]

    def test_exhausted_budget_nonzero(self, tmp_path):
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps({"replies": {
            "env_description": "Text: nothing",
            "triplet_extraction": "no triplets",
            "triplet_canonicalisation": "Answer: invalid",
        }}))
        out = tmp_path / "schema.json"
        code = main(["gen-schema", "void", "--backend", f"mock:{mock}", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("triplets", ["Triplets:\n[room, contains, room]", "no triplets"],
                             ids=["cyclic", "no-triplet"])
    def test_exhausted_budget_prints_one_line_in_a_shell(self, tmp_path, triplets):
        # in a subprocess: under pytest the root logger already has a handler,
        # so an in-process run would hide a log line that reaches a shell
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps({"replies": {
            "env_description": "Text: rooms contain rooms",
            "triplet_extraction": triplets,
            "triplet_canonicalisation": "Answer: [room, contains, room]",
        }}))
        out = tmp_path / "schema.json"
        env = dict(os.environ, PYTHONPATH=str(Path(scenenav.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "scenenav.cli", "gen-schema", "home",
             "--backend", f"mock:{mock}", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("no valid schema within 3 iteration(s): ")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_missing_output_directory_fails_before_the_pipeline(
        self, tmp_path, monkeypatch, capsys, flag
    ):
        ran = []
        pipeline = cli.run_pipeline
        monkeypatch.setattr(cli, "run_pipeline",
                            lambda *args, **kwargs: ran.append(args) or pipeline(*args, **kwargs))
        paths = {"--out": tmp_path / "s.json", "--trace": tmp_path / "t.json"}
        paths[flag] = tmp_path / "nodir" / paths[flag].name
        code = main(["gen-schema", "home", "--backend", "mock:home",
                     "--out", str(paths["--out"]), "--trace", str(paths["--trace"])])
        assert code == 2
        assert ran == []
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"{flag} ") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("doc,needle", [
        ('{"endpoint": "https://example.invalid", "model": "m", "temprature": 0.1}',
         "'temprature'"),
        ('{"endpoint": "https://example.invalid"}', "'model'"),
        ('["https://example.invalid", "m"]', "JSON object"),
        ('{"endpoint": "https://example.invalid", "model": "m", "max_in_flight": "4"}',
         "'max_in_flight'"),
        ('{"endpoint": "https://example.invalid", "model": "m", "max_in_flight": 0}',
         "'max_in_flight'"),
        ('{"endpoint": "https://example.invalid", "model": "m", "max_in_flight": true}',
         "'max_in_flight'"),
        ('{"endpoint": "https://example.invalid", "model": "m", "max_retries": "two"}',
         "'max_retries'"),
        ('{"endpoint": "https://example.invalid", "model": "m", "max_retries": -1}',
         "'max_retries'"),
        ('{"endpoint": "https://example.invalid", "model": "m", "max_retries": 1.5}',
         "'max_retries'"),
        ('{"endpoint": "https://example.invalid", "model": "m", "temperature": -0.1}',
         "'temperature'"),
        ('{"endpoint": "https://example.invalid", "model": "m", "temperature": NaN}',
         "'temperature'"),
        ('{"endpoint": "https://example.invalid", "model": "m", "timeout": 0}', "'timeout'"),
        ('{"endpoint": "https://example.invalid", "model": "m", "timeout": "30"}', "'timeout'"),
        ('{"endpoint": ["https://example.invalid"], "model": "m"}', "'endpoint'"),
        ('{"endpoint": "https://example.invalid", "model": 7}', "'model'"),
        ('{"endpoint": "https://example.invalid", "model": "m", "api_key_env": null}',
         "'api_key_env'"),
        ('{"endpoint": "https://example.invalid"', "remote.json: "),
        (b"\xff\xfe", "remote.json: "),
    ], ids=["unknown-key", "missing-key", "not-an-object", "in-flight-string", "in-flight-zero",
            "in-flight-bool", "retries-string", "retries-negative", "retries-float",
            "temperature-negative", "temperature-nan", "timeout-zero", "timeout-string",
            "endpoint-list", "model-number", "api-key-env-null", "truncated", "not-utf8"])
    def test_malformed_remote_config_rejected(self, tmp_path, capsys, doc, needle):
        config = tmp_path / "remote.json"
        config.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
        out = tmp_path / "schema.json"
        code = main(["gen-schema", "home", "--backend", f"remote:{config}", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert needle in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("doc,needle", [
        ('[1,2]', "'replies' object"),
        ('"x"', "'replies' object"),
        ('{"replies": [1]}', "'replies' object"),
        ('{"replies": null}', "'replies' object"),
        ('{"replies": {"env_description": 5}}', "'env_description'"),
        ('{"replies": {"env_description": [null]}}', "'env_description'"),
        ('{"replies": {"env_description": []}}', "'env_description'"),
        ('{"replies": {"env_description": "Text: rooms hold objects"}}',
         "no reply for template 'triplet_extraction'"),
        ('{"replies": ', "mock.json: "),
        (b"\xff\xfe", "mock.json: "),
    ], ids=["list", "string", "replies-list", "replies-null", "reply-number",
            "reply-list-of-null", "reply-empty-list", "template-missing", "truncated", "not-utf8"])
    def test_malformed_mock_backend_rejected(self, tmp_path, capsys, doc, needle):
        mock = tmp_path / "mock.json"
        mock.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
        out = tmp_path / "schema.json"
        code = main(["gen-schema", "home", "--backend", f"mock:{mock}", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert needle in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("label", ["", "  "], ids=["empty", "blank"])
    def test_blank_env_label_rejected(self, tmp_path, capsys, label):
        out = tmp_path / "schema.json"
        code = main(["gen-schema", label, "--backend", "mock:home", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert "environment label" in err and len(err.splitlines()) == 1

    def test_remote_reply_content_not_a_string_exits_3(self, tmp_path, capsys, monkeypatch):
        from scenenav.oracle import remote

        calls = []

        def transport(url, payload, headers, timeout):
            calls.append(payload)
            return {"choices": [{"message": {"content": None}}]}

        monkeypatch.setattr(remote, "_requests_transport", transport)
        monkeypatch.setenv("SCENENAV_ENDPOINT", "https://example.invalid/v1/chat")
        monkeypatch.setenv("SCENENAV_MODEL", "m")
        out = tmp_path / "schema.json"
        code = main(["gen-schema", "home", "--backend", "remote", "--out", str(out)])
        assert code == 3
        assert not out.exists()
        assert len(calls) == 3  # the first attempt and the two default retries
        err = capsys.readouterr().err.strip()
        assert "not a string" in err and len(err.splitlines()) == 1


class TestMap:
    def _write_log(self, tmp_path, scene):
        walk = cover_walk(scene, next(iter(scene.places)))
        frames = walk_to_frames(scene, walk, noiseless(), np.random.default_rng(0))
        log = tmp_path / "traj.jsonl"
        log.write_text(frames_to_jsonl(frames))
        return log

    def test_missing_out_directory_fails_before_any_input_is_read(
        self, tmp_path, home_path, monkeypatch, capsys
    ):
        log = self._write_log(tmp_path, generate_home_scene(np.random.default_rng(321)))
        read = []
        for name in ("_read", "load_schema_file"):
            fn = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda path, *rest, fn=fn: read.append(path) or fn(path, *rest)
            )
        out = tmp_path / "nodir" / "g.json"
        code = main(["map", "--log", str(log), "--schema", home_path, "--out", str(out)])
        assert code == 2
        assert read == []
        err = capsys.readouterr().err.strip()
        assert err.startswith("--out ") and len(err.splitlines()) == 1
        assert not out.parent.exists()

    @pytest.mark.parametrize("content,code,prefix", [
        (None, 2, "cannot read log: "),
        (b"\xff\xfe", 1, "trajectory log parse error: 'utf-8' codec can't decode"),
        (b'{"frame_id": 1, "place_type_answer": "Room", "place_label_answer": "hall",'
         b' "previous_subgoals": "door_1"}\n', 1,
         "trajectory log parse error: frame 1: unknown key 'previous_subgoals'\n"),
    ], ids=["missing", "not-utf8", "unknown-key"])
    def test_unreadable_log_ends_in_one_line(
        self, tmp_path, home_path, capsys, content, code, prefix
    ):
        log, out = tmp_path / "traj.jsonl", tmp_path / "g.json"
        if content is not None:
            log.write_bytes(content)
        assert main(["map", "--log", str(log), "--schema", home_path, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and len(err.splitlines()) == 1
        assert not out.exists()

    def test_noiseless_replay_counts(self, tmp_path, home_path, capsys):
        scene = generate_home_scene(np.random.default_rng(321))
        log = self._write_log(tmp_path, scene)
        out = tmp_path / "graph.json"
        assert main(["map", "--log", str(log), "--schema", home_path, "--out", str(out)]) == 0
        exported = json.loads(out.read_text())
        places = [n for n in exported["nodes"] if n["layer"] == 2 and "door" not in n["label"]
                  and "stairs" not in n["label"]]
        assert len(places) == len(scene.places)

    def test_empty_log_gives_empty_graph(self, tmp_path, home_path):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        out = tmp_path / "graph.json"
        assert main(["map", "--log", str(log), "--schema", home_path, "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == {"nodes": [], "edges": []}

    def test_loop_replay_no_duplicate_places(self, tmp_path, home_path):
        scene = generate_home_scene(np.random.default_rng(99))
        walk = cover_walk(scene, next(iter(scene.places)))
        frames = walk_to_frames(scene, walk + walk[::-1], noiseless(), np.random.default_rng(1))
        log = tmp_path / "traj.jsonl"
        log.write_text(frames_to_jsonl(frames))
        out = tmp_path / "graph.json"
        assert main(["map", "--log", str(log), "--schema", home_path, "--out", str(out)]) == 0
        exported = json.loads(out.read_text())
        mapped_places = [
            n for n in exported["nodes"]
            if n["cls"] in ("Room", "Corridor", "Stairs")
        ]
        assert len(mapped_places) == len(scene.places)

    def test_dot_output(self, tmp_path, home_path):
        scene = generate_market_scene(np.random.default_rng(5))
        market = tmp_path / "market.json"
        from importlib import resources

        market.write_text(
            resources.files("scenenav.assets.schemas").joinpath("supermarket.json").read_text()
        )
        log = self._write_log(tmp_path, scene)
        out = tmp_path / "graph.dot"
        assert main([
            "map", "--log", str(log), "--schema", str(market),
            "--out", str(out), "--format", "dot",
        ]) == 0
        assert "subgraph cluster_2" in out.read_text()

    def test_dot_output_escapes_quotes_and_backslashes(self, tmp_path, home_path):
        frame = self._first_frame()
        frame["detections"][0]["label"] = '27" monitor'
        frame["detections"][1]["label"] = "back\\slash"
        log = tmp_path / "traj.jsonl"
        log.write_text(json.dumps(frame) + "\n")
        outs = {fmt: tmp_path / f"graph.{fmt}" for fmt in ("dot", "structured")}
        for fmt, out in outs.items():
            argv = ["map", "--log", str(log), "--schema", home_path, "--out", str(out)]
            assert main(argv + ["--format", fmt]) == 0
        quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
        strings = []
        for line in outs["dot"].read_text().splitlines():
            assert '"' not in quoted.sub("", line), line
            strings += [re.sub(r"\\(.)", r"\1", s) for s in quoted.findall(line)]
        assert {'27" monitor', '27" monitor_1', "back\\slash", "back\\slash_1"} <= set(strings)
        # the structured export escapes by JSON alone, as before
        structured = outs["structured"].read_bytes()
        assert hashlib.sha256(structured).hexdigest() == STRUCTURED_SHA256
        labels = {n["label"] for n in json.loads(structured)["nodes"]}
        assert {'27" monitor', "back\\slash"} <= labels

    def _map_frames(self, tmp_path, home_path, frames):
        log, out = tmp_path / "traj.jsonl", tmp_path / "graph.json"
        log.write_text("".join(json.dumps(frame) + "\n" for frame in frames))
        assert main(["map", "--log", str(log), "--schema", home_path, "--out", str(out)]) == 0
        kind = {name: concept.kind for name, concept in builtin_schema("home").concepts.items()}
        nodes = {}
        for node in json.loads(out.read_text())["nodes"]:
            nodes.setdefault(kind[node["cls"]], []).append(node["label"])
        return nodes

    @staticmethod
    def _paper_frame(fid, place_label, labels):
        detections = [{"label": label, "bbox": [i * 400.0, 0.0, 20.0, 20.0]}
                      for i, label in enumerate(labels)]
        return {"frame_id": fid, "place_type_answer": "Room",
                "place_label_answer": place_label, "detections": detections}

    def test_paper_frame_stores_its_connectors_and_objects(self, tmp_path, home_path):
        labels = ["livingroom_0", "window_13", "door_2", "doorway_3", "table_4", "stairs_10",
                  "wall_8"]
        nodes = self._map_frames(tmp_path, home_path, [self._paper_frame(0, "livingroom", labels)])
        assert nodes[CONNECTOR] == ["door_2", "doorway_3", "stairs_10"]
        assert nodes[OBJECT_ROLE] == ["window_13", "table_4"]
        assert nodes[PLACE] == ["livingroom"]

    def test_a_suffixed_place_label_answered_twice_maps_to_one_place(self, tmp_path, home_path):
        frames = [self._paper_frame(fid, "livingroom_0", ["sofa", "tv", "rug"]) for fid in (0, 1)]
        nodes = self._map_frames(tmp_path, home_path, frames)
        assert nodes[PLACE] == ["livingroom_0"]

    def _first_frame(self):
        scene = generate_home_scene(np.random.default_rng(321))
        walk = cover_walk(scene, next(iter(scene.places)))
        frames = walk_to_frames(scene, walk, noiseless(), np.random.default_rng(0))
        return json.loads(frames_to_jsonl(frames[:1]))

    @pytest.mark.parametrize("bbox", [[1, 2, 3], [1, 2, 3, 4, 5], [1, 2, "w", 4], "1234", 7])
    def test_bbox_not_four_numbers_rejected(self, tmp_path, home_path, capsys, bbox):
        frame = self._first_frame()
        frame["detections"][0]["bbox"] = bbox
        log = tmp_path / "traj.jsonl"
        log.write_text(json.dumps(frame) + "\n")
        out = tmp_path / "graph.json"
        assert main(["map", "--log", str(log), "--schema", home_path, "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert "bbox" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
                             ids=["nan", "infinity", "-infinity", "1e999", "huge-int"])
    def test_bbox_not_finite_rejected(self, tmp_path, home_path, capsys, number):
        # the JSON decoder reads these as floats (or an int no float holds); a
        # non-finite box would silently drop the detection's proximity edges
        frame = self._first_frame()
        frame["detections"][0]["bbox"] = "BOX"
        log = tmp_path / "traj.jsonl"
        log.write_text(json.dumps(frame).replace('"BOX"', f"[{number}, 10, 30, 30]") + "\n")
        out = tmp_path / "graph.json"
        assert main(["map", "--log", str(log), "--schema", home_path, "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert "frame 0: bbox must be 4 finite numbers" in err and len(err.splitlines()) == 1

    def test_frame_outside_schema_rejected(self, tmp_path, home_path, capsys):
        frame = self._first_frame()
        frame["place_type_answer"] = "Object"
        log = tmp_path / "traj.jsonl"
        log.write_text(json.dumps(frame) + "\n")
        out = tmp_path / "graph.json"
        assert main(["map", "--log", str(log), "--schema", home_path, "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert "'Object' is not a place concept" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("field,needle", [
        ("detection", "blank detection label '   '"),
        ("place", "blank place label '  '"),
    ])
    def test_blank_label_rejected(self, tmp_path, home_path, capsys, field, needle):
        frame = self._first_frame()
        if field == "detection":
            frame["detections"][0]["label"] = "   "
        else:
            frame["place_label_answer"] = "  "
        log = tmp_path / "traj.jsonl"
        log.write_text(json.dumps(frame) + "\n")
        out = tmp_path / "graph.json"
        assert main(["map", "--log", str(log), "--schema", home_path, "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert needle in err and len(err.splitlines()) == 1

    def test_valid_schema_that_does_not_fit_the_frames_rejected(self, tmp_path, capsys):
        # a place concept with no has rule passes verify-schema, but a frame
        # of that place holding an object needs a has edge the schema forbids
        doc = json.loads(Path(HOME).read_text())
        doc["Hall"] = {"layer_type": "Place", "layer_id": 2, "connects_to": ["Room"]}
        schema = tmp_path / "hall.json"
        schema.write_text(json.dumps(doc))
        assert main(["verify-schema", str(schema)]) == 0
        frame = self._first_frame()
        assert frame["detections"]
        frame["place_type_answer"] = "Hall"
        log = tmp_path / "traj.jsonl"
        log.write_text(json.dumps(frame) + "\n")
        out = tmp_path / "graph.json"
        capsys.readouterr()
        assert main(["map", "--log", str(log), "--schema", str(schema), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert "schema forbids has edge Hall -> Object" in err and len(err.splitlines()) == 1


class TestRun:
    def _run(self, tmp_path, home_path, out_name, extra):
        out = tmp_path / out_name
        code = main([
            "run", "--schema", home_path, "--scenes", "2", "--episodes", "6",
            "--seed", "7", "--out", str(out), *extra,
        ])
        return code, out

    def test_single_scene_trivial_episode(self, tmp_path, home_path):
        scene = generate_home_scene(np.random.default_rng(12))
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(scene_to_json(scene))
        out = tmp_path / "m.csv"
        code = main([
            "run", "--schema", home_path, "--scene", str(scene_path),
            "--episodes", "2", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "agent,episode,success,spl,p,l,dtg"
        assert lines[-1].startswith("full,aggregate,")

    def test_baseline_rows_included(self, tmp_path, home_path):
        code, out = self._run(tmp_path, home_path, "b.csv", ["--baseline"])
        assert code == 0
        text = out.read_text()
        assert "random,aggregate" in text and "frontier,aggregate" in text

    def test_rerun_same_seed_identical_bytes(self, tmp_path, home_path):
        _, out1 = self._run(tmp_path, home_path, "a1.csv", ["--baseline"])
        _, out2 = self._run(tmp_path, home_path, "a2.csv", ["--baseline"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_jobs_parallelism_identical_bytes(self, tmp_path, home_path):
        _, seq = self._run(tmp_path, home_path, "seq.csv", ["--baseline"])
        _, par = self._run(tmp_path, home_path, "par.csv", ["--baseline", "--jobs", "3"])
        assert seq.read_bytes() == par.read_bytes()

    @pytest.mark.parametrize("cpus, expected", [(64, 5), (2, 2), (None, 1)])
    def test_jobs_pool_is_capped(self, tmp_path, home_path, monkeypatch, cpus, expected):
        # 6 episodes x 3 agents = 18 jobs in chunks of 4: 5 chunks; the pool is
        # recorded and run inline, so no process is started
        sizes = []

        class InlineExecutor:
            def __init__(self, max_workers, initializer):
                sizes.append(max_workers)
                initializer()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        _, seq = self._run(tmp_path, home_path, "seq.csv", ["--baseline"])
        assert sizes == []
        _, par = self._run(tmp_path, home_path, "par.csv", ["--baseline", "--jobs", "5000"])
        assert sizes == [expected]
        assert seq.read_bytes() == par.read_bytes()

    def test_one_oracle_per_run_writes_what_fresh_ones_per_episode_write(
        self, tmp_path, home_path, monkeypatch
    ):
        from scenenav.oracle.rules import RuleOracle

        extra = ["--baseline", "--particles", "5"]
        run_episode = cli.run_episode
        oracles = []

        def shared(spec, schema, oracle, config):
            oracles.append(oracle)
            return run_episode(spec, schema, oracle, config)

        monkeypatch.setattr(cli, "run_episode", shared)
        _, one = self._run(tmp_path, home_path, "one.csv", extra)
        assert len(oracles) == 6 and all(o is oracles[0] for o in oracles)
        monkeypatch.setattr(cli, "run_episode", lambda spec, schema, _, config: run_episode(
            spec, schema, RuleOracle(), config))
        _, fresh = self._run(tmp_path, home_path, "fresh.csv", extra)
        monkeypatch.undo()
        _, pooled = self._run(tmp_path, home_path, "pooled.csv", extra + ["--jobs", "2"])
        assert one.read_bytes() == fresh.read_bytes() == pooled.read_bytes()

    def test_missing_out_directory_fails_before_any_episode(
        self, tmp_path, home_path, monkeypatch, capsys
    ):
        ran = []
        monkeypatch.setattr(cli, "run_episode", lambda *args: ran.append(args))
        out = tmp_path / "nonexistent" / "dir" / "o.csv"
        code = main(["run", "--schema", home_path, "--scenes", "2", "--episodes", "6",
                     "--out", str(out)])
        assert code == 2
        assert ran == []
        err = capsys.readouterr().err.strip()
        assert "--out" in err and len(err.splitlines()) == 1
        assert not out.parent.exists()

    def test_out_naming_a_directory_fails_before_any_episode(
        self, tmp_path, home_path, monkeypatch, capsys
    ):
        ran = []
        monkeypatch.setattr(cli, "run_episode", lambda *args: ran.append(args))
        code = main(["run", "--schema", home_path, "--scenes", "1", "--episodes", "1",
                     "--out", str(tmp_path)])
        assert code == 2
        assert ran == []
        err = capsys.readouterr().err.strip()
        assert err.startswith("--out ") and len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["home.json"]

    def test_negative_particles_rejected(self, tmp_path, home_path, capsys):
        out = tmp_path / "n.csv"
        code = main([
            "run", "--schema", home_path, "--episodes", "1", "--particles", "-3",
            "--out", str(out),
        ])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert "--particles" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("text,needle", [
        ("{not json", "invalid scene"),
        ("{}", "'env_label'"),
        ("[]", "JSON object"),
        ('{"env_label": "home", "places": [{"id": "a", "cls": "Room"}]}', "'label'"),
        ('{"env_label": "home", "places": [{"id": "a", "cls": "Room", "label": "kitchen",'
         ' "objects": []}]}', "no objects"),
        # a misspelt optional key would otherwise read as an empty room or no links
        ('{"env_label": "home", "places": [{"id": "a", "cls": "Room", "label": "kitchen",'
         ' "object": [{"label": "sink"}]}]}',
         "invalid scene: malformed scene entry: an entry of 'places' has unknown key 'object'"),
        ('{"env_label": "home", "places": [{"id": "a", "cls": "Room", "label": "kitchen",'
         ' "objects": [{"label": "sink"}]}], "link": []}',
         "invalid scene: malformed scene entry: the scene has unknown key 'link'"),
        ('{"env_label": "home", "places": [{"id": "a", "cls": "Room", "label": "kitchen",'
         ' "objects": [{"label": "sink", "descr": "steel"}]}]}',
         "an entry of 'objects' has unknown key 'descr'"),
        ('{"env_label": "home", "connectors": [{"id": "d", "label": "door",'
         ' "endpoints": ["a", "b"], "endpoint": "a"}]}',
         "an entry of 'connectors' has unknown key 'endpoint'"),
        ('{"env_label": "home", "regions": [{"id": "f", "cls": "Floor", "label": "floor",'
         ' "children": [], "child": "a"}]}',
         "an entry of 'regions' has unknown key 'child'"),
    ], ids=["invalid-json", "no-env-label", "not-an-object", "place-without-label",
            "no-objects", "place-unknown-key", "scene-unknown-key", "object-unknown-key",
            "connector-unknown-key", "region-unknown-key"])
    def test_invalid_scene_file_rejected(self, tmp_path, home_path, capsys, text, needle):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(text)
        out = tmp_path / "m.csv"
        code = main([
            "run", "--schema", home_path, "--scene", str(scene_path),
            "--episodes", "2", "--out", str(out),
        ])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert needle in err and len(err.splitlines()) == 1

    def test_unreachable_goal_rejected(self, tmp_path, home_path, capsys):
        # the only door leads to a place the scene does not define
        scene = {
            "env_label": "home",
            "places": [
                {"id": "kitchen_1", "cls": "Room", "label": "kitchen",
                 "objects": [{"label": "fridge"}]},
                {"id": "bedroom_1", "cls": "Room", "label": "bedroom",
                 "objects": [{"label": "bed"}]},
            ],
            "connectors": [{"id": "door_1", "label": "door",
                            "endpoints": ["bedroom_1", "ghost_1"]}],
            "links": [["bedroom_1", "ghost_1", "door_1"]],
        }
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        out = tmp_path / "m.csv"
        code = main([
            "run", "--schema", home_path, "--scene", str(scene_path),
            "--episodes", "2", "--goal", "fridge", "--out", str(out),
        ])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "'fridge'" in err and "'bedroom_1'" in err and "'home'" in err

    def test_remote_backend_rejected_for_run(self, tmp_path, home_path, capsys):
        # episodes run on the rule oracle only; `run` has no --backend flag
        out = tmp_path / "x.csv"
        code = main([
            "run", "--schema", home_path, "--backend", "remote",
            "--episodes", "1", "--out", str(out),
        ])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert "--backend" in err and len(err.splitlines()) == 1

    def test_fixed_run_csv_golden(self, tmp_path, home_path, capsys):
        out = tmp_path / "fixed.csv"
        code = main([
            "run", "--schema", home_path, "--scenes", "20", "--episodes", "200",
            "--baseline", "--out", str(out),
        ])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FIXED_RUN_SHA256
        # every generated home holds some protocol goal: no fallback line
        assert "every object label" not in capsys.readouterr().err

    def test_fixed_run_asks_the_oracle_as_often_as_recorded(
        self, tmp_path, home_path, monkeypatch
    ):
        # each decision is one completion of a foundation model, the paper's cost
        # unit: the shape of an answer must not change how often it is asked
        asked = dict.fromkeys(FIXED_RUN_DECISIONS, 0)
        for name in asked:
            def counted(self, *args, _name=name, _decide=getattr(RuleOracle, name), **kwargs):
                asked[_name] += 1
                return _decide(self, *args, **kwargs)

            monkeypatch.setattr(RuleOracle, name, counted)
        out = tmp_path / "fixed.csv"
        code = main([
            "run", "--schema", home_path, "--scenes", "20", "--episodes", "200",
            "--baseline", "--out", str(out),
        ])
        assert code == 0
        assert asked == FIXED_RUN_DECISIONS
        assert sum(asked.values()) / 200 == pytest.approx(31.0, abs=0.05)

    def test_fixed_noiseless_run_csv_golden(self, tmp_path, home_path):
        out = tmp_path / "fixed.csv"
        code = main([
            "run", "--schema", home_path, "--scenes", "20", "--episodes", "200",
            "--baseline", "--noiseless", "--out", str(out),
        ])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FIXED_NOISELESS_RUN_SHA256

    @pytest.mark.parametrize("case,extra", [
        ("noise", []),  # the default noise
        # no listed goal is in the scene: every object label becomes a goal
        ("absent-goal", ["--goal", "unicorn"]),
        ("noiseless", ["--noiseless"]),
    ])
    def test_scene_file_run_csv_golden(self, tmp_path, home_path, capsys, case, extra):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(scene_to_json(generate_home_scene(np.random.default_rng(12))))
        out = tmp_path / "scene.csv"
        code = main([
            "run", "--schema", home_path, "--scene", str(scene_path), "--episodes", "25",
            "--seed", "5", "--baseline", *extra, "--out", str(out),
        ])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SCENE_RUN_SHA256[case]
        # a run that falls back says so
        fallback = [
            "scene 'home': no object satisfies the goals 'unicorn'; "
            "searching for every object label instead"
        ]
        assert capsys.readouterr().err.splitlines() == (fallback if case == "absent-goal" else [])

    def test_goal_matches_a_capitalised_scene_label(self, tmp_path, home_path):
        scene = json.loads(scene_to_json(generate_home_scene(np.random.default_rng(12))))
        for place in scene["places"]:
            for obj in place["objects"]:
                if obj["label"] == "sofa":
                    obj["label"] = "Sofa"
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        runs = []
        for i, goal in enumerate(["Sofa", "sofa", "unicorn"]):
            out = tmp_path / f"c{i}.csv"
            code = main(["run", "--schema", home_path, "--scene", str(scene_path),
                         "--episodes", "5", "--seed", "5", "--goal", goal, "--out", str(out)])
            assert code == 0
            runs.append(out.read_bytes())
        # both spellings run sofa episodes; an absent goal falls back to every label
        assert runs[0] == runs[1] != runs[2]

    def test_synonym_goal_runs_the_same_episodes(self, tmp_path, home_path):
        # the seed-12 home holds a sofa, never a couch
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(scene_to_json(generate_home_scene(np.random.default_rng(12))))
        runs = []
        for i, goal in enumerate(["couch", "sofa", "unicorn"]):
            out = tmp_path / f"s{i}.csv"
            code = main(["run", "--schema", home_path, "--scene", str(scene_path),
                         "--episodes", "5", "--seed", "5", "--goal", goal, "--out", str(out)])
            assert code == 0
            runs.append(out.read_bytes())
        assert runs[0] == runs[1] != runs[2]

    def test_goal_list_applies_to_generated_scenes(self, tmp_path, home_path, monkeypatch):
        goals = []

        def record(spec, schema, oracle, config):
            goals.append(spec.goal)
            return EpisodeResult(success=True, hops_traversed=0, shortest_hops=0,
                                 final_goal_distance=0.0)

        monkeypatch.setattr(cli, "run_episode", record)
        code, _ = self._run(tmp_path, home_path, "g.csv", ["--goal", "sink,unicorn"])
        assert code == 0
        assert goals == ["sink"] * 6

    def test_goal_entries_are_stripped_and_match_any_case(self, tmp_path, home_path):
        runs = []
        for i, goal in enumerate(["tv,sofa", "tv, sofa", " TV,Sofa"]):
            code, out = self._run(tmp_path, home_path, f"g{i}.csv", ["--goal", goal])
            assert code == 0
            runs.append(out.read_bytes())
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("episodes,scenes", [
        ("200", "30"), ("1", "2"), ("6", "0"), ("0", "2"), ("-4", "2"),
    ])
    def test_episodes_not_a_positive_multiple_of_scenes_rejected(
        self, tmp_path, home_path, capsys, episodes, scenes
    ):
        out = tmp_path / "m.csv"
        code = main([
            "run", "--schema", home_path, "--scenes", scenes, "--episodes", episodes,
            "--out", str(out),
        ])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert "--episodes" in err and "--scenes" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("case,code", [("missing", 2), ("unparsable", 1), ("invalid", 1)])
def test_every_command_reports_a_bad_schema_alike(tmp_path, home_path, capsys, case, code):
    schema = tmp_path / "schema.json"
    if case == "unparsable":
        schema.write_text("{")
    elif case == "invalid":
        doc = json.loads(Path(home_path).read_text())
        doc["Room"]["has"] = ["Corridor"]
        schema.write_text(json.dumps(doc))
    log = tmp_path / "t.jsonl"
    log.write_text("")
    out = str(tmp_path / "out")
    errs = []
    for argv in (["verify-schema", str(schema)],
                 ["map", "--log", str(log), "--schema", str(schema), "--out", out],
                 ["run", "--schema", str(schema), "--scenes", "1", "--episodes", "1",
                  "--out", out]):
        assert main(argv) == code
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == errs[2]
    assert len(errs[0].strip().splitlines()) == 1
    assert not os.path.exists(out)


class TestFlagBounds:
    """Out-of-range counts and unknown flags end in one line naming the flag and exit 1."""

    @staticmethod
    def _rejected(capsys, argv, flag, out):
        assert main(argv) == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert flag in err and len(err.splitlines()) == 1
        assert "Traceback" not in err
        return err

    def test_gen_schema_max_iterations(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        argv = ["gen-schema", "home", "--out", str(out), "--max-iterations", "0"]
        self._rejected(capsys, argv, "--max-iterations", out)

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_run_jobs(self, tmp_path, home_path, capsys, jobs):
        out = tmp_path / "m.csv"
        argv = ["run", "--schema", home_path, "--scenes", "1", "--episodes", "1",
                "--jobs", jobs, "--out", str(out)]
        self._rejected(capsys, argv, "--jobs", out)

    @pytest.mark.parametrize("factor,slack", [("-1", "4"), ("2", "-3"), ("0", "0")])
    def test_run_horizon(self, tmp_path, home_path, capsys, factor, slack):
        # the horizon is the fixed 2 * max(L, 1) + 4 rule: no flag value reaches it
        out = tmp_path / "m.csv"
        argv = ["run", "--schema", home_path, "--scenes", "1", "--episodes", "1",
                "--horizon-factor", factor, "--horizon-slack", slack, "--out", str(out)]
        err = self._rejected(capsys, argv, "--horizon-factor", out)
        assert "unrecognized arguments" in err
        assert (HORIZON_FACTOR, HORIZON_SLACK) == (2, 4)

    @pytest.mark.parametrize("goal", [",", "bed,,sofa", " ", "sink, "])
    def test_run_empty_goal_entry(self, tmp_path, home_path, capsys, goal):
        out = tmp_path / "m.csv"
        argv = ["run", "--schema", home_path, "--scenes", "1", "--episodes", "1",
                "--goal", goal, "--out", str(out)]
        self._rejected(capsys, argv, "--goal", out)

    @pytest.mark.parametrize("flag,value", [("--seed", "-5"), ("--scene-seed", "-1")])
    def test_run_negative_seed(self, tmp_path, home_path, capsys, monkeypatch, flag, value):
        def no_draws(*args):
            raise AssertionError("episodes drawn before the seeds were checked")

        monkeypatch.setattr(cli, "build_episodes", no_draws)
        out = tmp_path / "m.csv"
        argv = ["run", "--schema", home_path, "--scenes", "1", "--episodes", "1",
                flag, value, "--out", str(out)]
        self._rejected(capsys, argv, flag, out)

    def test_run_scene_file_ignores_negative_scene_seed(self, tmp_path, home_path):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(scene_to_json(generate_home_scene(np.random.default_rng(12))))
        out = tmp_path / "m.csv"
        argv = ["run", "--schema", home_path, "--scene", str(scene_path), "--episodes", "1",
                "--scene-seed", "-1", "--out", str(out)]
        assert main(argv) == 0 and out.exists()

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--bogus", "1"], "--bogus"),
            (["--episodes", "1.5"], "--episodes"),
            (["--jobs", "two"], "--jobs"),
            (["--particles", "many"], "--particles"),
            (["--backend", "rule"], "--backend"),
            (["--out"], "--out"),
        ],
    )
    def test_run_usage_error(self, tmp_path, home_path, capsys, extra, flag):
        # argparse's own errors share the one-line, exit-1 contract
        out = tmp_path / "m.csv"
        argv = ["run", "--schema", home_path, "--scenes", "1", "--episodes", "1",
                "--out", str(out)] + extra
        self._rejected(capsys, argv, flag, out)

    @pytest.mark.parametrize("argv, needle", [
        (["run", "--schema", "home.json"], "--out"),
        (["map", "--log", "t.jsonl", "--schema", "home.json", "--out", "g", "--format", "svg"],
         "--format"),
        (["frobnicate"], "frobnicate"),
        ([], "command"),
    ])
    def test_usage_error_is_one_line_and_exit_1(self, tmp_path, capsys, argv, needle):
        self._rejected(capsys, argv, needle, tmp_path / "absent")

    @pytest.mark.parametrize("flag", ["--beta-pix", "--beta-iou", "--min-obj-area"])
    @pytest.mark.parametrize("value", ["-5", "nan", "inf"])
    def test_map_thresholds(self, tmp_path, home_path, capsys, flag, value):
        # the thresholds are mapper constants at the old flag defaults: no value reaches them
        log, out = tmp_path / "t.jsonl", tmp_path / "g.json"
        log.write_text("")
        argv = ["map", "--log", str(log), "--schema", home_path, "--out", str(out),
                flag, value]
        err = self._rejected(capsys, argv, flag, out)
        assert "unrecognized arguments" in err
        name = flag[2:].replace("-", "_")
        assert not hasattr(MapperConfig(), name)
        old_default = {"beta_pix": 100.0, "beta_iou": 0.1, "min_obj_area": 200.0}[name]
        assert getattr(mapper, name.upper()) == old_default

    # each setting the program reads at one value only, with that value
    _DELETED = {
        "--recall": ("run", "0.9"), "--synonym": ("run", "0.1"), "--confusion": ("run", "0.1"),
        "--horizon-factor": ("run", "2"), "--horizon-slack": ("run", "4"),
        "--beta-pix": ("map", "100"), "--beta-iou": ("map", "0.1"),
        "--min-obj-area": ("map", "200"),
    }

    @pytest.mark.parametrize("flag", sorted(_DELETED))
    def test_deleted_setting_is_a_usage_error(self, tmp_path, home_path, capsys, flag):
        command, value = self._DELETED[flag]
        out = tmp_path / "out"
        if command == "run":
            argv = ["run", "--schema", home_path, "--scenes", "1", "--episodes", "1"]
        else:
            log = tmp_path / "t.jsonl"
            log.write_text("")
            argv = ["map", "--log", str(log), "--schema", home_path]
        err = self._rejected(capsys, argv + ["--out", str(out), flag, value], flag, out)
        assert err == f"scenenav: unrecognized arguments: {flag} {value}"


class TestSceneFileShapes:
    """Scene documents of the wrong shape end in one line and exit 1."""

    @staticmethod
    def _scene(**changes):
        scene = {
            "env_label": "home",
            "places": [
                {"id": "kitchen_1", "cls": "Room", "label": "kitchen",
                 "objects": [{"label": "fridge"}]},
                {"id": "bedroom_1", "cls": "Room", "label": "bedroom",
                 "objects": [{"label": "bed"}]},
            ],
            "connectors": [{"id": "door_1", "label": "door",
                            "endpoints": ["kitchen_1", "bedroom_1"]}],
            "links": [["kitchen_1", "bedroom_1", "door_1"]],
        }
        scene.update(changes)
        return scene

    def _run(self, tmp_path, scene):
        path, out = tmp_path / "scene.json", tmp_path / "m.csv"
        path.write_text(json.dumps(scene))
        code = main(["run", "--schema", HOME, "--scene", str(path), "--episodes", "2",
                     "--out", str(out)])
        return code, out

    @pytest.mark.parametrize("content,code,prefix", [
        (None, 2, "cannot read scene: "),
        (b"\xff\xfe", 1, "invalid scene: 'utf-8' codec can't decode"),
    ], ids=["missing", "not-utf8"])
    def test_unreadable_scene_ends_in_one_line(self, tmp_path, capsys, content, code, prefix):
        path, out = tmp_path / "scene.json", tmp_path / "m.csv"
        if content is not None:
            path.write_bytes(content)
        assert main(["run", "--schema", HOME, "--scene", str(path), "--episodes", "2",
                     "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and len(err.splitlines()) == 1
        assert not out.exists()

    def test_well_formed_scene_runs(self, tmp_path):
        code, out = self._run(tmp_path, self._scene())
        assert code == 0 and out.exists()
        code, out = self._run(tmp_path, self._scene(
            connectors=[], links=[["kitchen_1", "bedroom_1", None]]))
        assert code == 0 and out.exists()

    @pytest.mark.parametrize("old,new", [("door_1", "a:b"), ("kitchen_1", "kit:1")])
    def test_ids_with_colons_run_like_plain_ids(self, tmp_path, old, new):
        # the move primitive parses gt:obj:<place>:<k> and gt:conn:<id> by prefix
        renamed = json.loads(json.dumps(self._scene()).replace(f'"{old}"', f'"{new}"'))
        outs = []
        for name, scene in (("plain", self._scene()), ("colon", renamed)):
            path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            path.write_text(json.dumps(scene))
            assert main(["run", "--schema", HOME, "--scene", str(path), "--episodes", "6",
                         "--baseline", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[1] == outs[0]

    @pytest.mark.parametrize("changes,needle", [
        ({"env_label": 3}, "'env_label'"),
        ({"places": {"kitchen_1": {}}}, "'places'"),
        ({"links": [["kitchen_1", "bedroom_1"]]}, "a link must be"),
        ({"links": [["kitchen_1", 2, None]]}, "a link must be"),
        ({"connectors": [{"id": "door_1", "label": "door", "endpoints": ["kitchen_1"]}]},
         "2 strings"),
        ({"regions": [{"id": "floor_1", "cls": "Floor", "label": "floor",
                       "children": ["kitchen_1", "attic_1"]}]}, "unknown place attic_1"),
        ({"places": [{"id": "kitchen_1", "cls": "Room", "label": "kitchen"},
                     {"id": "bedroom_1", "cls": "Room", "label": "bedroom"},
                     {"id": "kitchen_1", "cls": "Room", "label": "kitchen",
                      "objects": [{"label": "sink"}]}]},
         "repeated place id 'kitchen_1'"),
        ({"connectors": [{"id": "door_1", "label": "door",
                          "endpoints": ["kitchen_1", "bedroom_1"]}] * 2},
         "repeated connector id 'door_1'"),
        ({"regions": [{"id": "floor_1", "cls": "Floor", "label": "floor",
                       "children": ["kitchen_1"]},
                      {"id": "floor_1", "cls": "Floor", "label": "floor",
                       "children": ["bedroom_1"]}]}, "repeated region id 'floor_1'"),
    ], ids=["env-label", "places", "short-link", "link-type", "endpoints", "region-child",
            "repeated-place", "repeated-connector", "repeated-region"])
    def test_malformed_scene_rejected(self, tmp_path, capsys, changes, needle):
        code, out = self._run(tmp_path, self._scene(**changes))
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err.strip()
        assert needle in err and len(err.splitlines()) == 1


def _readme_sections(*titles: str) -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sections = re.split(r"^## ", text, flags=re.MULTILINE)
    found = [s for s in sections if s.split("\n", 1)[0].strip() in titles]
    assert len(found) == len(titles)
    return "\n".join(found)


def _registered_long_options() -> set[str]:
    parsers = [cli.build_parser()]
    for action in parsers[0]._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers += action.choices.values()
    return {
        option
        for parser in parsers
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


_OPTION = re.compile(r"(?<![\w-])--[a-z][a-z-]*(?![\w-])")
_CLI_SECTIONS = ("Command line", "Trajectory log format")


def test_readme_documents_every_registered_option():
    mentioned = set(_OPTION.findall(_readme_sections(*_CLI_SECTIONS)))
    assert _registered_long_options() - mentioned == set()


def test_readme_mentions_no_unregistered_option():
    mentioned = set(_OPTION.findall(_readme_sections(*_CLI_SECTIONS)))
    assert mentioned - _registered_long_options() == set()


# a module bullet of the README runs from its "- **`scenenav.x`**" line to the
# next bullet, blank line or heading
_MODULE_BULLET = re.compile(r"^- \*\*`(scenenav(?:\.\w+)*)`\*\*(.*?)(?=^- |^$|^#)",
                            re.MULTILINE | re.DOTALL)
_CALL_NAME = re.compile(r"`(\w+(?:\.\w+)*)\(\)`")


def _public_attributes(module) -> set[str]:
    """Public names of ``module`` and of the classes defined in it or its submodules."""
    names = {name for name in vars(module) if not name.startswith("_")}
    for value in vars(module).values():
        if isinstance(value, type) and (
            value.__module__ == module.__name__
            or value.__module__.startswith(module.__name__ + ".")
        ):
            for klass in value.__mro__:  # what a builtin base adds is no project API
                if klass.__module__ != "builtins":
                    names |= {name for name in vars(klass) if not name.startswith("_")}
    return names


def test_readme_module_bullets_name_only_public_calls():
    import importlib

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    bullets = _MODULE_BULLET.findall(text)
    assert {"scenenav.graph", "scenenav.oracle", "scenenav.mapper"} <= {m for m, _ in bullets}
    checked = 0
    for module_name, body in bullets:
        module = importlib.import_module(module_name)
        public = _public_attributes(module)
        for call in _CALL_NAME.findall(body):
            owner, *path = call.split(".")
            assert owner in public, f"README {module_name} bullet names {call}()"
            value = getattr(module, owner, None)
            for attr in path:  # a dotted name resolves one public attribute at a time
                assert not attr.startswith("_") and hasattr(value, attr), (
                    f"README {module_name} bullet names {call}()"
                )
                value = getattr(value, attr)
            checked += 1
    assert checked >= 20
