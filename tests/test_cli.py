import hashlib
import json

import numpy as np
import pytest

from scenenav import cli
from scenenav.cli import main
from scenenav.mapper import frames_to_jsonl
from scenenav.sim import (
    EpisodeResult,
    cover_walk,
    generate_home_scene,
    generate_market_scene,
    noiseless,
    scene_to_json,
    walk_to_frames,
)

HOME = "src/scenenav/assets/schemas/home.json"

# SHA-256 of metrics CSVs recorded before the simulator's BFS, episode builder
# and noise table were each reduced to one implementation
FIXED_RUN_SHA256 = "915d33c82476f92592079c0892820180042b8568d7f32442850592a9d1943cca"
SCENE_RUN_SHA256 = {
    "noise": "41a15e49d1064c4192ffd69afd33e7777acb2df1a2b192a0af7b8211ff0b7689",
    "absent-goal": "fcdcc59f36c2b20464ac4f31567395f506a2922c4c2112a85a06dde7bc4988d7",
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
        doc = json.loads(open(home_path).read())
        doc["Room"]["has"] = ["Corridor"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify-schema", str(bad)]) == 1
        assert "R5" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["verify-schema", "/nonexistent/schema.json"]) == 2
        assert "cannot read" in capsys.readouterr().err


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


    @pytest.mark.parametrize("doc,needle", [
        ('{"endpoint": "https://example.invalid", "model": "m", "temprature": 0.1}',
         "'temprature'"),
        ('{"endpoint": "https://example.invalid"}', "'model'"),
        ('["https://example.invalid", "m"]', "JSON object"),
    ], ids=["unknown-key", "missing-key", "not-an-object"])
    def test_malformed_remote_config_rejected(self, tmp_path, capsys, doc, needle):
        config = tmp_path / "remote.json"
        config.write_text(doc)
        out = tmp_path / "schema.json"
        code = main(["gen-schema", "home", "--backend", f"remote:{config}", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert needle in err and len(err.splitlines()) == 1


class TestMap:
    def _write_log(self, tmp_path, scene):
        walk = cover_walk(scene, next(iter(scene.places)))
        frames = walk_to_frames(scene, walk, noiseless(), np.random.default_rng(0))
        log = tmp_path / "traj.jsonl"
        log.write_text(frames_to_jsonl(frames))
        return log

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

    def test_valid_schema_that_does_not_fit_the_frames_rejected(self, tmp_path, capsys):
        # a place concept with no has rule passes verify-schema, but a frame
        # of that place holding an object needs a has edge the schema forbids
        doc = json.loads(open(HOME).read())
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
            def __init__(self, max_workers):
                sizes.append(max_workers)

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
    ], ids=["invalid-json", "no-env-label", "not-an-object", "place-without-label",
            "no-objects"])
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

    def test_fixed_run_csv_golden(self, tmp_path, home_path):
        out = tmp_path / "fixed.csv"
        code = main([
            "run", "--schema", home_path, "--scenes", "20", "--episodes", "200",
            "--baseline", "--out", str(out),
        ])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FIXED_RUN_SHA256

    @pytest.mark.parametrize("case,extra", [
        ("noise", ["--recall", "0.8", "--synonym", "0.25", "--confusion", "0.3"]),
        # no listed goal is in the scene: every object label becomes a goal
        ("absent-goal", ["--goal", "unicorn"]),
    ])
    def test_scene_file_run_csv_golden(self, tmp_path, home_path, case, extra):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(scene_to_json(generate_home_scene(np.random.default_rng(12))))
        out = tmp_path / "scene.csv"
        code = main([
            "run", "--schema", home_path, "--scene", str(scene_path), "--episodes", "25",
            "--seed", "5", "--baseline", *extra, "--out", str(out),
        ])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SCENE_RUN_SHA256[case]

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

    @pytest.mark.parametrize("flag,value", [
        ("--recall", "1.5"), ("--recall", "nan"), ("--synonym", "-0.1"),
        ("--confusion", "1.2"), ("--confusion", "-0.5"),
    ])
    def test_noise_rate_outside_unit_interval_rejected(
        self, tmp_path, home_path, capsys, flag, value
    ):
        out = tmp_path / "m.csv"
        code = main([
            "run", "--schema", home_path, "--scenes", "2", "--episodes", "2",
            flag, value, "--out", str(out),
        ])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert flag.lstrip("-") in err and len(err.splitlines()) == 1


class TestFlagBounds:
    """Out-of-range counts and thresholds end in one line naming the flag and exit 1."""

    @staticmethod
    def _rejected(capsys, argv, flag, out):
        assert main(argv) == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert flag in err and len(err.splitlines()) == 1
        assert "Traceback" not in err

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
        out = tmp_path / "m.csv"
        argv = ["run", "--schema", home_path, "--scenes", "1", "--episodes", "1",
                "--horizon-factor", factor, "--horizon-slack", slack, "--out", str(out)]
        self._rejected(capsys, argv, "--horizon-factor", out)

    def test_run_zero_horizon_factor_still_runs(self, tmp_path, home_path):
        out = tmp_path / "m.csv"
        argv = ["run", "--schema", home_path, "--scenes", "1", "--episodes", "1",
                "--horizon-factor", "0", "--out", str(out)]
        assert main(argv) == 0 and out.exists()

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
            (["--recall", "high"], "--recall"),
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
        log, out = tmp_path / "t.jsonl", tmp_path / "g.json"
        log.write_text("")
        argv = ["map", "--log", str(log), "--schema", home_path, "--out", str(out),
                flag, value]
        self._rejected(capsys, argv, flag, out)


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

    def test_well_formed_scene_runs(self, tmp_path):
        code, out = self._run(tmp_path, self._scene())
        assert code == 0 and out.exists()
        code, out = self._run(tmp_path, self._scene(
            connectors=[], links=[["kitchen_1", "bedroom_1", None]]))
        assert code == 0 and out.exists()

    @pytest.mark.parametrize("changes,needle", [
        ({"env_label": 3}, "'env_label'"),
        ({"places": {"kitchen_1": {}}}, "'places'"),
        ({"links": [["kitchen_1", "bedroom_1"]]}, "a link must be"),
        ({"links": [["kitchen_1", 2, None]]}, "a link must be"),
        ({"connectors": [{"id": "door_1", "label": "door", "endpoints": ["kitchen_1"]}]},
         "2 strings"),
        ({"regions": [{"id": "floor_1", "cls": "Floor", "label": "floor",
                       "children": ["kitchen_1", "attic_1"]}]}, "unknown place attic_1"),
    ], ids=["env-label", "places", "short-link", "link-type", "endpoints", "region-child"])
    def test_malformed_scene_rejected(self, tmp_path, capsys, changes, needle):
        code, out = self._run(tmp_path, self._scene(**changes))
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err.strip()
        assert needle in err and len(err.splitlines()) == 1
