import pytest

from scenenav.graph import ObjectFeatures
from scenenav.oracle.base import OracleError
from scenenav.oracle.remote import RemoteChatOracle, RemoteConfig
from scenenav.schema import builtin_schema


def feats(*labels):
    return ObjectFeatures(items=tuple((l, "") for l in labels))


class FakeTransport:
    """Scripted chat endpoint; records payloads, pops replies in order."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = []

    def __call__(self, url, payload, headers, timeout):
        self.calls.append((url, payload, headers, timeout))
        if not self.replies:
            raise RuntimeError("no scripted reply left")
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return {"choices": [{"message": {"content": reply}}]}


def oracle_with(replies, **cfg):
    config = RemoteConfig(
        endpoint="https://example.invalid/v1/chat", model="test-model", **cfg
    )
    transport = FakeTransport(replies)
    return RemoteChatOracle(config, transport=transport), transport


def test_payload_carries_model_and_temperature(monkeypatch):
    monkeypatch.setenv("SCENENAV_API_KEY", "sk-test")
    oracle, transport = oracle_with(["Answer: none"])
    oracle.similar_labels("kitchen", ["kitchen_1"])
    url, payload, headers, timeout = transport.calls[0]
    assert payload["model"] == "test-model"
    assert payload["temperature"] == 0.3
    assert headers["Authorization"] == "Bearer sk-test"


def test_similar_labels_parses_subset():
    oracle, _ = oracle_with(["Answer: livingroom_1, familyroom_2"])
    got = oracle.similar_labels(
        "livingroom", ["kitchen_1", "livingroom_1", "familyroom_2"]
    )
    assert got == ["livingroom_1", "familyroom_2"]


def test_match_place_parses_confidence_and_reasoning():
    oracle, _ = oracle_with(
        ["Answer: True\nConfidence: 0.82\nReasoning: same large furniture"]
    )
    decision = oracle.match_place(feats("bed", "lamp"), feats("bed", "lamp"))
    assert decision.matched
    assert decision.confidence == pytest.approx(0.82)
    assert "furniture" in decision.reasoning


def test_match_place_confidence_clamped_into_open_interval():
    oracle, _ = oracle_with(["Answer: False\nConfidence: 0.0"])
    decision = oracle.match_place(feats("a"), feats("b"))
    assert 0.0 < decision.confidence < 1.0


def test_match_place_retries_then_degrades():
    oracle, transport = oracle_with(["gibberish", "more gibberish", "???"])
    decision = oracle.match_place(feats("a"), feats("b"))
    assert not decision.matched
    assert len(transport.calls) == 3  # initial + 2 retries


def test_classify_elements_parses_buckets():
    home = builtin_schema("home")
    reply = "room: livingroom_0\nentrance: door_2, doorway_3\nobject: table_4, tv_5"
    oracle, _ = oracle_with([reply])
    got = oracle.classify_elements(
        ["livingroom_0", "door_2", "doorway_3", "table_4", "tv_5"], home
    )
    assert got.place_label == "livingroom_0"
    assert got.connectors == ("door_2", "doorway_3")
    assert got.objects == ("table_4", "tv_5")


def test_classify_degrades_to_objects():
    home = builtin_schema("home")
    oracle, _ = oracle_with(["nothing useful", "still nothing", "nope"])
    got = oracle.classify_elements(["tv_0", "door_1"], home)
    assert got.objects == ("tv_0", "door_1")


def test_match_object_rejects_non_candidates():
    candidates = [("door_1", "door", "", feats("tv"))]
    oracle, _ = oracle_with(["Answer: window_9", "Answer: window_9", "Answer: window_9"])
    assert oracle.match_object(("door", "", feats("tv")), candidates) is None


def test_match_object_accepts_candidate():
    candidates = [("door_1", "door", "", feats("tv"))]
    oracle, _ = oracle_with(["Answer: door_1"])
    assert oracle.match_object(("door", "", feats("tv")), candidates) == "door_1"


def test_infer_region_new_and_existing():
    home = builtin_schema("home")
    oracle, _ = oracle_with(["Reasoning: fresh level.\nAnswer: upper floor (New)"])
    choice = oracle.infer_region(home, "Floor", [("floor_1", "floor")], ("a", "bedroom"), None)
    assert choice.is_new and choice.value == "upper floor"
    oracle, _ = oracle_with(["Answer: floor_1"])
    choice = oracle.infer_region(home, "Floor", [("floor_1", "floor")], ("a", "bedroom"), None)
    assert not choice.is_new and choice.value == "floor_1"


def test_infer_region_ambiguous_defaults_to_new():
    home = builtin_schema("home")
    oracle, _ = oracle_with(["Answer: floor_99", "Answer: floor_99", "Answer: floor_99"])
    choice = oracle.infer_region(home, "Floor", [("floor_1", "floor")], ("a", "bedroom"), None)
    assert choice.is_new


def test_select_region_closure_enforced():
    oracle, _ = oracle_with(["Answer: attic_1", "Answer: attic_1", "Answer: attic_1"])
    got = oracle.select_region([("kitchen_1", "kitchen", "oven")], "sink")
    assert got.chosen == "kitchen_1"  # degraded to first candidate


def test_select_object_parses_reasoning():
    oracle, _ = oracle_with(["Answer: mirror_2\nReasoning: mirrors hang over sinks"])
    got = oracle.select_object([("mirror_2", "mirror", ""), ("sofa_1", "sofa", "")], "sink")
    assert got.chosen == "mirror_2"
    assert "sink" in got.reasoning


def test_goal_match_none_and_hit():
    oracle, _ = oracle_with(["Answer: none"])
    assert oracle.goal_match([("bed", "red")], "guitar") is None
    oracle, _ = oracle_with(["Answer: bed"])
    assert oracle.goal_match([("bed", "red cotton")], "red bed") == ("bed", "red cotton")


def test_transport_exceptions_raise_after_retries():
    boom = [RuntimeError("down"), RuntimeError("down"), RuntimeError("down")]
    oracle, transport = oracle_with(boom)
    with pytest.raises(OracleError):
        oracle.complete("env_description", "hello")
    assert len(transport.calls) == 3


def test_config_from_file(tmp_path):
    path = tmp_path / "remote.json"
    path.write_text(
        '{"endpoint": "https://example.invalid", "model": "m", "temperature": 0.1}'
    )
    config = RemoteConfig.from_file(str(path))
    assert config.temperature == 0.1
    assert config.api_key_env == "SCENENAV_API_KEY"


@pytest.mark.parametrize("doc,needle", [
    ('{"endpoint": "e", "model": "m", "api_key": "k"}', "unknown remote config key 'api_key'"),
    ('{"model": "m"}', "lacks required key 'endpoint'"),
    ('"e"', "must be a JSON object"),
], ids=["unknown-key", "missing-key", "not-an-object"])
def test_config_from_file_rejects_malformed(tmp_path, doc, needle):
    path = tmp_path / "remote.json"
    path.write_text(doc)
    with pytest.raises(ValueError, match=needle):
        RemoteConfig.from_file(str(path))


@pytest.mark.parametrize("variable", ["SCENENAV_TEMPERATURE", "SCENENAV_TIMEOUT"])
def test_config_from_env_names_an_unparsable_number(monkeypatch, variable):
    monkeypatch.setenv("SCENENAV_ENDPOINT", "https://example.invalid")
    monkeypatch.setenv("SCENENAV_MODEL", "m")
    monkeypatch.setenv(variable, "soon")
    with pytest.raises(ValueError, match=f"{variable}='soon' is not a number"):
        RemoteConfig.from_env()


def test_schema_pipeline_can_use_remote_backend():
    from scenenav.schemagen import run_pipeline

    replies = [
        "Text: rooms hold objects; rooms connect to entrances; entrances sit near objects; the home contains rooms.",
        "Triplets:\n[home, contains, room]\n[room, contains, object]\n[room, connects, entrance]\n[entrance, is near, object]",
        "Answer: [home, contains, room]",
        "Answer: [room, contains, object]",
        "Answer: [room, connects to, entrance]",
        "Answer: [entrance, is near, object]",
    ]
    oracle, _ = oracle_with(replies)
    trace = run_pipeline("home", oracle, max_iterations=3)
    assert trace.succeeded
