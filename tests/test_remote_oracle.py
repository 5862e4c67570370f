import pytest

from scenenav.oracle.base import OracleError
from scenenav.oracle.remote import RemoteChatBackend, RemoteConfig


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


def backend_with(replies, **cfg):
    config = RemoteConfig(
        endpoint="https://example.invalid/v1/chat", model="test-model", **cfg
    )
    transport = FakeTransport(replies)
    return RemoteChatBackend(config, transport=transport), transport


def test_payload_carries_model_and_temperature(monkeypatch):
    monkeypatch.setenv("SCENENAV_API_KEY", "sk-test")
    backend, transport = backend_with(["Text: rooms"])
    assert backend.complete("env_description", "Describe a home.") == "Text: rooms"
    url, payload, headers, timeout = transport.calls[0]
    assert payload["model"] == "test-model"
    assert payload["temperature"] == 0.3
    assert headers["Authorization"] == "Bearer sk-test"


def test_transport_exceptions_raise_after_retries():
    boom = [RuntimeError("down"), RuntimeError("down"), RuntimeError("down")]
    backend, transport = backend_with(boom)
    with pytest.raises(OracleError):
        backend.complete("env_description", "hello")
    assert len(transport.calls) == 3


@pytest.mark.parametrize("content", [None, 42, ["a"], {"x": 1}],
                         ids=["none", "number", "list", "object"])
def test_non_string_content_is_retried_then_raises(content):
    backend, transport = backend_with([content, content, content])
    with pytest.raises(OracleError, match="not a string"):
        backend.complete("env_description", "hello")
    assert len(transport.calls) == 3


def test_non_string_content_then_text_succeeds():
    backend, transport = backend_with([None, "Text: rooms"])
    assert backend.complete("env_description", "hello") == "Text: rooms"
    assert len(transport.calls) == 2


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
    backend, _ = backend_with(replies)
    trace = run_pipeline("home", backend, max_iterations=3)
    assert trace.succeeded
