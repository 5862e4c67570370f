"""Chat-completion backend of the schema-generation pipeline.

``gen-schema --backend remote[:config.json]`` sends each rendered prompt to an
HTTP chat-completion endpoint and hands the reply text back to the pipeline.
A failed call, or a reply whose content is not a string, is retried a bounded
number of times; then the call raises ``OracleError``.  Navigation decisions
are not served here: the rule backend makes them.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import MISSING, dataclass, fields
from typing import Callable

from ..schemagen import ChatBackend
from .base import OracleError

logger = logging.getLogger(__name__)

__all__ = ["RemoteConfig", "RemoteChatBackend"]

Transport = Callable[[str, dict, dict, float], dict]


def _number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _integer(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# remote config field -> (what its value must be, the test of it)
_FIELD_CHECKS: dict[str, tuple[str, Callable[[object], bool]]] = {
    "endpoint": ("a string", lambda v: isinstance(v, str)),
    "model": ("a string", lambda v: isinstance(v, str)),
    "api_key_env": ("a string", lambda v: isinstance(v, str)),
    "temperature": ("a finite number >= 0", lambda v: _number(v) and v >= 0),
    "timeout": ("a finite number > 0", lambda v: _number(v) and v > 0),
    "max_retries": ("an integer >= 0", lambda v: _integer(v) and v >= 0),
}


@dataclass(frozen=True)
class RemoteConfig:
    endpoint: str
    model: str
    api_key_env: str = "SCENENAV_API_KEY"
    temperature: float = 0.3
    timeout: float = 30.0
    max_retries: int = 2

    def __post_init__(self) -> None:
        """Reject a wrongly typed or out-of-range field with a ``ValueError`` naming it."""
        for f in fields(self):
            want, ok = _FIELD_CHECKS[f.name]
            value = getattr(self, f.name)
            if not ok(value):
                raise ValueError(f"remote config key {f.name!r} must be {want}, not {value!r}")

    @classmethod
    def from_file(cls, path: str) -> "RemoteConfig":
        """Load a config; anything but an object of known, valid keys raises ``ValueError``."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                raw = json.load(handle)
            except ValueError as exc:  # not UTF-8, or not JSON
                raise ValueError(f"{path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: a remote config must be a JSON object")
        known = {f.name: f for f in fields(cls)}
        for key in raw:
            if key not in known:
                raise ValueError(f"{path}: unknown remote config key {key!r}")
        for name, f in known.items():
            if f.default is MISSING and name not in raw:
                raise ValueError(f"{path}: remote config lacks required key {name!r}")
        try:
            return cls(**raw)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    @classmethod
    def from_env(cls) -> "RemoteConfig":
        endpoint = os.environ.get("SCENENAV_ENDPOINT")
        model = os.environ.get("SCENENAV_MODEL")
        if not endpoint or not model:
            raise OracleError("remote backend needs SCENENAV_ENDPOINT and SCENENAV_MODEL set")

        def number(name: str, default: str) -> float:
            raw = os.environ.get(f"SCENENAV_{name}", default)
            try:
                return float(raw)
            except ValueError:
                raise ValueError(f"SCENENAV_{name}={raw!r} is not a number") from None

        return cls(
            endpoint=endpoint,
            model=model,
            api_key_env=os.environ.get("SCENENAV_API_KEY_ENV", "SCENENAV_API_KEY"),
            temperature=number("TEMPERATURE", "0.3"),
            timeout=number("TIMEOUT", "30"),
        )


def _requests_transport(url: str, payload: dict, headers: dict, timeout: float) -> dict:
    import requests

    response = requests.post(url, json=payload, headers=headers, timeout=timeout)
    response.raise_for_status()
    return response.json()


class RemoteChatBackend(ChatBackend):
    """Text backend of the schema-generation pipeline, served by a chat-completion endpoint."""

    def __init__(self, config: RemoteConfig, transport: Transport | None = None):
        self.config = config
        self._transport = transport if transport is not None else _requests_transport

    def complete(self, template_id: str, prompt: str) -> str:
        payload = {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "messages": [{"role": "user", "content": prompt}],
        }
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            try:
                raw = self._transport(self.config.endpoint, payload, headers, self.config.timeout)
                content = raw["choices"][0]["message"]["content"]
                if not isinstance(content, str):
                    raise TypeError(f"reply content is not a string: {content!r:.80}")
                return content
            except Exception as exc:  # transport or shape failure
                last_error = exc
                logger.info("remote call %s attempt %d failed: %s", template_id, attempt + 1, exc)
        raise OracleError(f"remote backend failed for {template_id}: {last_error}")
