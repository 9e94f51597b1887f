"""HTTP-style request and response objects."""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.errors import HttpError

_METHODS = ("GET", "POST", "PUT", "DELETE", "PATCH")


@dataclass
class Request:
    """An incoming request.

    ``path_params`` is filled by the router; ``principal`` and
    ``tenant`` by the middleware chain; ``answer`` replaces the route.
    """

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    query: Dict[str, Any] = field(default_factory=dict)
    body: Any = None
    path_params: Dict[str, str] = field(default_factory=dict)
    principal: Any = None
    tenant: Optional[str] = None
    answer: Optional[Callable[["Request"], "Response"]] = None

    def __post_init__(self) -> None:
        method = self.method.upper()
        if method not in _METHODS:
            raise HttpError(405, f"unsupported method {self.method!r}")
        self.method = method
        if not self.path.startswith("/"):
            raise HttpError(400, f"path must start with '/': {self.path!r}")
        # Header names are case-insensitive.
        self.headers = {key.lower(): value
                        for key, value in self.headers.items()}

    def header(self, name: str, default: Optional[str] = None) \
            -> Optional[str]:
        return self.headers.get(name.lower(), default)

    def require_param(self, name: str) -> str:
        if name in self.path_params:
            return self.path_params[name]
        raise HttpError(400, f"missing path parameter {name!r}")


def _json_default(value: Any) -> Any:
    if isinstance(value, (datetime.date, datetime.datetime)):
        return value.isoformat()
    if isinstance(value, set):
        return sorted(value)
    raise TypeError(
        f"cannot serialize {type(value).__name__} to JSON")


@dataclass
class Response:
    """An outgoing response; ``seen.current()``, if set, says whether
    what it was built from still stands."""

    status: int = 200
    body: Any = None
    headers: Dict[str, str] = field(default_factory=dict)
    seen: Any = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def json(self) -> Any:
        """The body parsed from its JSON text (or as-is when native)."""
        if isinstance(self.body, (str, bytes)):
            return json.loads(self.body)
        return self.body


class JsonResponse(Response):
    """A response whose body is serialized to a JSON string."""

    def __init__(self, body: Any, status: int = 200,
                 headers: Optional[Dict[str, str]] = None):
        text = json.dumps(body, default=_json_default, sort_keys=True)
        merged = {"content-type": "application/json"}
        merged.update(headers or {})
        super().__init__(status=status, body=text, headers=merged)
