"""The web application: routing and middleware.

Routes are registered as ``(method, pattern)`` pairs where the pattern
may contain ``{name}`` segments; handlers receive the request and
return a Response.  Middleware wraps the chain (outermost first), the
natural place for the authentication filter and the tenant resolver
the ODBIS platform installs.
"""

from __future__ import annotations

import re
import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import (
    AccessDeniedError,
    AuthenticationError,
    BulkheadRejectedError,
    CircuitOpenError,
    DeadlineExceededError,
    HttpError,
    ReproError,
    StaleEpochError,
    WebError,
)
from repro.web.http import JsonResponse, Request, Response

Handler = Callable[[Request], Response]
Middleware = Callable[[Request, Handler], Response]

_PARAM_SEGMENT = re.compile(r"^\{([A-Za-z_][A-Za-z0-9_]*)\}$")

#: Requests the access log remembers; ``requests_handled`` stays exact.
ACCESS_LOG_CAPACITY = 1000


class _Route:
    def __init__(self, method: str, pattern: str, handler: Handler):
        self.method = method.upper()
        self.pattern = pattern
        self.handler = handler
        self.segments = [segment for segment in pattern.split("/")
                         if segment != ""]

    def match(self, method: str, path: str) \
            -> Optional[Dict[str, str]]:
        if method != self.method:
            return None
        parts = [segment for segment in path.split("/") if segment != ""]
        if len(parts) != len(self.segments):
            return None
        params: Dict[str, str] = {}
        for expected, actual in zip(self.segments, parts):
            param = _PARAM_SEGMENT.match(expected)
            if param is not None:
                params[param.group(1)] = actual
            elif expected != actual:
                return None
        return params


class WebApplication:
    """A router plus middleware chain, dispatched synchronously."""

    def __init__(self, name: str = "app"):
        self.name = name
        self._routes: List[_Route] = []
        self._middleware: List[Middleware] = []
        # The last ACCESS_LOG_CAPACITY (method, path, status) triples;
        # the total ever handled survives in requests_handled.
        self._log_lock = threading.Lock()
        self.access_log: Deque[Tuple[str, str, int]] = deque(
            maxlen=ACCESS_LOG_CAPACITY)  # guarded-by: _log_lock
        self.requests_handled = 0  # guarded-by: _log_lock

    # -- registration -------------------------------------------------------------

    def route(self, method: str, pattern: str,
              handler: Handler) -> None:
        for existing in self._routes:
            if existing.method == method.upper() \
                    and existing.pattern == pattern:
                raise WebError(
                    f"route {method} {pattern} already registered")
        self._routes.append(_Route(method, pattern, handler))

    def get(self, pattern: str, handler: Handler) -> None:
        self.route("GET", pattern, handler)

    def post(self, pattern: str, handler: Handler) -> None:
        self.route("POST", pattern, handler)

    def put(self, pattern: str, handler: Handler) -> None:
        self.route("PUT", pattern, handler)

    def delete(self, pattern: str, handler: Handler) -> None:
        self.route("DELETE", pattern, handler)

    def use(self, middleware: Middleware) -> None:
        """Append a middleware (outermost first)."""
        self._middleware.append(middleware)

    # -- dispatch -------------------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Run the middleware chain and the matched handler."""

        def terminal(inner: Request) -> Response:
            for route in self._routes:
                params = route.match(inner.method, inner.path)
                if params is not None:
                    inner.path_params = params
                    return route.handler(inner)
            raise HttpError(404, f"no route for "
                                 f"{inner.method} {inner.path}")

        chain: Handler = terminal
        for middleware in reversed(self._middleware):
            chain = self._wrap(middleware, chain)

        try:
            response = chain(request)
        except HttpError as exc:
            response = JsonResponse({"error": exc.message},
                                    status=exc.status)
        except AuthenticationError as exc:
            response = JsonResponse({"error": str(exc)}, status=401)
        except AccessDeniedError as exc:
            response = JsonResponse({"error": str(exc)}, status=403)
        except StaleEpochError as exc:
            # A routed statement lost the race with a shard
            # promotion: retryable by contract (503, not a 400) —
            # the client re-sends and the promoted primary answers.
            response = JsonResponse(
                {"error": str(exc), "code": "stale_epoch",
                 "retryable": True, "shard": exc.shard,
                 "carried_generation": exc.carried_generation,
                 "current_generation": exc.current_generation},
                status=503)
        except CircuitOpenError as exc:
            # A breaker tripped below a handler: overload, not a bad
            # request.  503 with Retry-After = the remaining cooldown.
            retry_after = max(0.0, exc.retry_after)
            response = JsonResponse(
                {"error": str(exc), "code": "circuit_open",
                 "retry_after": round(retry_after, 3)},
                status=503,
                headers={"retry-after": f"{retry_after:.3f}"})
        except BulkheadRejectedError as exc:
            response = JsonResponse(
                {"error": str(exc), "code": "bulkhead_rejected",
                 "retry_after": 1.0}, status=429,
                headers={"retry-after": "1.000"})
        except DeadlineExceededError as exc:
            response = JsonResponse(
                {"error": str(exc), "code": "deadline_exceeded",
                 "retry_after": 1.0}, status=504,
                headers={"retry-after": "1.000"})
        except ReproError as exc:
            response = JsonResponse({"error": str(exc)}, status=400)
        with self._log_lock:
            self.access_log.append(
                (request.method, request.path, response.status))
            self.requests_handled += 1
        return response

    @staticmethod
    def _wrap(middleware: Middleware, inner: Handler) -> Handler:
        def wrapped(request: Request) -> Response:
            return middleware(request, inner)
        return wrapped

    # -- convenience client ------------------------------------------------------------

    def request(self, method: str, path: str,
                body: Any = None,
                headers: Optional[Dict[str, str]] = None,
                query: Optional[Dict[str, Any]] = None) -> Response:
        """Build a request and dispatch it (the test/SDK client)."""
        return self.handle(Request(
            method=method, path=path, body=body,
            headers=dict(headers or {}), query=dict(query or {})))
