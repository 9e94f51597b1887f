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


def _segments(path: str) -> List[str]:
    return [segment for segment in path.split("/") if segment != ""]


class _Route:
    """One pattern, with where its literals and ``{params}`` sit
    worked out once; it is tried only on paths of its own length."""

    def __init__(self, method: str, pattern: str, handler: Handler):
        self.method = method.upper()
        self.pattern = pattern
        self.handler = handler
        self.segments = _segments(pattern)
        self.literals: List[Tuple[int, str]] = []
        self.params: List[Tuple[int, str]] = []
        for position, segment in enumerate(self.segments):
            param = _PARAM_SEGMENT.match(segment)
            if param is None:
                self.literals.append((position, segment))
            else:
                self.params.append((position, param.group(1)))

    def match(self, parts: List[str]) -> Optional[Dict[str, str]]:
        """The path parameters, if ``parts`` (a path of this route's
        method and length, split) fits the pattern."""
        for position, literal in self.literals:
            if parts[position] != literal:
                return None
        return {name: parts[position] for position, name in self.params}


class WebApplication:
    """A router plus middleware chain, dispatched synchronously.

    Routes are filed by ``(method, segment count)`` in registration
    order, so a request tries only the routes its shape can match and
    the first registered still wins.  The middleware chain is built
    when middleware is added, not per request.
    """

    def __init__(self, name: str = "app"):
        self.name = name
        self._routes: Dict[Tuple[str, int], List[_Route]] = {}
        self._middleware: List[Middleware] = []
        self._chain: Handler = self._dispatch
        # The last ACCESS_LOG_CAPACITY (method, path, status) triples;
        # the total ever handled survives in requests_handled.
        self._log_lock = threading.Lock()
        self.access_log: Deque[Tuple[str, str, int]] = deque(
            maxlen=ACCESS_LOG_CAPACITY)  # guarded-by: _log_lock
        self.requests_handled = 0  # guarded-by: _log_lock

    # -- registration -------------------------------------------------------------

    def route(self, method: str, pattern: str,
              handler: Handler) -> None:
        route = _Route(method, pattern, handler)
        bucket = self._routes.setdefault(
            (route.method, len(route.segments)), [])
        if any(existing.pattern == pattern for existing in bucket):
            raise WebError(f"route {method} {pattern} already registered")
        bucket.append(route)

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
        chain: Handler = self._dispatch
        for outer in reversed(self._middleware):
            chain = self._wrap(outer, chain)
        self._chain = chain

    # -- dispatch -------------------------------------------------------------------

    def _dispatch(self, request: Request) -> Response:
        """The end of the chain: ``request.answer``, a route, or 404."""
        if request.answer is not None:
            return request.answer(request)
        parts = _segments(request.path)
        for route in self._routes.get((request.method, len(parts)), ()):
            params = route.match(parts)
            if params is not None:
                request.path_params = params
                return route.handler(request)
        raise HttpError(404, f"no route for "
                             f"{request.method} {request.path}")

    def handle(self, request: Request) -> Response:
        """Run the middleware chain and the matched handler."""
        try:
            response = self._chain(request)
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
