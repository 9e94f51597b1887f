"""Tests for the service bus and the web layer."""

import pytest

from repro.errors import EsbError, HttpError, ReproError, WebError
from repro.esb import DEAD_LETTER_CHANNEL, Message, MessageBus
from repro.web import JsonResponse, Request, Response, WebApplication


class TestMessageBus:
    def test_service_activator_receives_message(self):
        bus = MessageBus()
        bus.create_channel("in")
        received = []
        bus.service_activator("in", lambda m: received.append(m.payload))
        bus.send("in", {"x": 1})
        assert received == [{"x": 1}]

    def test_duplicate_channel_rejected(self):
        bus = MessageBus()
        bus.create_channel("c")
        with pytest.raises(EsbError):
            bus.create_channel("c")

    def test_send_to_unknown_channel(self):
        bus = MessageBus()
        with pytest.raises(EsbError):
            bus.send("ghost", 1)

    def test_transformer_forwards_new_payload(self):
        bus = MessageBus()
        bus.create_channel("raw")
        bus.create_channel("clean")
        received = []
        bus.transformer("raw", lambda payload: payload.upper(), "clean")
        bus.service_activator("clean",
                              lambda m: received.append(m.payload))
        bus.send("raw", "hello")
        assert received == ["HELLO"]

    def test_transformer_requires_existing_output(self):
        bus = MessageBus()
        bus.create_channel("raw")
        with pytest.raises(EsbError):
            bus.transformer("raw", lambda p: p, "ghost")

    def test_router_dispatches_by_content(self):
        bus = MessageBus()
        for name in ("in", "big", "small"):
            bus.create_channel(name)
        big, small = [], []
        bus.router("in", lambda m: "big" if m.payload > 10 else "small")
        bus.service_activator("big", lambda m: big.append(m.payload))
        bus.service_activator("small", lambda m: small.append(m.payload))
        bus.send("in", 100)
        bus.send("in", 1)
        assert big == [100] and small == [1]

    def test_router_returning_none_drops_message(self):
        bus = MessageBus()
        bus.create_channel("in")
        bus.router("in", lambda m: None)
        bus.send("in", 1)  # no error, message consumed
        assert bus.dead_letters == []

    def test_wiretap_observes_without_consuming(self):
        bus = MessageBus()
        bus.create_channel("in")
        taps, received = [], []
        bus.wiretap("in", lambda m: taps.append(m.payload))
        bus.service_activator("in", lambda m: received.append(m.payload))
        bus.send("in", "x")
        assert taps == ["x"] and received == ["x"]

    def test_handler_error_goes_to_dead_letter(self):
        bus = MessageBus()
        bus.create_channel("in")

        def explode(message):
            raise ValueError("boom")

        bus.service_activator("in", explode)
        bus.send("in", "payload")
        assert len(bus.dead_letters) == 1
        dead = bus.dead_letters[0]
        assert dead.payload == "payload"
        assert dead.headers["error"] == "boom"
        assert dead.headers["failed_channel"] == "in"

    def test_dead_letter_channel_can_have_consumers(self):
        bus = MessageBus()
        bus.create_channel("in")
        handled = []
        bus.service_activator("in", lambda m: 1 / 0)
        bus.service_activator(DEAD_LETTER_CHANNEL,
                              lambda m: handled.append(m.headers["error"]))
        bus.send("in", 1)
        assert "division" in handled[0]

    def test_routing_loop_detected(self):
        bus = MessageBus()
        bus.create_channel("a")
        bus.create_channel("b")
        bus.router("a", lambda m: "b")
        bus.router("b", lambda m: "a")
        with pytest.raises(EsbError):
            bus.send("a", 1)

    def test_headers_survive_transformation(self):
        bus = MessageBus()
        bus.create_channel("raw")
        bus.create_channel("out")
        seen = []
        bus.transformer("raw", lambda p: p + 1, "out")
        bus.service_activator("out", lambda m: seen.append(m.headers))
        bus.send("raw", 1, headers={"tenant": "acme"})
        assert seen[0]["tenant"] == "acme"


class TestRequestResponse:
    def test_unsupported_method_rejected(self):
        with pytest.raises(HttpError):
            Request("BREW", "/coffee")

    def test_path_must_be_rooted(self):
        with pytest.raises(HttpError):
            Request("GET", "users")

    def test_headers_are_case_insensitive(self):
        request = Request("GET", "/", headers={"X-Token": "abc"})
        assert request.header("x-token") == "abc"
        assert request.header("missing", "dflt") == "dflt"

    def test_json_response_serializes_dates(self):
        import datetime
        response = JsonResponse({"d": datetime.date(2020, 1, 2)})
        assert response.json() == {"d": "2020-01-02"}
        assert response.headers["content-type"] == "application/json"

    def test_response_ok_flag(self):
        assert Response(204).ok
        assert not Response(404).ok


class TestWebApplication:
    @pytest.fixture
    def app(self):
        app = WebApplication("test")
        app.get("/ping", lambda r: JsonResponse({"pong": True}))
        app.get("/users/{id}",
                lambda r: JsonResponse({"id": r.path_params["id"]}))
        app.post("/users",
                 lambda r: JsonResponse(r.body, status=201))
        return app

    def test_simple_route(self, app):
        response = app.request("GET", "/ping")
        assert response.status == 200
        assert response.json() == {"pong": True}

    def test_path_parameters(self, app):
        response = app.request("GET", "/users/42")
        assert response.json() == {"id": "42"}

    def test_post_echoes_body(self, app):
        response = app.request("POST", "/users", body={"name": "ada"})
        assert response.status == 201
        assert response.json() == {"name": "ada"}

    def test_unknown_route_is_404(self, app):
        response = app.request("GET", "/nope")
        assert response.status == 404

    def test_method_mismatch_is_404(self, app):
        response = app.request("DELETE", "/ping")
        assert response.status == 404

    def test_duplicate_route_rejected(self, app):
        with pytest.raises(WebError):
            app.get("/ping", lambda r: Response())

    def test_repro_error_maps_to_400(self, app):
        def broken(request):
            raise ReproError("domain failure")
        app.get("/broken", broken)
        response = app.request("GET", "/broken")
        assert response.status == 400
        assert "domain failure" in response.json()["error"]

    def test_http_error_keeps_status(self, app):
        def forbidden(request):
            raise HttpError(403, "no")
        app.get("/secret", forbidden)
        assert app.request("GET", "/secret").status == 403

    def test_middleware_order_and_shortcircuit(self, app):
        calls = []

        def outer(request, next_handler):
            calls.append("outer-in")
            response = next_handler(request)
            calls.append("outer-out")
            return response

        def guard(request, next_handler):
            calls.append("guard")
            if request.header("x-block"):
                return Response(status=418)
            return next_handler(request)

        app.use(outer)
        app.use(guard)
        response = app.request("GET", "/ping")
        assert response.status == 200
        assert calls == ["outer-in", "guard", "outer-out"]

        blocked = app.request("GET", "/ping",
                              headers={"X-Block": "1"})
        assert blocked.status == 418

    def test_middleware_can_attach_context(self, app):
        def tenant_resolver(request, next_handler):
            request.tenant = request.header("x-tenant")
            return next_handler(request)

        app.use(tenant_resolver)
        app.get("/whoami",
                lambda r: JsonResponse({"tenant": r.tenant}))
        response = app.request("GET", "/whoami",
                               headers={"X-Tenant": "acme"})
        assert response.json() == {"tenant": "acme"}

    def test_access_log_records_requests(self, app):
        app.request("GET", "/ping")
        app.request("GET", "/nope")
        assert list(app.access_log) == [("GET", "/ping", 200),
                                        ("GET", "/nope", 404)]
        assert app.requests_handled == 2

    def test_access_log_is_a_ring_with_an_exact_count(self, app):
        from repro.web.app import ACCESS_LOG_CAPACITY

        for _ in range(ACCESS_LOG_CAPACITY + 5):
            app.request("GET", "/ping")
        app.request("GET", "/nope")
        assert len(app.access_log) == ACCESS_LOG_CAPACITY
        assert app.access_log[-1] == ("GET", "/nope", 404)
        assert app.requests_handled == ACCESS_LOG_CAPACITY + 6
