"""Message channels, endpoints and the bus.

The bus delivers synchronously: sending to a channel runs every
endpoint attached to it in registration order.  Endpoints are:

* **service activators** — terminal handlers,
* **transformers** — rewrite the payload and forward to an output
  channel,
* **routers** — choose the next channel per message,
* **wiretaps** — observe without consuming.

A handler exception routes the message to the dead-letter channel with
the error recorded in its headers — the bus never drops a message
silently.  A bus built with a :class:`~repro.core.resilience.RetryPolicy`
retries each failing endpoint (deterministic seeded backoff on the
injected clock) before dead-lettering; the dead letter then records
the attempt count alongside the error, and the correlation id of the
originating message always survives the retry → dead-letter path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import CrashPoint, EsbError, RetryExhaustedError

DEAD_LETTER_CHANNEL = "dead-letter"

_message_ids = itertools.count(1)


@dataclass
class Message:
    """A payload plus headers travelling through the bus."""

    payload: Any
    headers: Dict[str, Any] = field(default_factory=dict)
    message_id: int = field(default_factory=lambda: next(_message_ids))

    @property
    def correlation_id(self) -> int:
        """The id of the originating message this one descends from."""
        return self.headers.get("correlation_id", self.message_id)

    def with_payload(self, payload: Any) -> "Message":
        """A copy with a new payload and a fresh ``message_id``.

        The originating message's id rides along as the
        ``correlation_id`` header (set once, then preserved across
        transformer/router hops) so transformed messages stay
        correlated with their origin in the dead-letter queue.
        """
        headers = dict(self.headers)
        headers.setdefault("correlation_id", self.message_id)
        return Message(payload=payload, headers=headers)


class _Endpoint:
    """One consumer attached to a channel."""

    def __init__(self, kind: str, handler: Callable,
                 output_channel: Optional[str] = None):
        self.kind = kind
        self.handler = handler
        self.output_channel = output_channel


class MessageBus:
    """A synchronous integration bus with named channels.

    ``retry_policy`` (a :class:`~repro.core.resilience.RetryPolicy`,
    duck-typed to keep this layer dependency-free), ``clock`` and
    ``faults`` are optional resilience hooks: when set, each endpoint
    invocation is retried per the policy (backoff slept on the
    injected clock) before the message is dead-lettered, and the
    :class:`~repro.core.resilience.FaultInjector` is consulted at the
    ``esb.publish`` / ``esb.deliver`` sites.
    """

    def __init__(self, max_hops: int = 100, retry_policy=None,
                 clock=None, faults=None):
        self._channels: Dict[str, List[_Endpoint]] = {
            DEAD_LETTER_CHANNEL: [],
        }
        self.max_hops = max_hops
        self.retry_policy = retry_policy
        self.clock = clock
        self.faults = faults
        self.dead_letters: List[Message] = []
        #: One ``(channel, message_id, attempts)`` triple per endpoint
        #: invocation that needed more than one attempt.
        self.retry_log: List[Tuple[str, int, int]] = []

    # -- topology -------------------------------------------------------------------

    def create_channel(self, name: str) -> None:
        if name in self._channels:
            raise EsbError(f"channel {name!r} already exists")
        self._channels[name] = []

    def channels(self) -> List[str]:
        return sorted(self._channels)

    def _channel(self, name: str) -> List[_Endpoint]:
        if name not in self._channels:
            raise EsbError(f"no such channel: {name!r}")
        return self._channels[name]

    def service_activator(self, channel: str,
                          handler: Callable[[Message], None]) -> None:
        """Attach a terminal handler to a channel."""
        self._channel(channel).append(_Endpoint("activator", handler))

    def transformer(self, channel: str,
                    transform: Callable[[Any], Any],
                    output_channel: str) -> None:
        """Attach a payload transformer forwarding to another channel."""
        self._channel(output_channel)  # must exist
        self._channel(channel).append(
            _Endpoint("transformer", transform, output_channel))

    def router(self, channel: str,
               route: Callable[[Message], Optional[str]]) -> None:
        """Attach a router choosing the next channel per message."""
        self._channel(channel).append(_Endpoint("router", route))

    def wiretap(self, channel: str,
                observer: Callable[[Message], None]) -> None:
        """Attach a non-consuming observer."""
        self._channel(channel).append(_Endpoint("wiretap", observer))

    # -- delivery --------------------------------------------------------------------

    def send(self, channel: str, payload: Any,
             headers: Optional[Dict[str, Any]] = None) -> Message:
        """Send a payload into a channel; returns the message.

        With a fault injector attached, the ``esb.publish`` site may
        fail; the publish is then retried under the bus retry policy
        and, once attempts are exhausted, the message lands in the
        dead-letter channel (correlation preserved) instead of the
        error escaping to the caller — on-demand BI keeps serving.
        """
        message = Message(payload=payload, headers=dict(headers or {}))
        try:
            self._invoke(channel, message,
                         lambda: self._publish_once(channel, message))
        except (EsbError, CrashPoint):
            # A crash point is the process dying: nothing after it
            # may run, so it is never parked as a dead letter.
            raise
        except Exception as exc:
            self._dead_letter(channel, message, exc)
        return message

    #: Alias: the service-bus verb the platform layers use.
    def publish(self, channel: str, payload: Any,
                headers: Optional[Dict[str, Any]] = None) -> Message:
        return self.send(channel, payload, headers)

    def _publish_once(self, channel: str, message: Message) -> None:
        if self.faults is not None:
            self.faults.fire("esb.publish")
            self.faults.fire(f"esb.publish.{channel}")
        self._deliver(channel, message, hops=0)

    def _invoke(self, channel: str, message: Message,
                attempt: Callable[[], Any]) -> Any:
        """Run one endpoint attempt under the bus retry policy."""
        if self.retry_policy is None:
            return attempt()
        attempts_used = [1]

        def count_retry(attempt_number: int, _error: BaseException) \
                -> None:
            attempts_used[0] = attempt_number + 1

        try:
            result = self.retry_policy.call(
                attempt, clock=self.clock, on_retry=count_retry)
        finally:
            if attempts_used[0] > 1:
                self.retry_log.append(
                    (channel, message.message_id, attempts_used[0]))
        return result

    def _dead_letter(self, channel: str, message: Message,
                     error: Exception) -> None:
        """Record a failed delivery on the dead-letter channel."""
        headers = {**message.headers,
                   "correlation_id": message.correlation_id,
                   "error": str(error),
                   "failed_channel": channel}
        if isinstance(error, RetryExhaustedError):
            headers["attempts"] = error.attempts
            if error.last_error is not None:
                headers["error"] = str(error.last_error)
        failed = Message(payload=message.payload, headers=headers)
        # Dead-letter delivery sits outside the hop budget: a failure
        # on the final permitted hop must record the original error,
        # not trip the routing-loop guard.
        self._deliver(DEAD_LETTER_CHANNEL, failed, 0)

    def _deliver(self, channel: str, message: Message,
                 hops: int) -> None:
        if hops > self.max_hops:
            raise EsbError(
                f"message {message.message_id} exceeded "
                f"{self.max_hops} hops (routing loop?)")
        if channel == DEAD_LETTER_CHANNEL:
            self.dead_letters.append(message)
        for endpoint in self._channel(channel):
            try:
                if endpoint.kind in ("wiretap", "activator"):
                    self._invoke(channel, message,
                                 lambda: self._run_endpoint(
                                     channel, endpoint, message))
                elif endpoint.kind == "transformer":
                    transformed = message.with_payload(
                        self._invoke(channel, message,
                                     lambda: self._run_endpoint(
                                         channel, endpoint, message)))
                    self._deliver(endpoint.output_channel,
                                  transformed, hops + 1)
                elif endpoint.kind == "router":
                    target = self._invoke(
                        channel, message,
                        lambda: self._run_endpoint(
                            channel, endpoint, message))
                    if target is not None:
                        self._deliver(target, message, hops + 1)
            except (EsbError, CrashPoint):
                raise
            except Exception as exc:  # route failures to dead letters
                failed = Message(
                    payload=message.payload,
                    headers={**message.headers,
                             "correlation_id": message.correlation_id,
                             "error": str(exc),
                             "failed_channel": channel})
                if isinstance(exc, RetryExhaustedError):
                    failed.headers["attempts"] = exc.attempts
                    if exc.last_error is not None:
                        failed.headers["error"] = str(exc.last_error)
                if channel == DEAD_LETTER_CHANNEL:
                    # A failing dead-letter handler keeps consuming
                    # the hop budget so it cannot recurse forever.
                    self._deliver(DEAD_LETTER_CHANNEL, failed, hops + 1)
                else:
                    # Dead-letter delivery sits outside the hop
                    # budget: a failure on the final permitted hop
                    # must record the original error, not trip the
                    # routing-loop guard.
                    self._deliver(DEAD_LETTER_CHANNEL, failed, 0)

    def _run_endpoint(self, channel: str, endpoint: _Endpoint,
                      message: Message) -> Any:
        """One attempt of one endpoint (the retried unit)."""
        if self.faults is not None:
            self.faults.fire("esb.deliver")
            self.faults.fire(f"esb.deliver.{channel}")
        if endpoint.kind == "transformer":
            return endpoint.handler(message.payload)
        return endpoint.handler(message)
