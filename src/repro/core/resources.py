"""The technical-resources layer (deployment layer).

"Contains the data warehousing tools (e.g., database, ETL engine,
analysis server, etc.) used to deploy and to execute the designed DW
models ... interoperability between all of these tools and APIs can be
ensured using an Enterprise Service Bus" (paper §3.1).

This layer owns the per-tenant named databases and the platform ESB;
every core service resolves physical resources through it.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

from repro.core.resilience import Clock, FaultInjector, RetryPolicy
from repro.engine.database import Database
from repro.errors import EsbError, TenantError
from repro.esb import DEAD_LETTER_CHANNEL, Message, MessageBus

#: Channel carrying resource-level events (deploys, loads, queries).
EVENTS_CHANNEL = "platform-events"

#: Endpoint/publish retries before a message dead-letters.  Zero base
#: delay: the bus is synchronous and in-process, so backoff buys
#: nothing but latency — the retry *count* is what absorbs transient
#: (injected) faults.
DEFAULT_BUS_RETRIES = 3


class TechnicalResourcesLayer:
    """Named databases per tenant plus the integration bus.

    The bus ships with a retry-then-dead-letter policy wired in:
    transient endpoint failures (including injected chaos at the
    ``esb.*`` sites) are retried ``DEFAULT_BUS_RETRIES`` times and
    then parked on the dead-letter channel with correlation intact —
    a flaky subscriber can never fail the platform operation that
    published the event.
    """

    def __init__(self, faults: Optional[FaultInjector] = None,
                 clock: Optional[Clock] = None) -> None:
        self._databases: Dict[Tuple[str, str], Database] = {}
        self.faults = faults or FaultInjector()
        self.bus = MessageBus(
            retry_policy=RetryPolicy(
                attempts=DEFAULT_BUS_RETRIES, base_delay=0.0,
                non_retryable=(EsbError,)),
            clock=clock, faults=self.faults)
        self.bus.create_channel(EVENTS_CHANNEL)

    def keep_dead_letters(self, database: Database) -> None:
        """Restore ``bus.dead_letters`` from the ``esb_dead_letters``
        rows of ``database``, then record each new dead letter there,
        payload and headers as JSON text (``repr()`` for a value JSON
        cannot encode)."""
        database.execute(
            "CREATE TABLE IF NOT EXISTS esb_dead_letters ("
            "message_id INTEGER NOT NULL, payload TEXT NOT NULL, "
            "headers TEXT NOT NULL)")
        self.bus.dead_letters.extend(
            Message(payload=json.loads(row["payload"]),
                    headers=json.loads(row["headers"]),
                    message_id=row["message_id"])
            for row in database.query(
                "SELECT message_id, payload, headers "
                "FROM esb_dead_letters"))

        def record(message: Message) -> None:
            database.execute(
                "INSERT INTO esb_dead_letters VALUES (?, ?, ?)",
                (message.message_id,
                 json.dumps(message.payload, default=repr),
                 json.dumps(message.headers, default=repr)))

        self.bus.wiretap(DEAD_LETTER_CHANNEL, record)

    # -- databases -----------------------------------------------------------------

    def register_database(self, tenant_id: str, name: str,
                          database: Database) -> None:
        key = (tenant_id, name)
        if key in self._databases:
            raise TenantError(
                f"tenant {tenant_id!r} already has a database "
                f"named {name!r}")
        self._databases[key] = database

    def database(self, tenant_id: str, name: str) -> Database:
        database = self._databases.get((tenant_id, name))
        if database is None:
            raise TenantError(
                f"tenant {tenant_id!r} has no database named {name!r}")
        return database

    # -- events ---------------------------------------------------------------------

    def publish_event(self, tenant_id: str, kind: str,
                      detail: str = "") -> None:
        """Announce a resource-level event on the bus."""
        self.bus.send(EVENTS_CHANNEL, {
            "tenant": tenant_id, "kind": kind, "detail": detail,
        })
