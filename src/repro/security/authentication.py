"""Authentication: password hashing and session tokens.

Passwords are salted PBKDF2-HMAC-SHA256; sessions are opaque random
tokens with a configurable time-to-live.  The clock is injectable so
expiry is testable without sleeping.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import AuthenticationError
from repro.security.model import Principal, SecurityStore

_PBKDF2_ITERATIONS = 10_000  # modest: this is a simulator, not prod crypto
_DEFAULT_TTL_SECONDS = 30 * 60


class PasswordEncoder:
    """Salted PBKDF2 password hashing with constant-time verification."""

    def __init__(self, iterations: int = _PBKDF2_ITERATIONS):
        self.iterations = iterations

    def encode(self, password: str) -> str:
        salt = secrets.token_hex(8)
        digest = hashlib.pbkdf2_hmac(
            "sha256", password.encode(), salt.encode(), self.iterations)
        return f"pbkdf2${self.iterations}${salt}${digest.hex()}"

    def matches(self, password: str, encoded: str) -> bool:
        try:
            scheme, iterations, salt, expected = encoded.split("$")
        except ValueError:
            return False
        if scheme != "pbkdf2":
            return False
        digest = hashlib.pbkdf2_hmac(
            "sha256", password.encode(), salt.encode(), int(iterations))
        return hmac.compare_digest(digest.hex(), expected)


@dataclass
class SecuritySession:
    """An authenticated session."""

    token: str
    principal: Principal
    created_at: float
    expires_at: float


class AuthenticationManager:
    """Login, session issuance, validation and logout."""

    def __init__(self, store: SecurityStore,
                 encoder: Optional[PasswordEncoder] = None,
                 session_ttl_seconds: float = _DEFAULT_TTL_SECONDS,
                 clock: Callable[[], float] = time.time):
        self.store = store
        self.encoder = encoder or PasswordEncoder()
        self.session_ttl_seconds = session_ttl_seconds
        self.clock = clock
        self._sessions: Dict[str, SecuritySession] = {}

    # -- registration helper -------------------------------------------------------

    def register_user(self, username: str, password: str,
                      tenant: Optional[str] = None,
                      roles=(), groups=()):
        """Create a user with a properly hashed password."""
        return self.store.create_user(
            username, self.encoder.encode(password),
            tenant=tenant, roles=list(roles), groups=list(groups))

    def change_password(self, username: str, old_password: str,
                        new_password: str) -> None:
        """Self-service password change (verifies the old password)."""
        user = self.store.find_user(username)
        if user is None \
                or not self.encoder.matches(old_password,
                                            user.password_hash):
            raise AuthenticationError("bad credentials")
        self.store.change_password(
            username, self.encoder.encode(new_password))

    def invalidate_user_sessions(self, username: str) -> int:
        """Kill every active session of one user (e.g. after offboarding)."""
        doomed = [token for token, session in self._sessions.items()
                  if session.principal.username == username]
        for token in doomed:
            del self._sessions[token]
        return len(doomed)

    # -- login / logout ---------------------------------------------------------------

    def authenticate(self, username: str,
                     password: str) -> SecuritySession:
        user = self.store.find_user(username)
        if user is None:
            raise AuthenticationError("bad credentials")
        if not self.encoder.matches(password, user.password_hash):
            raise AuthenticationError("bad credentials")
        if not user.enabled:
            raise AuthenticationError(
                f"account {username!r} is disabled")
        principal = self.store.resolve_principal(username)
        now = self.clock()
        # Sessions nobody presents again would otherwise live for
        # ever.  The dict is in creation order, so the expired ones
        # are at its front: free them until the first live one (over
        # a copy — concurrent logins change the dict).
        for token, older in list(self._sessions.items()):
            if older.expires_at > now:
                break
            self._sessions.pop(token, None)
        session = SecuritySession(
            token=secrets.token_urlsafe(24),
            principal=principal,
            created_at=now,
            expires_at=now + self.session_ttl_seconds)
        self._sessions[session.token] = session
        return session

    def validate(self, token: str) -> Principal:
        """Resolve a session token to its principal (or raise)."""
        session = self._sessions.get(token)
        if session is None:
            raise AuthenticationError("unknown session token")
        if self.clock() >= session.expires_at:
            del self._sessions[token]
            raise AuthenticationError("session expired")
        return session.principal

    def logout(self, token: str) -> None:
        self._sessions.pop(token, None)

    def active_sessions(self) -> int:
        now = self.clock()
        return sum(1 for session in self._sessions.values()
                   if session.expires_at > now)
