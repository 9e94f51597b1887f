"""Tests for the security substrate: store, authn, authz, ACLs."""

import pytest

from repro.engine import Database
from repro.errors import AccessDeniedError, AuthenticationError, SecurityError
from repro.security import (
    AccessDecisionManager,
    AclRegistry,
    AuthenticationManager,
    PasswordEncoder,
    Principal,
    SecurityStore,
    secured,
)


@pytest.fixture
def store():
    store = SecurityStore(Database())
    store.create_authority("REPORT_VIEW")
    store.create_authority("REPORT_EDIT")
    store.create_authority("ADMIN")
    store.create_role("viewer", ["REPORT_VIEW"])
    store.create_role("editor", ["REPORT_VIEW", "REPORT_EDIT"])
    store.create_role("admin", ["ADMIN"])
    store.create_group("analysts", roles=["editor"])
    return store


@pytest.fixture
def manager(store):
    clock = {"now": 1000.0}
    manager = AuthenticationManager(
        store, session_ttl_seconds=60,
        clock=lambda: clock["now"])
    manager._test_clock = clock
    return manager


class TestPasswordEncoder:
    def test_encode_then_match(self):
        encoder = PasswordEncoder(iterations=100)
        encoded = encoder.encode("s3cret")
        assert encoder.matches("s3cret", encoded)
        assert not encoder.matches("wrong", encoded)

    def test_salts_differ(self):
        encoder = PasswordEncoder(iterations=100)
        assert encoder.encode("x") != encoder.encode("x")

    def test_garbage_hash_never_matches(self):
        encoder = PasswordEncoder()
        assert not encoder.matches("x", "not-a-hash")
        assert not encoder.matches("x", "md5$1$aa$bb")


class TestSecurityStore:
    def test_role_bundles_authorities(self, store):
        store.create_user("ada", "hash", roles=["editor"])
        principal = store.resolve_principal("ada")
        assert principal.authorities == {"REPORT_VIEW", "REPORT_EDIT"}
        assert principal.roles == {"editor"}

    def test_group_membership_grants_roles(self, store):
        store.create_user("bob", "hash", groups=["analysts"])
        principal = store.resolve_principal("bob")
        assert principal.has_authority("REPORT_EDIT")
        assert principal.has_role("editor")

    def test_direct_and_group_roles_merge(self, store):
        store.create_user("cy", "hash", roles=["admin"],
                          groups=["analysts"])
        principal = store.resolve_principal("cy")
        assert principal.authorities == \
            {"ADMIN", "REPORT_VIEW", "REPORT_EDIT"}

    def test_tenant_carried_on_principal(self, store):
        store.create_user("dee", "hash", tenant="acme")
        assert store.resolve_principal("dee").tenant == "acme"

    def test_unknown_references_raise(self, store):
        with pytest.raises(SecurityError):
            store.create_user("x", "hash", roles=["ghost-role"])
        with pytest.raises(SecurityError):
            store.resolve_principal("nobody")

    def test_listings_and_search(self, store):
        store.create_user("ada", "h")
        store.create_user("adrian", "h")
        store.create_user("bob", "h")
        assert len(store.list_users()) == 3
        assert len(store.list_roles()) == 3
        assert len(store.list_groups()) == 1
        assert len(store.list_authorities()) == 3
        found = store.search_users("ad")
        assert [user.username for user in found] == ["ada", "adrian"]


class TestAuthentication:
    def test_login_returns_session_with_principal(self, manager):
        manager.register_user("ada", "pw", roles=["viewer"])
        session = manager.authenticate("ada", "pw")
        assert session.principal.has_authority("REPORT_VIEW")
        assert manager.validate(session.token).username == "ada"

    def test_bad_password_rejected(self, manager):
        manager.register_user("ada", "pw")
        with pytest.raises(AuthenticationError):
            manager.authenticate("ada", "wrong")

    def test_unknown_user_rejected(self, manager):
        with pytest.raises(AuthenticationError):
            manager.authenticate("ghost", "pw")

    def test_disabled_account_rejected(self, manager):
        manager.register_user("ada", "pw")
        manager.store.disable_user("ada")
        with pytest.raises(AuthenticationError):
            manager.authenticate("ada", "pw")

    def test_session_expires(self, manager):
        manager.register_user("ada", "pw")
        session = manager.authenticate("ada", "pw")
        manager._test_clock["now"] += 120  # past the 60s TTL
        with pytest.raises(AuthenticationError):
            manager.validate(session.token)

    def test_logout_invalidates(self, manager):
        manager.register_user("ada", "pw")
        session = manager.authenticate("ada", "pw")
        manager.logout(session.token)
        with pytest.raises(AuthenticationError):
            manager.validate(session.token)

    def test_unknown_token_rejected(self, manager):
        with pytest.raises(AuthenticationError):
            manager.validate("bogus")

    def test_active_session_count(self, manager):
        manager.register_user("ada", "pw")
        manager.authenticate("ada", "pw")
        manager.authenticate("ada", "pw")
        assert manager.active_sessions() == 2
        manager._test_clock["now"] += 120
        assert manager.active_sessions() == 0

    def test_expired_sessions_are_freed_at_login(self, store):
        clock = {"now": 0.0}
        manager = AuthenticationManager(
            store, encoder=PasswordEncoder(iterations=1),
            session_ttl_seconds=60, clock=lambda: clock["now"])
        manager.register_user("ada", "pw")
        spacing = 0.18  # 1 000 logins spread over three TTLs
        for login in range(1000):
            clock["now"] = login * spacing
            manager.authenticate("ada", "pw")
        # Only sessions nobody presented again, so only the login
        # sweep can have freed them: one TTL's worth is left.
        assert len(manager._sessions) == manager.active_sessions()
        assert len(manager._sessions) <= 60 / spacing + 1


def make_principal(**kwargs):
    defaults = {"user_id": 1, "username": "ada", "tenant": "acme",
                "roles": set(), "authorities": set()}
    defaults.update(kwargs)
    return Principal(**defaults)


class TestAuthorization:
    def test_check_authority(self):
        manager = AccessDecisionManager()
        principal = make_principal(authorities={"REPORT_VIEW"})
        manager.check_authority(principal, "REPORT_VIEW")
        with pytest.raises(AccessDeniedError):
            manager.check_authority(principal, "ADMIN")

    def test_check_any_authority(self):
        manager = AccessDecisionManager()
        principal = make_principal(authorities={"B"})
        manager.check_any_authority(principal, "A", "B")
        with pytest.raises(AccessDeniedError):
            manager.check_any_authority(principal, "A", "C")

    def test_tenant_wall(self):
        manager = AccessDecisionManager()
        principal = make_principal(tenant="acme")
        manager.check_tenant(principal, "acme")
        with pytest.raises(AccessDeniedError):
            manager.check_tenant(principal, "other")

    def test_platform_operator_crosses_tenants(self):
        manager = AccessDecisionManager()
        operator = make_principal(tenant=None)
        manager.check_tenant(operator, "any-tenant")

    def test_secured_decorator(self):
        @secured("REPORT_VIEW")
        def view_report(principal, report_id):
            return f"report-{report_id}"

        allowed = make_principal(authorities={"REPORT_VIEW"})
        denied = make_principal(authorities=set())
        assert view_report(allowed, 7) == "report-7"
        with pytest.raises(AccessDeniedError):
            view_report(denied, 7)

    def test_secured_requires_principal(self):
        @secured("X")
        def operation(value):
            return value

        with pytest.raises(SecurityError):
            operation(42)

    def test_secured_finds_keyword_principal(self):
        @secured("X")
        def operation(value, principal=None):
            return value

        principal = make_principal(authorities={"X"})
        assert operation(1, principal=principal) == 1


class TestAcl:
    def test_grant_check_revoke(self):
        acl = AclRegistry()
        principal = make_principal(username="ada")
        acl.grant("report", 7, "ada", "read")
        acl.check("report", 7, principal, "read")
        assert acl.permissions_for("report", 7, "ada") == {"read"}
        acl.revoke("report", 7, "ada", "read")
        with pytest.raises(AccessDeniedError):
            acl.check("report", 7, principal, "read")

    def test_grants_are_object_scoped(self):
        acl = AclRegistry()
        acl.grant("report", 7, "ada", "read")
        assert not acl.is_granted("report", 8, "ada", "read")
        assert not acl.is_granted("dashboard", 7, "ada", "read")

    def test_revoke_missing_grant_is_noop(self):
        acl = AclRegistry()
        acl.revoke("report", 1, "ada", "read")  # no error


class TestAccountLifecycle:
    def test_revoke_role(self, store):
        store.create_user("ada", "h", roles=["editor", "admin"])
        store.revoke_role("ada", "admin")
        principal = store.resolve_principal("ada")
        assert principal.roles == {"editor"}
        with pytest.raises(SecurityError):
            store.revoke_role("ada", "admin")

    def test_remove_from_group(self, store):
        store.create_user("bob", "h", groups=["analysts"])
        store.remove_from_group("bob", "analysts")
        assert store.resolve_principal("bob").roles == set()
        with pytest.raises(SecurityError):
            store.remove_from_group("bob", "analysts")

    def test_delete_user_removes_memberships(self, store):
        store.create_user("cy", "h", roles=["viewer"],
                          groups=["analysts"])
        store.delete_user("cy")
        assert store.find_user("cy") is None
        with pytest.raises(SecurityError):
            store.resolve_principal("cy")

    def test_password_change_flow(self, manager):
        manager.register_user("ada", "old-pw")
        manager.change_password("ada", "old-pw", "new-pw")
        with pytest.raises(AuthenticationError):
            manager.authenticate("ada", "old-pw")
        assert manager.authenticate("ada", "new-pw")

    def test_password_change_requires_old_password(self, manager):
        manager.register_user("ada", "old-pw")
        with pytest.raises(AuthenticationError):
            manager.change_password("ada", "wrong", "new-pw")

    def test_invalidate_user_sessions(self, manager):
        manager.register_user("ada", "pw")
        manager.register_user("bob", "pw")
        ada_session = manager.authenticate("ada", "pw")
        bob_session = manager.authenticate("bob", "pw")
        killed = manager.invalidate_user_sessions("ada")
        assert killed == 1
        with pytest.raises(AuthenticationError):
            manager.validate(ada_session.token)
        assert manager.validate(bob_session.token).username == "bob"
