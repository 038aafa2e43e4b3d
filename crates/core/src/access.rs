//! The data access layer's security surface (§III).
//!
//! "The Access Layer also plays a crucial role in managing authentication
//! and access control lists, which ensure that only valid user requests
//! are translated into internal requests for further processing."
//!
//! [`AccessController`] authenticates tokens to principals and checks
//! per-resource ACLs before a request may proceed. Resources are named
//! hierarchically (`topic/dpi`, `table/tb_dpi_log_hours`); a grant on a
//! prefix (`table/`) covers everything under it.

use common::{Error, Result};
#[expect(clippy::disallowed_types, reason = "R5: lookup-only maps; `allowed` asks `any`, which no order changes")]
use std::collections::{HashMap, HashSet};
use common::lockwitness::TrackedRwLock;

/// What an ACL entry permits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Permission {
    /// Consume / select.
    Read,
    /// Produce / insert / update / delete.
    Write,
    /// Create/drop resources and manage grants.
    Admin,
}

/// An authenticated identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Principal(pub String);

/// Authentication + ACL checks for the access layer.
#[derive(Debug)]
pub struct AccessController {
    inner: TrackedRwLock<Inner>,
}

impl Default for AccessController {
    fn default() -> Self {
        AccessController { inner: TrackedRwLock::new("core.access.grants", Inner::default()) }
    }
}

#[derive(Debug, Default)]
#[expect(clippy::disallowed_types, reason = "R5: lookup-only maps; `allowed` asks `any`, which no order changes")]
struct Inner {
    /// token → principal
    tokens: HashMap<String, Principal>,
    /// (principal, resource prefix) → permissions
    grants: HashMap<(Principal, String), HashSet<Permission>>,
}

impl AccessController {
    /// An empty controller (every request denied until users are added).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a user and its authentication token.
    pub fn register(&self, name: &str, token: &str) -> Principal {
        let p = Principal(name.to_string());
        self.inner
            .write()
            .tokens
            .insert(token.to_string(), p.clone());
        p
    }

    /// Resolve a token to its principal.
    pub(crate) fn authenticate(&self, token: &str) -> Result<Principal> {
        self.inner
            .read()
            .tokens
            .get(token)
            .cloned()
            .ok_or_else(|| Error::InvalidArgument("authentication failed: unknown token".into()))
    }

    /// Grant `permission` on every resource under `resource_prefix`.
    pub fn grant(&self, principal: &Principal, resource_prefix: &str, permission: Permission) {
        self.inner
            .write()
            .grants
            .entry((principal.clone(), resource_prefix.to_string()))
            .or_default()
            .insert(permission);
    }

    /// Whether `principal` holds `permission` on `resource` (directly or
    /// via a prefix grant; `Admin` implies `Read` and `Write`).
    pub(crate) fn allowed(
        &self,
        principal: &Principal,
        resource: &str,
        permission: Permission,
    ) -> bool {
        let inner = self.inner.read();
        inner.grants.iter().any(|((p, prefix), perms)| {
            p == principal
                && resource.starts_with(prefix.as_str())
                && (perms.contains(&permission) || perms.contains(&Permission::Admin))
        })
    }

    /// Check a request end-to-end: authenticate the token, then check the
    /// ACL. Returns the principal for audit logging.
    pub fn check(&self, token: &str, resource: &str, permission: Permission) -> Result<Principal> {
        let principal = self.authenticate(token)?;
        if self.allowed(&principal, resource, permission) {
            Ok(principal)
        } else {
            Err(Error::InvalidArgument(format!(
                "access denied: {} lacks {:?} on {resource}",
                principal.0, permission
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> (AccessController, Principal) {
        let ac = AccessController::new();
        let p = ac.register("analyst", "token-123");
        (ac, p)
    }

    #[test]
    fn unknown_token_is_rejected() {
        let (ac, _) = controller();
        assert!(ac.authenticate("wrong").is_err());
        assert!(ac.check("wrong", "table/x", Permission::Read).is_err());
    }

    #[test]
    fn grants_are_resource_scoped() {
        let (ac, p) = controller();
        ac.grant(&p, "table/dpi", Permission::Read);
        assert!(ac.check("token-123", "table/dpi", Permission::Read).is_ok());
        assert!(ac.check("token-123", "table/other", Permission::Read).is_err());
        assert!(ac.check("token-123", "table/dpi", Permission::Write).is_err());
    }

    #[test]
    fn prefix_grants_cover_subresources() {
        let (ac, p) = controller();
        ac.grant(&p, "topic/", Permission::Write);
        assert!(ac.allowed(&p, "topic/dpi", Permission::Write));
        assert!(ac.allowed(&p, "topic/logs", Permission::Write));
        assert!(!ac.allowed(&p, "table/dpi", Permission::Write));
    }

    #[test]
    fn admin_implies_read_and_write() {
        let (ac, p) = controller();
        ac.grant(&p, "table/dpi", Permission::Admin);
        assert!(ac.allowed(&p, "table/dpi", Permission::Read));
        assert!(ac.allowed(&p, "table/dpi", Permission::Write));
    }

    #[test]
    fn principals_are_isolated() {
        let ac = AccessController::new();
        let alice = ac.register("alice", "t-a");
        let _bob = ac.register("bob", "t-b");
        ac.grant(&alice, "table/", Permission::Read);
        assert!(ac.check("t-a", "table/x", Permission::Read).is_ok());
        assert!(ac.check("t-b", "table/x", Permission::Read).is_err());
    }
}
