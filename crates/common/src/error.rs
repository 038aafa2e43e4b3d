//! The common error taxonomy shared by every StreamLake component.
//!
//! Variants split into two classes the whole workspace agrees on:
//!
//! * **retryable** — the failure is transient by construction (lost OCC
//!   race, throttling, admission shed, injected fault window); retrying the
//!   same operation later may succeed with no operator intervention.
//!   Throttling variants ([`Error::RateLimited`], [`Error::Overloaded`])
//!   carry an explicit `retry_after` hint in virtual nanoseconds.
//! * **terminal** — retrying the identical operation can never succeed
//!   (missing namespace entries, corrupt data past redundancy, exhausted
//!   capacity). Retry loops must give up immediately
//!   instead of backing off against them.
//!
//! [`Error::is_retryable`] is the single source of truth for the split;
//! retry loops (e.g. `plog::replication`) branch on it rather than on
//! individual variants.

use crate::clock::Nanos;
use std::fmt;

/// Result alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by storage, stream and lakehouse operations.
///
/// The variants mirror the failure classes a disaggregated storage service
/// reports to its clients: not-found/exists for namespace operations,
/// `Corruption` for checksum or framing failures, `Conflict` for optimistic
/// concurrency control aborts, `QuotaExceeded` for throttled streams and
/// `CapacityExhausted` when a simulated pool runs out of space. The
/// front-door layer adds `RateLimited` (per-tenant token bucket empty) and
/// `Overloaded` (admission control shed the request under foreground
/// pressure or an open circuit breaker), both with retry-after hints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The named entity (object, topic, table, key…) does not exist.
    NotFound(String),
    /// The named entity already exists and the operation required it not to.
    AlreadyExists(String),
    /// Stored bytes failed validation (bad magic, CRC mismatch, truncation).
    Corruption(String),
    /// An optimistic-concurrency commit lost the race and must be retried.
    Conflict(String),
    /// A caller supplied an argument outside the accepted domain.
    InvalidArgument(String),
    /// A stream exceeded its configured processing-rate quota.
    QuotaExceeded(String),
    /// A storage pool or device has no free space for the request.
    CapacityExhausted(String),
    /// Too many redundancy shards were lost to reconstruct the data.
    Unrecoverable(String),
    /// The operation is not supported in the current configuration.
    Unsupported(String),
    /// A simulated I/O failure (injected fault or unreachable device).
    /// Transient under the fault model: outage windows close and failed
    /// devices get healed, so I/O errors are worth retrying with backoff.
    Io(String),
    /// A transaction was aborted by the coordinator or a participant.
    TxnAborted(String),
    /// A tenant's front-door token bucket is empty; the request may be
    /// retried once `retry_after` virtual nanoseconds have passed.
    RateLimited {
        /// Human-readable detail (tenant, requested cost, configured rate).
        message: String,
        /// Virtual nanoseconds until the bucket has refilled enough to
        /// admit the same request.
        retry_after: Nanos,
    },
    /// Admission control shed the request — foreground tail latency over
    /// threshold or a circuit breaker open — and it may be retried after
    /// `retry_after` virtual nanoseconds.
    Overloaded {
        /// Human-readable detail (pressure source or breaker key).
        message: String,
        /// Virtual nanoseconds the caller should wait before retrying.
        retry_after: Nanos,
    },
}

impl Error {
    /// Short machine-readable category name, used by metrics and tests.
    pub fn kind(&self) -> &'static str {
        match self {
            Error::NotFound(_) => "not_found",
            Error::AlreadyExists(_) => "already_exists",
            Error::Corruption(_) => "corruption",
            Error::Conflict(_) => "conflict",
            Error::InvalidArgument(_) => "invalid_argument",
            Error::QuotaExceeded(_) => "quota_exceeded",
            Error::CapacityExhausted(_) => "capacity_exhausted",
            Error::Unrecoverable(_) => "unrecoverable",
            Error::Unsupported(_) => "unsupported",
            Error::Io(_) => "io",
            Error::TxnAborted(_) => "txn_aborted",
            Error::RateLimited { .. } => "rate_limited",
            Error::Overloaded { .. } => "overloaded",
        }
    }

    /// Whether retrying the same operation may succeed without intervention.
    ///
    /// Conflicts, quota/rate rejections, admission sheds and transient I/O
    /// faults are retryable by construction; everything else is terminal —
    /// it requires a namespace change or operator action, so backing off
    /// against it is wasted work.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Error::Conflict(_)
                | Error::QuotaExceeded(_)
                | Error::TxnAborted(_)
                | Error::Io(_)
                | Error::RateLimited { .. }
                | Error::Overloaded { .. }
        )
    }

    /// The explicit retry-after hint, when the error carries one. Retry
    /// loops should wait at least this long (virtual time) before the next
    /// attempt; retryable errors without a hint use the caller's own
    /// backoff schedule.
    pub fn retry_after(&self) -> Option<Nanos> {
        match self {
            Error::RateLimited { retry_after, .. } | Error::Overloaded { retry_after, .. } => {
                Some(*retry_after)
            }
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (kind, msg) = match self {
            Error::NotFound(m) => ("not found", m),
            Error::AlreadyExists(m) => ("already exists", m),
            Error::Corruption(m) => ("corruption", m),
            Error::Conflict(m) => ("commit conflict", m),
            Error::InvalidArgument(m) => ("invalid argument", m),
            Error::QuotaExceeded(m) => ("quota exceeded", m),
            Error::CapacityExhausted(m) => ("capacity exhausted", m),
            Error::Unrecoverable(m) => ("unrecoverable data loss", m),
            Error::Unsupported(m) => ("unsupported", m),
            Error::Io(m) => ("i/o error", m),
            Error::TxnAborted(m) => ("transaction aborted", m),
            Error::RateLimited { message, retry_after } => {
                return write!(f, "rate limited (retry after {retry_after} ns): {message}")
            }
            Error::Overloaded { message, retry_after } => {
                return write!(f, "overloaded (retry after {retry_after} ns): {message}")
            }
        };
        write!(f, "{kind}: {msg}")
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_and_message() {
        let e = Error::NotFound("topic t0".into());
        assert_eq!(e.to_string(), "not found: topic t0");
        let e = Error::Conflict("snapshot 7".into());
        assert_eq!(e.to_string(), "commit conflict: snapshot 7");
        let e = Error::RateLimited { message: "tenant a".into(), retry_after: 250 };
        assert_eq!(e.to_string(), "rate limited (retry after 250 ns): tenant a");
        let e = Error::Overloaded { message: "fg p99".into(), retry_after: 1_000 };
        assert_eq!(e.to_string(), "overloaded (retry after 1000 ns): fg p99");
    }

    #[test]
    fn retryability_matches_taxonomy() {
        assert!(Error::Conflict(String::new()).is_retryable());
        assert!(Error::QuotaExceeded(String::new()).is_retryable());
        assert!(Error::TxnAborted(String::new()).is_retryable());
        // I/O faults are transient under the fault model: outage windows
        // close and dead devices get healed/replaced.
        assert!(Error::Io(String::new()).is_retryable());
        assert!(Error::RateLimited { message: String::new(), retry_after: 1 }.is_retryable());
        assert!(Error::Overloaded { message: String::new(), retry_after: 1 }.is_retryable());
        // Terminal class: retrying the identical op can never succeed.
        assert!(!Error::Corruption(String::new()).is_retryable());
        assert!(!Error::NotFound(String::new()).is_retryable());
        assert!(!Error::CapacityExhausted(String::new()).is_retryable());
        assert!(!Error::Unrecoverable(String::new()).is_retryable());
        assert!(!Error::InvalidArgument(String::new()).is_retryable());
    }

    #[test]
    fn retry_after_hint_only_on_throttling_variants() {
        assert_eq!(
            Error::RateLimited { message: String::new(), retry_after: 42 }.retry_after(),
            Some(42)
        );
        assert_eq!(
            Error::Overloaded { message: String::new(), retry_after: 7 }.retry_after(),
            Some(7)
        );
        assert_eq!(Error::Io(String::new()).retry_after(), None);
        assert_eq!(Error::Conflict(String::new()).retry_after(), None);
    }

    #[test]
    fn kind_is_stable() {
        assert_eq!(Error::Io("x".into()).kind(), "io");
        assert_eq!(Error::Unrecoverable("x".into()).kind(), "unrecoverable");
        assert_eq!(
            Error::RateLimited { message: "x".into(), retry_after: 0 }.kind(),
            "rate_limited"
        );
        assert_eq!(
            Error::Overloaded { message: "x".into(), retry_after: 0 }.kind(),
            "overloaded"
        );
    }
}
