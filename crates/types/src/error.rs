//! Error handling for the whole workspace.
//!
//! The paper (§3.4 *Error Handling*) describes rewriting MonetDB so that
//! errors are "reported as a return value from the SQL query function"
//! rather than written to an output stream or aborting the process via
//! `exit()`. In Rust that contract is the natural one: every fallible
//! operation returns [`Result`], no API ever panics on user input, and no
//! process-global state is mutated on failure.

use std::fmt;

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, MlError>;

/// All error conditions surfaced by the monetlite engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MlError {
    /// SQL lexer/parser failure: message and byte offset in the input.
    Parse { message: String, offset: usize },
    /// Name resolution / semantic analysis failure.
    Bind(String),
    /// Catalog problem: unknown/duplicate table, column, index.
    Catalog(String),
    /// Type-check / coercion failure.
    TypeMismatch(String),
    /// Runtime execution failure (overflow, division by zero, bad cast...).
    Execution(String),
    /// Optimistic concurrency control detected a write-write conflict at
    /// commit time; the transaction was aborted (paper §3.1 *Concurrency
    /// Control*).
    TransactionConflict(String),
    /// Operation attempted on a connection without the required transaction
    /// state (e.g. COMMIT without BEGIN).
    TransactionState(String),
    /// I/O failure against the persistent store (message carries context;
    /// `std::io::Error` is not `Clone`/`PartialEq` so we keep the string).
    Io(String),
    /// On-disk data failed validation during startup or recovery. The paper
    /// (§3.4) stresses that a corrupt database must produce "a simple error
    /// being thrown" instead of killing the host process.
    Corrupt(String),
    /// The configured memory budget was exceeded. Used by the dataframe
    /// library baseline to reproduce the SF10 "E" entries of Table 1.
    OutOfMemory { requested: usize, budget: usize },
    /// A query exceeded the harness-imposed timeout ("T" entries of Table 1).
    Timeout { elapsed_ms: u64, limit_ms: u64 },
    /// The query was cancelled from another thread via
    /// `Connection::interrupt_handle()`. Like a timeout this aborts only
    /// the running statement; the connection stays usable.
    Interrupted,
    /// The query's spill files exceeded the per-query temp-disk byte cap
    /// (`ExecOptions::spill_quota`). Aborts only the offending query;
    /// other sessions and the store are unaffected.
    SpillQuota { used: u64, quota: u64 },
    /// Wire-protocol violation in the client/server simulation.
    Protocol(String),
    /// Feature recognised but unsupported in this build.
    Unsupported(String),
}

impl MlError {
    /// Convenience constructor for parse errors.
    pub fn parse(message: impl Into<String>, offset: usize) -> Self {
        MlError::Parse { message: message.into(), offset }
    }

    /// True when the error is a recoverable user-level error (as opposed to
    /// corruption or I/O failure).
    pub fn is_user_error(&self) -> bool {
        matches!(
            self,
            MlError::Parse { .. }
                | MlError::Bind(_)
                | MlError::Catalog(_)
                | MlError::TypeMismatch(_)
                | MlError::TransactionState(_)
                | MlError::Unsupported(_)
        )
    }
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::Parse { message, offset } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            MlError::Bind(m) => write!(f, "binder error: {m}"),
            MlError::Catalog(m) => write!(f, "catalog error: {m}"),
            MlError::TypeMismatch(m) => write!(f, "type error: {m}"),
            MlError::Execution(m) => write!(f, "execution error: {m}"),
            MlError::TransactionConflict(m) => write!(f, "transaction conflict: {m}"),
            MlError::TransactionState(m) => write!(f, "transaction state error: {m}"),
            MlError::Io(m) => write!(f, "io error: {m}"),
            MlError::Corrupt(m) => write!(f, "database corrupt: {m}"),
            MlError::OutOfMemory { requested, budget } => {
                write!(f, "out of memory: requested {requested} bytes, budget {budget}")
            }
            MlError::Timeout { elapsed_ms, limit_ms } => {
                write!(f, "query timeout: {elapsed_ms}ms elapsed, limit {limit_ms}ms")
            }
            MlError::Interrupted => write!(f, "query interrupted"),
            MlError::SpillQuota { used, quota } => {
                write!(f, "spill quota exceeded: query wrote {used} temp bytes, quota {quota}")
            }
            MlError::Protocol(m) => write!(f, "protocol error: {m}"),
            MlError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for MlError {}

impl From<std::io::Error> for MlError {
    fn from(e: std::io::Error) -> Self {
        MlError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        let e = MlError::parse("unexpected token", 17);
        assert_eq!(e.to_string(), "parse error at byte 17: unexpected token");
        let e = MlError::OutOfMemory { requested: 100, budget: 50 };
        assert!(e.to_string().contains("requested 100"));
    }

    #[test]
    fn user_error_classification() {
        assert!(MlError::Bind("x".into()).is_user_error());
        assert!(MlError::parse("x", 0).is_user_error());
        assert!(!MlError::Io("disk".into()).is_user_error());
        assert!(!MlError::Corrupt("bad magic".into()).is_user_error());
        assert!(!MlError::TransactionConflict("w-w".into()).is_user_error());
    }

    #[test]
    fn interrupt_and_quota_are_not_user_errors() {
        // Both abort a statement for operational reasons, not because the
        // statement itself was invalid.
        assert!(!MlError::Interrupted.is_user_error());
        assert!(!MlError::SpillQuota { used: 10, quota: 5 }.is_user_error());
        assert!(MlError::Interrupted.to_string().contains("interrupted"));
        let q = MlError::SpillQuota { used: 10, quota: 5 };
        assert!(q.to_string().contains("quota 5"), "{q}");
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: MlError = io.into();
        assert!(matches!(e, MlError::Io(_)));
    }
}
