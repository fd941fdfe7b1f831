//! Error type of the serving engine.

use std::fmt;

use imars_fabric::error::FabricError;
use imars_recsys::error::RecsysError;

/// Errors produced by engine construction, batching or request processing.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A serving configuration was structurally invalid.
    InvalidConfig {
        /// Description of the violated constraint.
        reason: String,
    },
    /// A request referenced an item row outside the catalogue.
    RowOutOfRange {
        /// The offending row id.
        row: usize,
        /// Number of catalogue rows.
        rows: usize,
    },
    /// A buffer had the wrong length for the operation.
    ShapeMismatch {
        /// What the shapes describe.
        what: &'static str,
        /// Expected size.
        expected: usize,
        /// Actual size.
        actual: usize,
    },
    /// The runtime's bounded request queue was full: the request was rejected
    /// (load shedding) rather than queued.
    QueueFull {
        /// The queue's capacity bound.
        capacity: usize,
    },
    /// The runtime has been shut down (or a worker died) and accepts no more requests.
    RuntimeStopped,
    /// A shard node of the cluster died (panicked or was shut down) while sub-requests
    /// were outstanding; the routed batch cannot be completed.
    ShardFailed {
        /// The shard whose node failed.
        shard: usize,
    },
    /// The transport link to a shard node closed (socket EOF, write error, or the node
    /// process exited).
    TransportClosed {
        /// The shard whose link closed.
        shard: usize,
    },
    /// An error bubbled up from the model layer.
    Recsys(RecsysError),
    /// An error bubbled up from the fabric simulator.
    Fabric(FabricError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidConfig { reason } => {
                write!(f, "invalid serving configuration: {reason}")
            }
            ServeError::RowOutOfRange { row, rows } => {
                write!(f, "item row {row} out of range (catalogue has {rows} rows)")
            }
            ServeError::ShapeMismatch {
                what,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "{what} shape mismatch: expected {expected}, got {actual}"
                )
            }
            ServeError::QueueFull { capacity } => {
                write!(
                    f,
                    "request queue full ({capacity} deep): request rejected by backpressure"
                )
            }
            ServeError::RuntimeStopped => write!(f, "serving runtime is stopped"),
            ServeError::ShardFailed { shard } => {
                write!(f, "shard node {shard} failed with sub-requests outstanding")
            }
            ServeError::TransportClosed { shard } => {
                write!(f, "transport link to shard {shard} closed")
            }
            ServeError::Recsys(e) => write!(f, "model layer: {e}"),
            ServeError::Fabric(e) => write!(f, "fabric layer: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RecsysError> for ServeError {
    fn from(e: RecsysError) -> Self {
        ServeError::Recsys(e)
    }
}

impl From<FabricError> for ServeError {
    fn from(e: FabricError) -> Self {
        ServeError::Fabric(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_fields() {
        let e = ServeError::InvalidConfig {
            reason: "zero shards".into(),
        };
        assert!(e.to_string().contains("zero shards"));
        let e = ServeError::RowOutOfRange { row: 7, rows: 4 };
        assert!(e.to_string().contains('7'));
        let e = ServeError::ShapeMismatch {
            what: "profile buffer",
            expected: 32,
            actual: 16,
        };
        assert!(e.to_string().contains("profile buffer"));
        let e = ServeError::QueueFull { capacity: 64 };
        assert!(e.to_string().contains("64"));
        assert!(e.to_string().contains("backpressure"));
        assert!(ServeError::RuntimeStopped.to_string().contains("stopped"));
        let e = ServeError::ShardFailed { shard: 3 };
        assert!(e.to_string().contains('3'));
        let e = ServeError::TransportClosed { shard: 1 };
        assert!(e.to_string().contains("shard 1"));
    }

    #[test]
    fn conversions_wrap_lower_layers() {
        let r: ServeError = RecsysError::InvalidConfig { reason: "x".into() }.into();
        assert!(matches!(r, ServeError::Recsys(_)));
        let f: ServeError = FabricError::RowOutOfRange { row: 1, rows: 0 }.into();
        assert!(matches!(f, ServeError::Fabric(_)));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeError>();
    }
}
