//! Error type for controller generation.

use std::fmt;

use hls_dfg::{NodeId, SignalId};

/// Error produced while generating a [`crate::Controller`].
///
/// Exhaustive on purpose: every variant names its culprit, and
/// `hls-sim` maps each one onto a `SimError` blaming the same node or
/// signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlError {
    /// An operation is not scheduled or not bound to an ALU.
    UnboundNode(NodeId),
    /// An operation's operand source is not on the corresponding mux —
    /// the data path does not match the schedule.
    SourceNotOnMux {
        /// The operation.
        node: NodeId,
        /// The port (1 or 2).
        port: u8,
    },
    /// A stored signal has no register in the data path.
    Unstored(SignalId),
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::UnboundNode(n) => {
                write!(f, "operation {n} is not bound to an ALU instance")
            }
            ControlError::SourceNotOnMux { node, port } => write!(
                f,
                "operand source of {node} is missing from its port-{port} multiplexer"
            ),
            ControlError::Unstored(s) => write!(f, "stored signal {s} has no register"),
        }
    }
}

impl std::error::Error for ControlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let mut b = hls_dfg::DfgBuilder::new("x");
        let s = b.input("s");
        let e = ControlError::Unstored(s);
        assert!(e.to_string().contains("register"));
    }
}
