//! Error type for interpretation and simulation.

use std::fmt;

use hls_control::ControlError;
use hls_dfg::{NodeId, SignalId};

/// Error produced by the interpreter or the RTL simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A primary input has no value in the supplied input map.
    MissingInput(SignalId),
    /// The graph contains a node the simulator cannot execute (a folded
    /// loop body — expand or schedule it hierarchically first).
    Unsupported(NodeId),
    /// The schedule/data path is incomplete for this node.
    Unbound(NodeId),
    /// A consumed value was not present where the data path said it
    /// would be (register never written, or read out of its life span).
    ValueUnavailable {
        /// The consuming operation.
        node: NodeId,
        /// The missing signal.
        signal: SignalId,
    },
    /// The storage of this signal is inconsistent: it must be stored
    /// but has no register, or the controller latches it although no
    /// operation produces it.
    Unstored(SignalId),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingInput(s) => write!(f, "no value supplied for primary input {s}"),
            SimError::Unsupported(n) => write!(f, "node {n} cannot be simulated"),
            SimError::Unbound(n) => write!(f, "node {n} is not fully scheduled/allocated"),
            SimError::ValueUnavailable { node, signal } => {
                write!(
                    f,
                    "operation {node} read signal {signal} before it was available"
                )
            }
            SimError::Unstored(s) => write!(f, "signal {s} has no consistent register"),
        }
    }
}

impl std::error::Error for SimError {}

/// Controller generation failures, blamed on the node or signal at
/// fault.
impl From<ControlError> for SimError {
    fn from(e: ControlError) -> Self {
        match e {
            ControlError::UnboundNode(node) | ControlError::SourceNotOnMux { node, .. } => {
                SimError::Unbound(node)
            }
            ControlError::Unstored(signal) => SimError::Unstored(signal),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let mut b = hls_dfg::DfgBuilder::new("x");
        let s = b.input("s");
        assert!(SimError::MissingInput(s).to_string().contains("input"));
    }
}
