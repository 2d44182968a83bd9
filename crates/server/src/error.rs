//! The server's single error type — everything that can stop the
//! daemon itself, as opposed to refusing one request with a typed
//! reply.

use std::error::Error;
use std::fmt;

/// A failure that prevents the server from continuing: world
/// construction, persistence I/O, a snapshot/journal integrity break,
/// or a restart that disagrees with its checkpoint. Per-request trouble
/// never takes this shape — it becomes a typed reply instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// World construction, persistence I/O or an integrity break.
    Failed(String),
    /// A restart that gives a [`ServerConfig`](crate::world::ServerConfig)
    /// field the checkpoint owns another value.
    ConfigMismatch {
        /// The field.
        field: String,
        /// The checkpoint's value, as compact JSON.
        checkpoint: String,
        /// The restarted daemon's value, as compact JSON.
        given: String,
    },
}

impl ServerError {
    /// Creates a [`ServerError::Failed`] from any displayable cause.
    pub fn new(message: impl fmt::Display) -> Self {
        Self::Failed(message.to_string())
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Failed(message) => write!(f, "server error: {message}"),
            Self::ConfigMismatch {
                field,
                checkpoint,
                given,
            } => write!(
                f,
                "server error: the checkpoint was written with {field} {checkpoint}, \
                 this daemon was started with {field} {given}"
            ),
        }
    }
}

impl Error for ServerError {}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        Self::new(e)
    }
}

impl From<icm_core::ModelError> for ServerError {
    fn from(e: icm_core::ModelError) -> Self {
        Self::new(e)
    }
}

impl From<icm_manager::ManagerError> for ServerError {
    fn from(e: icm_manager::ManagerError) -> Self {
        Self::new(e)
    }
}

impl From<icm_placement::PlacementError> for ServerError {
    fn from(e: icm_placement::PlacementError) -> Self {
        Self::new(e)
    }
}

impl From<icm_simcluster::TestbedError> for ServerError {
    fn from(e: icm_simcluster::TestbedError) -> Self {
        Self::new(e)
    }
}

impl From<crate::journal::JournalError> for ServerError {
    fn from(e: crate::journal::JournalError) -> Self {
        Self::new(e)
    }
}
