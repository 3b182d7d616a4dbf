//! Device-level errors.

use crate::state::DeviceState;
use insider_ftl::FtlError;
use std::error::Error;
use std::fmt;

/// Errors returned by [`SsdInsider`](crate::SsdInsider) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeviceError {
    /// The operation is not allowed in the device's current state (e.g.
    /// recovering while no alarm is pending).
    WrongState {
        /// State the device is in.
        actual: DeviceState,
        /// What the operation required.
        needed: &'static str,
    },
    /// An FTL operation failed.
    Ftl(FtlError),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::WrongState { actual, needed } => {
                write!(f, "device is {actual}, operation needs {needed}")
            }
            DeviceError::Ftl(e) => write!(f, "ftl: {e}"),
        }
    }
}

impl Error for DeviceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DeviceError::Ftl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FtlError> for DeviceError {
    fn from(e: FtlError) -> Self {
        DeviceError::Ftl(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use crate::state::{Command, Lifecycle};
        let e = Lifecycle::Normal.next(Command::Dismiss).unwrap_err();
        assert_eq!(
            e.to_string(),
            "device is normal, operation needs a pending alarm (suspicious state)"
        );
        assert!(e.source().is_none());

        let e = DeviceError::from(FtlError::ReadOnly);
        assert!(e.to_string().starts_with("ftl:"));
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DeviceError>();
    }
}
