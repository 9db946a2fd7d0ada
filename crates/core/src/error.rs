//! The unified error type for the facade's fallible public API.
//!
//! Every failure the assembly layer can hit — a bad cluster
//! configuration, a campaign spec that fails validation, an engine
//! failure, an unknown experiment id, an artifact that cannot be
//! written — surfaces as one [`Sp2Error`], so callers (the `sp2` binary
//! above all) can match on the class of failure and exit accordingly
//! instead of unwinding through a panic.

use sp2_cluster::{CampaignError, ClusterConfigError};
use sp2_workload::CampaignSpecError;

/// Any error the `sp2-core` facade can return.
#[derive(Debug)]
pub enum Sp2Error {
    /// The cluster configuration failed validation.
    Config(ClusterConfigError),
    /// The campaign spec failed validation.
    Spec(CampaignSpecError),
    /// The campaign engine failed (a request PBS rejected, cancellation,
    /// a rotation plan with no passes).
    Campaign(CampaignError),
    /// No experiment with this id is registered.
    UnknownExperiment(String),
    /// An artifact could not be written.
    Io(std::io::Error),
    /// A [`crate::Submission`] failed validation (same exit class as a
    /// bad campaign spec — the submission is the spec's canonical form).
    Submission(String),
    /// A malformed serve-protocol request or response: not valid JSON,
    /// missing fields, or an operation on a job the server doesn't know.
    Protocol(String),
    /// An archive replay was asked for a campaign the archive does not
    /// hold (named here); a replay never simulates one in its place.
    MissingCampaign(String),
}

impl std::fmt::Display for Sp2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sp2Error::Config(e) => write!(f, "cluster configuration: {e}"),
            Sp2Error::Spec(e) => write!(f, "campaign spec: {e}"),
            Sp2Error::Campaign(e) => write!(f, "campaign engine: {e}"),
            Sp2Error::UnknownExperiment(id) => write!(f, "unknown experiment: {id}"),
            Sp2Error::Io(e) => write!(f, "artifact i/o: {e}"),
            Sp2Error::Submission(m) => write!(f, "submission: {m}"),
            Sp2Error::Protocol(m) => write!(f, "protocol: {m}"),
            Sp2Error::MissingCampaign(c) => write!(
                f,
                "archive replay: the archive holds no {c} (run without --archive to simulate it)"
            ),
        }
    }
}

impl std::error::Error for Sp2Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Sp2Error::Config(e) => Some(e),
            Sp2Error::Spec(e) => Some(e),
            Sp2Error::Campaign(e) => Some(e),
            Sp2Error::UnknownExperiment(_) => None,
            Sp2Error::Io(e) => Some(e),
            Sp2Error::Submission(_) | Sp2Error::Protocol(_) | Sp2Error::MissingCampaign(_) => None,
        }
    }
}

impl From<ClusterConfigError> for Sp2Error {
    fn from(e: ClusterConfigError) -> Self {
        Sp2Error::Config(e)
    }
}

impl From<CampaignSpecError> for Sp2Error {
    fn from(e: CampaignSpecError) -> Self {
        Sp2Error::Spec(e)
    }
}

impl From<CampaignError> for Sp2Error {
    fn from(e: CampaignError) -> Self {
        Sp2Error::Campaign(e)
    }
}

impl From<std::io::Error> for Sp2Error {
    fn from(e: std::io::Error) -> Self {
        Sp2Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_class_and_cause() {
        let e = Sp2Error::UnknownExperiment("fig9".to_string());
        assert!(e.to_string().contains("fig9"));
        let e: Sp2Error = std::io::Error::other("disk full").into();
        assert!(e.to_string().contains("disk full"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn conversions_preserve_variants() {
        let e: Sp2Error = CampaignError::Cancelled.into();
        assert!(matches!(e, Sp2Error::Campaign(_)));
        assert!(e.to_string().contains("cancelled"));
    }
}
