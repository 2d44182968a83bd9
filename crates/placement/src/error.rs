use std::error::Error;
use std::fmt;

/// Error type for placement construction and search.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// The problem dimensions are inconsistent.
    Shape(String),
    /// An assignment vector violates the placement invariants.
    InvalidAssignment(String),
    /// A predictor was missing or mismatched for a workload.
    Predictor(String),
    /// The search could not produce a result (e.g. no valid swap found,
    /// or no feasible placement for a QoS constraint).
    Search(String),
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::Shape(msg) => write!(f, "invalid problem shape: {msg}"),
            PlacementError::InvalidAssignment(msg) => write!(f, "invalid assignment: {msg}"),
            PlacementError::Predictor(msg) => write!(f, "predictor error: {msg}"),
            PlacementError::Search(msg) => write!(f, "search failure: {msg}"),
        }
    }
}

impl Error for PlacementError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        assert!(PlacementError::Shape("x".into())
            .to_string()
            .contains("shape"));
        assert!(PlacementError::Search("no feasible".into())
            .to_string()
            .contains("no feasible"));
    }

    #[test]
    fn every_variant_has_a_distinct_display_prefix() {
        let variants = [
            PlacementError::Shape("0 workloads".into()),
            PlacementError::InvalidAssignment("host repeated".into()),
            PlacementError::Predictor("missing for `M.milc`".into()),
            PlacementError::Search("no feasible placement".into()),
        ];
        let expected = [
            "invalid problem shape: 0 workloads",
            "invalid assignment: host repeated",
            "predictor error: missing for `M.milc`",
            "search failure: no feasible placement",
        ];
        let rendered: Vec<String> = variants.iter().map(PlacementError::to_string).collect();
        assert_eq!(rendered, expected);
        for v in &variants {
            assert_eq!(v, &v.clone());
        }
    }

    #[test]
    fn is_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<PlacementError>();
    }
}
