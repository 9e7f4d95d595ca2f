//! Errors of the generation pipeline.

use std::fmt;

/// Why data-example generation could not run (distinct from individual
/// invocation failures, which generation tolerates and records).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerationError {
    /// A parameter's semantic annotation names a concept absent from the
    /// annotation ontology.
    UnknownConcept { parameter: String, concept: String },
    /// The cartesian product of input partitions exceeds the configured cap.
    TooManyCombinations { combinations: usize, cap: usize },
    /// The module's descriptor is malformed.
    BadDescriptor(String),
    /// The two modules cannot be mapped parameter-to-parameter (matching).
    Incomparable(String),
}

impl fmt::Display for GenerationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerationError::UnknownConcept { parameter, concept } => write!(
                f,
                "parameter `{parameter}` is annotated with unknown concept `{concept}`"
            ),
            GenerationError::TooManyCombinations { combinations, cap } => write!(
                f,
                "input partitioning yields {combinations} combinations, above the cap of {cap}"
            ),
            GenerationError::BadDescriptor(msg) => write!(f, "malformed module interface: {msg}"),
            GenerationError::Incomparable(msg) => {
                write!(f, "modules cannot be compared: {msg}")
            }
        }
    }
}

impl std::error::Error for GenerationError {}

impl GenerationError {
    /// The incomparability of a replay with nothing to replay: a verdict
    /// over zero examples could not be honest.
    pub fn no_examples() -> GenerationError {
        GenerationError::Incomparable("no data examples to compare against".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = GenerationError::UnknownConcept {
            parameter: "seq".into(),
            concept: "Ghost".into(),
        };
        assert!(e.to_string().contains("Ghost"));
        assert!(GenerationError::TooManyCombinations {
            combinations: 1000,
            cap: 100
        }
        .to_string()
        .contains("1000"));
        assert!(GenerationError::BadDescriptor("x".into())
            .to_string()
            .contains("x"));
        assert!(GenerationError::Incomparable("y".into())
            .to_string()
            .contains("y"));
    }
}
