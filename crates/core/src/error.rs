//! Error type shared by all ShBF structures.

use shbf_bits::CodecError;

/// Errors from constructing, updating, or deserializing ShBF structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShbfError {
    /// ShBF_M splits k positions into k/2 pairs, so `k` must be even and ≥ 2
    /// (§1.2.1 "assuming k is an even number for simplicity").
    KMustBeEven(usize),
    /// `k` (or a derived group count) must be positive.
    KZero,
    /// `k` (or a sketch's row count) exceeds [`crate::MAX_K`].
    KTooLarge {
        /// requested number of positions
        k: usize,
        /// the bound, [`crate::MAX_K`]
        max: usize,
    },
    /// The generalized construction needs `k` divisible by `t + 1`.
    KNotDivisible {
        /// requested number of positions
        k: usize,
        /// group size `t + 1`
        group: usize,
    },
    /// A size parameter (`m`, rows, columns, `c`) must be positive.
    ZeroSize(&'static str),
    /// `w̄` must lie in `[2, w − 7]` so that a probe window is one access
    /// (§3.1).
    WBarOutOfRange {
        /// requested window bound
        w_bar: usize,
        /// the model's maximum (`w − 7`)
        max: usize,
    },
    /// A multiplicity was zero or exceeded the configured maximum `c`.
    CountOutOfRange {
        /// offending count
        count: u64,
        /// configured maximum
        max: u64,
    },
    /// Deleting an element that is (provably) not present.
    NotFound,
    /// The structure cannot accept the update (e.g. counter would overflow
    /// or a multiplicity would exceed `c`).
    CapacityExceeded(&'static str),
    /// Deserialization failure.
    Codec(CodecError),
}

impl std::fmt::Display for ShbfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShbfError::KMustBeEven(k) => {
                write!(f, "ShBF_M requires an even k >= 2, got {k}")
            }
            ShbfError::KZero => write!(f, "k must be positive"),
            ShbfError::KTooLarge { k, max } => write!(f, "k {k} exceeds the maximum {max}"),
            ShbfError::KNotDivisible { k, group } => {
                write!(
                    f,
                    "generalized ShBF_M requires k divisible by t+1: {k} % {group} != 0"
                )
            }
            ShbfError::ZeroSize(what) => write!(f, "{what} must be positive"),
            ShbfError::WBarOutOfRange { w_bar, max } => {
                write!(f, "w-bar {w_bar} outside [2, {max}] (= word bits - 7)")
            }
            ShbfError::CountOutOfRange { count, max } => {
                write!(f, "multiplicity {count} outside [1, {max}]")
            }
            ShbfError::NotFound => write!(f, "element not present"),
            ShbfError::CapacityExceeded(what) => write!(f, "capacity exceeded: {what}"),
            ShbfError::Codec(e) => write!(f, "codec error: {e}"),
        }
    }
}

impl std::error::Error for ShbfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShbfError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for ShbfError {
    fn from(e: CodecError) -> Self {
        ShbfError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ShbfError::WBarOutOfRange {
            w_bar: 100,
            max: 57,
        };
        let s = e.to_string();
        assert!(s.contains("100") && s.contains("57"), "{s}");
    }

    #[test]
    fn codec_error_chains() {
        use std::error::Error;
        let e = ShbfError::from(CodecError::UnexpectedEof);
        assert!(e.source().is_some());
    }
}
