use std::fmt;

/// Errors produced while decoding XDR data.
///
/// Encoding is infallible (the writer grows its buffer); every decode entry
/// point returns `Result<_, XdrError>` because the bytes may come off the
/// wire from an untrusted or corrupted peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XdrError {
    /// The reader ran out of bytes: needed `needed`, only `available` left.
    Truncated {
        /// Bytes the decode step required.
        needed: usize,
        /// Bytes remaining in the input.
        available: usize,
    },
    /// An item of a segmented input straddles a segment boundary: `needed`
    /// bytes were asked for, only `available` are left in the current
    /// segment. Writers never split an item, so such input was not
    /// produced by one.
    SegmentStraddle {
        /// Bytes the decode step required.
        needed: usize,
        /// Bytes left in the current segment.
        available: usize,
    },
    /// A length prefix exceeded the decoder's sanity limit.
    LengthOverflow {
        /// Length the prefix declared.
        declared: u64,
        /// The configured limit.
        limit: u64,
    },
    /// A boolean discriminant was neither 0 nor 1.
    InvalidBool(u32),
    /// An enum discriminant had no matching variant.
    InvalidDiscriminant(u32),
    /// String bytes were not valid UTF-8.
    InvalidUtf8,
    /// Padding bytes were non-zero (tolerated by some XDR decoders; we reject
    /// so that the representation is canonical and MACs are unambiguous).
    NonZeroPadding,
    /// `decode_from_slice` finished with bytes left over.
    TrailingBytes(usize),
    /// Free-form error raised by a user `XdrDecode` implementation.
    Custom(String),
}

impl fmt::Display for XdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XdrError::Truncated { needed, available } => {
                write!(f, "truncated XDR data: needed {needed} bytes, {available} available")
            }
            XdrError::SegmentStraddle { needed, available } => write!(
                f,
                "XDR item of {needed} bytes straddles a segment boundary ({available} before it)"
            ),
            XdrError::LengthOverflow { declared, limit } => {
                write!(f, "XDR length {declared} exceeds limit {limit}")
            }
            XdrError::InvalidBool(v) => write!(f, "invalid XDR boolean {v}"),
            XdrError::InvalidDiscriminant(v) => write!(f, "invalid XDR discriminant {v}"),
            XdrError::InvalidUtf8 => write!(f, "XDR string is not valid UTF-8"),
            XdrError::NonZeroPadding => write!(f, "non-zero XDR padding bytes"),
            XdrError::TrailingBytes(n) => write!(f, "{n} trailing bytes after XDR value"),
            XdrError::Custom(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for XdrError {}

impl XdrError {
    /// Builds a [`XdrError::Custom`] from anything displayable.
    pub fn custom(msg: impl fmt::Display) -> Self {
        XdrError::Custom(msg.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = XdrError::Truncated { needed: 8, available: 3 };
        assert_eq!(e.to_string(), "truncated XDR data: needed 8 bytes, 3 available");
        assert_eq!(XdrError::InvalidBool(7).to_string(), "invalid XDR boolean 7");
        assert_eq!(XdrError::custom("boom").to_string(), "boom");
    }
}
