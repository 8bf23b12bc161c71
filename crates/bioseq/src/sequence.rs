//! Owned, validated protein sequences.

use crate::alphabet::{char_to_code, code_to_char, GAP_CODE, X_CODE};
use std::fmt;

/// An ungapped protein sequence with an identifier.
///
/// Residues are stored as codes `0..=20` (see [`crate::alphabet`]); gaps are
/// *not* representable here — gapped rows live in [`crate::msa::Msa`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Sequence {
    /// FASTA-style identifier (without the leading `>`).
    pub id: String,
    residues: Vec<u8>,
}

/// Error produced when parsing sequence text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SequenceError {
    /// A character was not a valid residue letter.
    InvalidResidue {
        /// The offending character.
        ch: char,
        /// Byte position within the residue text.
        pos: usize,
    },
    /// A gap character appeared in an ungapped sequence context.
    UnexpectedGap {
        /// Byte position within the residue text.
        pos: usize,
    },
    /// The sequence had no residues.
    Empty,
}

impl fmt::Display for SequenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SequenceError::InvalidResidue { ch, pos } => {
                write!(f, "invalid residue character {ch:?} at position {pos}")
            }
            SequenceError::UnexpectedGap { pos } => {
                write!(f, "unexpected gap character at position {pos}")
            }
            SequenceError::Empty => write!(f, "empty sequence"),
        }
    }
}

impl std::error::Error for SequenceError {}

impl Sequence {
    /// Build a sequence from residue text such as `"MKVL..."`.
    ///
    /// Whitespace is ignored; gap characters are rejected.
    pub fn from_str(id: impl Into<String>, text: &str) -> Result<Self, SequenceError> {
        let mut residues = Vec::with_capacity(text.len());
        for (pos, ch) in text.chars().enumerate() {
            if ch.is_whitespace() {
                continue;
            }
            match char_to_code(ch) {
                Some(GAP_CODE) => return Err(SequenceError::UnexpectedGap { pos }),
                Some(code) => residues.push(code),
                None => return Err(SequenceError::InvalidResidue { ch, pos }),
            }
        }
        if residues.is_empty() {
            return Err(SequenceError::Empty);
        }
        Ok(Sequence { id: id.into(), residues })
    }

    /// Build a sequence from pre-validated residue codes.
    ///
    /// # Panics
    /// Panics if any code is a gap or out of range, or if `codes` is empty.
    pub fn from_codes(id: impl Into<String>, codes: Vec<u8>) -> Self {
        assert!(!codes.is_empty(), "sequence must be non-empty");
        assert!(codes.iter().all(|&c| c <= X_CODE), "codes must be residues (0..=20)");
        Sequence { id: id.into(), residues: codes }
    }

    /// Residue codes.
    #[inline]
    pub fn codes(&self) -> &[u8] {
        &self.residues
    }

    /// Sequence length in residues.
    #[inline]
    pub fn len(&self) -> usize {
        self.residues.len()
    }

    /// Whether the sequence is empty (never true for validated sequences).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.residues.is_empty()
    }

    /// Render the residues as an ASCII string.
    pub fn to_letters(&self) -> String {
        self.residues.iter().map(|&c| code_to_char(c)).collect()
    }

    /// Approximate wire size in bytes when shipped between cluster ranks:
    /// one byte per residue plus the identifier.
    pub fn wire_bytes(&self) -> usize {
        self.residues.len() + self.id.len() + 8
    }
}

impl fmt::Debug for Sequence {
    /// Prints a truncated preview rather than megabytes of residues.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: String = self.residues.iter().take(24).map(|&c| code_to_char(c)).collect();
        let ellipsis = if self.residues.len() > 24 { "…" } else { "" };
        write!(f, "Sequence({} len={} {}{})", self.id, self.residues.len(), preview, ellipsis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_render() {
        let s = Sequence::from_str("s1", "MKVLAW").unwrap();
        assert_eq!(s.len(), 6);
        assert_eq!(s.to_letters(), "MKVLAW");
    }

    #[test]
    fn whitespace_ignored() {
        let s = Sequence::from_str("s", "MK VL\nAW").unwrap();
        assert_eq!(s.to_letters(), "MKVLAW");
    }

    #[test]
    fn gap_rejected() {
        assert!(matches!(
            Sequence::from_str("s", "MK-VL"),
            Err(SequenceError::UnexpectedGap { pos: 2 })
        ));
    }

    #[test]
    fn invalid_rejected() {
        assert!(matches!(
            Sequence::from_str("s", "MK1VL"),
            Err(SequenceError::InvalidResidue { ch: '1', pos: 2 })
        ));
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(Sequence::from_str("s", "  "), Err(SequenceError::Empty)));
    }

    #[test]
    fn debug_is_truncated() {
        let long = "A".repeat(100);
        let s = Sequence::from_str("long", &long).unwrap();
        let dbg = format!("{s:?}");
        assert!(dbg.len() < 80, "debug too long: {dbg}");
        assert!(dbg.contains("len=100"));
    }

    #[test]
    fn ambiguity_mapped_on_parse() {
        let s = Sequence::from_str("s", "BZJ").unwrap();
        assert_eq!(s.to_letters(), "DEL");
    }
}
