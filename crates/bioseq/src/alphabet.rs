//! Amino-acid alphabets.
//!
//! Residues are stored as `u8` codes in the canonical MUSCLE/BLAST order
//! `A R N D C Q E G H I L K M F P S T W Y V` (codes `0..=19`). Two extra
//! codes exist: [`X_CODE`] (`20`) for unknown/ambiguous residues and
//! [`GAP_CODE`] (`21`) for gap characters inside alignments.
//!
//! The k-mer machinery of Edgar (2004) counts k-mers over *compressed*
//! alphabets that merge chemically similar residues; [`CompressedAlphabet`]
//! provides the Dayhoff-6 grouping plus the identity mapping.

/// Number of canonical amino acids.
pub const AA_COUNT: usize = 20;
/// Code for an unknown/ambiguous residue (`X`).
pub const X_CODE: u8 = 20;
/// Code for a gap character (`-`) inside alignments.
pub const GAP_CODE: u8 = 21;
/// Total number of codes a sequence position may hold (residues + X).
pub const CODE_COUNT: usize = 21;

/// Canonical residue letters, indexed by code.
pub const LETTERS: [u8; 21] = [
    b'A', b'R', b'N', b'D', b'C', b'Q', b'E', b'G', b'H', b'I', b'L', b'K', b'M', b'F', b'P', b'S',
    b'T', b'W', b'Y', b'V', b'X',
];

/// Convert a residue code (including [`X_CODE`] and [`GAP_CODE`]) to its
/// ASCII letter.
#[inline]
pub fn code_to_char(code: u8) -> char {
    if code == GAP_CODE {
        '-'
    } else {
        LETTERS[code as usize] as char
    }
}

/// Convert an ASCII letter to a residue code.
///
/// Ambiguity codes are resolved to their most common interpretation
/// (`B → D`, `Z → E`, `J → L`, `U → C`, `O → K`); any other unknown letter
/// maps to [`X_CODE`]. `-` and `.` map to [`GAP_CODE`]. Returns `None` for
/// characters that are not plausibly part of a protein sequence.
#[inline]
pub fn char_to_code(c: char) -> Option<u8> {
    let up = c.to_ascii_uppercase();
    Some(match up {
        'A' => 0,
        'R' => 1,
        'N' => 2,
        'D' => 3,
        'C' => 4,
        'Q' => 5,
        'E' => 6,
        'G' => 7,
        'H' => 8,
        'I' => 9,
        'L' => 10,
        'K' => 11,
        'M' => 12,
        'F' => 13,
        'P' => 14,
        'S' => 15,
        'T' => 16,
        'W' => 17,
        'Y' => 18,
        'V' => 19,
        'B' => 3,  // Asx -> D
        'Z' => 6,  // Glx -> E
        'J' => 10, // Xle -> L
        'U' => 4,  // Sec -> C
        'O' => 11, // Pyl -> K
        'X' => X_CODE,
        '-' | '.' => GAP_CODE,
        _ => return None,
    })
}

/// The compressed amino-acid alphabets used for k-mer counting (Edgar
/// 2004): the identity mapping, which ClustalLite's fast distances use,
/// and Dayhoff-6, which the k-mer rank and MuscleLite use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompressedAlphabet {
    /// Identity mapping: all 20 residues kept distinct (plus X).
    Identity,
    /// Dayhoff's six chemical groups: `AGPST / C / DENQ / FWY / HKR / ILMV`.
    /// This is the default alphabet for the k-mer rank, matching MUSCLE's
    /// `kmer6_6` distance.
    Dayhoff6,
}

impl CompressedAlphabet {
    /// Group strings in canonical letter space; each group index is the
    /// compressed symbol.
    fn groups(self) -> &'static [&'static str] {
        match self {
            CompressedAlphabet::Identity => &[
                "A", "R", "N", "D", "C", "Q", "E", "G", "H", "I", "L", "K", "M", "F", "P", "S",
                "T", "W", "Y", "V",
            ],
            CompressedAlphabet::Dayhoff6 => &["AGPST", "C", "DENQ", "FWY", "HKR", "ILMV"],
        }
    }

    /// The mapping table for this alphabet: `table[code] = symbol` for
    /// `code` in `0..=20`. `X` always maps to its own extra symbol so that
    /// unknown residues never spuriously match.
    pub fn table(self) -> [u8; CODE_COUNT] {
        let groups = self.groups();
        let mut table = [0u8; CODE_COUNT];
        for (symbol, group) in groups.iter().enumerate() {
            for ch in group.chars() {
                let code = char_to_code(ch).expect("group letters are canonical");
                table[code as usize] = symbol as u8;
            }
        }
        // X gets a dedicated symbol after all groups.
        table[X_CODE as usize] = groups.len() as u8;
        table
    }

    /// Number of symbols (including the dedicated `X` symbol).
    pub fn symbol_count(self) -> usize {
        self.groups().len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_canonical_letters() {
        for code in 0u8..20 {
            let c = code_to_char(code);
            assert_eq!(char_to_code(c), Some(code), "letter {c}");
        }
    }

    #[test]
    fn gap_and_x_round_trip() {
        assert_eq!(char_to_code('-'), Some(GAP_CODE));
        assert_eq!(char_to_code('.'), Some(GAP_CODE));
        assert_eq!(code_to_char(GAP_CODE), '-');
        assert_eq!(char_to_code('X'), Some(X_CODE));
        assert_eq!(code_to_char(X_CODE), 'X');
    }

    #[test]
    fn lowercase_accepted() {
        assert_eq!(char_to_code('a'), Some(0));
        assert_eq!(char_to_code('v'), Some(19));
    }

    #[test]
    fn ambiguity_codes_resolve() {
        assert_eq!(char_to_code('B'), char_to_code('D'));
        assert_eq!(char_to_code('Z'), char_to_code('E'));
        assert_eq!(char_to_code('J'), char_to_code('L'));
        assert_eq!(char_to_code('U'), char_to_code('C'));
        assert_eq!(char_to_code('O'), char_to_code('K'));
    }

    #[test]
    fn junk_rejected() {
        assert_eq!(char_to_code('1'), None);
        assert_eq!(char_to_code('*'), None);
        assert_eq!(char_to_code(' '), None);
    }

    #[test]
    fn every_alphabet_covers_all_residues() {
        for alpha in [CompressedAlphabet::Identity, CompressedAlphabet::Dayhoff6] {
            let table = alpha.table();
            let n = alpha.symbol_count();
            for code in 0..=X_CODE {
                assert!(
                    (table[code as usize] as usize) < n,
                    "{:?} leaves code {code} out of range",
                    alpha
                );
            }
            // Every symbol except possibly X's must actually be used.
            let mut used = vec![false; n];
            for code in 0..=X_CODE {
                used[table[code as usize] as usize] = true;
            }
            assert!(used.iter().all(|&u| u), "{alpha:?} has unused symbols");
        }
    }

    #[test]
    fn x_never_shares_a_symbol() {
        for alpha in [CompressedAlphabet::Identity, CompressedAlphabet::Dayhoff6] {
            let table = alpha.table();
            let x_sym = table[X_CODE as usize];
            for code in 0..20u8 {
                assert_ne!(table[code as usize], x_sym, "{alpha:?} merges X with {code}");
            }
        }
    }

    #[test]
    fn dayhoff_groups_match_publication() {
        let t = CompressedAlphabet::Dayhoff6.table();
        // A,G,P,S,T together
        let g = t[char_to_code('A').unwrap() as usize];
        for c in "GPST".chars() {
            assert_eq!(t[char_to_code(c).unwrap() as usize], g);
        }
        // C alone
        let c_sym = t[char_to_code('C').unwrap() as usize];
        for code in 0..20u8 {
            if code != char_to_code('C').unwrap() {
                assert_ne!(t[code as usize], c_sym);
            }
        }
    }

    #[test]
    fn identity_is_injective() {
        let t = CompressedAlphabet::Identity.table();
        let mut seen = std::collections::HashSet::new();
        for code in 0..20u8 {
            assert!(seen.insert(t[code as usize]));
        }
    }
}
