//! K-mer profiles, the fractional-common-k-mer similarity and the k-mer
//! rank of Sample-Align-D.
//!
//! The paper (following Edgar 2004) measures the relatedness of two
//! sequences `x_i`, `x_j` by the fraction of k-mers they share:
//!
//! ```text
//! F(x_i, x_j) = Σ_τ min(n_{x_i}(τ), n_{x_j}(τ)) / (min(|x_i|, |x_j|) − k + 1)
//! ```
//!
//! where `τ` ranges over k-mers in a (possibly compressed) alphabet and
//! `n_x(τ)` counts occurrences. The paper calls this quantity the *k-mer
//! distance* even though it is a similarity; we expose it as
//! [`KmerProfile::similarity`].
//!
//! The **k-mer rank** of a sequence against a set is
//! `R_i = log(0.1 + D_i)` with `D_i` the average of the pairwise measure
//! over the set, computed by [`RankTransform::PaperLog`] exactly as
//! printed. The printed constants cannot be the ones the paper ran: its
//! Table 1 ranks lie in [0, 1.46], while `ln(0.1 + D)` on `D ∈ [0, 1]`
//! spans [−2.30, 0.095]. So the ranks here are negative, and the Table 1
//! claim in `BENCH_paper.json` records both sets of values.

use crate::alphabet::CompressedAlphabet;
use crate::sequence::Sequence;
use crate::work::Work;
use serde::{Deserialize, Serialize};

/// A sparse, sorted k-mer count profile for one sequence.
///
/// Entries are `(packed_kmer, count)` sorted by `packed_kmer`, so pairwise
/// similarity is a linear merge of two sorted lists.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KmerProfile {
    k: usize,
    alphabet: CompressedAlphabet,
    entries: Vec<(u32, u16)>,
    /// Total number of k-mers in the sequence (`len − k + 1`).
    total: u32,
}

impl KmerProfile {
    /// Build a profile. Returns `None` when the sequence is shorter than
    /// `k`.
    ///
    /// # Panics
    /// Panics if the packed k-mer space `alphabet.symbol_count()^k` does not
    /// fit in `u32` (choose a smaller `k` or a more compressed alphabet).
    pub fn build(seq: &Sequence, k: usize, alphabet: CompressedAlphabet) -> Option<Self> {
        assert!(k >= 1, "k must be at least 1");
        let s = alphabet.symbol_count() as u64;
        let space = s.checked_pow(k as u32).expect("alphabet^k overflows u64");
        assert!(space <= u32::MAX as u64 + 1, "alphabet^k must fit in u32");
        let codes = seq.codes();
        if codes.len() < k {
            return None;
        }
        let table = alphabet.table();
        let mut packed: Vec<u32> = Vec::with_capacity(codes.len() - k + 1);
        // Rolling pack: kmer = kmer*s + sym (mod s^k).
        let mut roll: u64 = 0;
        for (i, &code) in codes.iter().enumerate() {
            let sym = table[code as usize] as u64;
            roll = (roll * s + sym) % space;
            if i + 1 >= k {
                packed.push(roll as u32);
            }
        }
        packed.sort_unstable();
        let mut entries: Vec<(u32, u16)> = Vec::with_capacity(packed.len());
        for &p in &packed {
            match entries.last_mut() {
                Some((last, count)) if *last == p => *count = count.saturating_add(1),
                _ => entries.push((p, 1)),
            }
        }
        Some(KmerProfile { k, alphabet, entries, total: packed.len() as u32 })
    }

    /// Total number of k-mers (`len − k + 1`).
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Fractional common k-mer count `F` (see module docs), in `[0, 1]`.
    ///
    /// # Panics
    /// Panics (debug) if the profiles use different `k`/alphabets.
    pub fn similarity(&self, other: &KmerProfile) -> f64 {
        let mut scratch = Work::ZERO;
        self.similarity_counting(other, &mut scratch)
    }

    /// [`Self::similarity`] with work accounting: one `kmer_op` per sparse
    /// entry visited in the merge.
    pub fn similarity_counting(&self, other: &KmerProfile, work: &mut Work) -> f64 {
        debug_assert_eq!(self.k, other.k, "profiles must share k");
        debug_assert_eq!(self.alphabet, other.alphabet, "profiles must share alphabet");
        let mut shared: u64 = 0;
        let (a, b) = (&self.entries, &other.entries);
        let (mut i, mut j) = (0usize, 0usize);
        // Branch-free merge step: a three-way compare mispredicts on
        // nearly every entry, which also makes its speed depend on where
        // the loop lands in the binary.
        while i < a.len() && j < b.len() {
            let ((ka, ca), (kb, cb)) = (a[i], b[j]);
            shared += u64::from(ka == kb) * u64::from(ca.min(cb));
            i += usize::from(ka <= kb);
            j += usize::from(kb <= ka);
        }
        work.kmer_ops += (a.len() + b.len()) as u64;
        let denom = self.total.min(other.total) as f64;
        shared as f64 / denom
    }
}

/// The transform applied to the average pairwise measure `D` to obtain the
/// scalar rank `R`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum RankTransform {
    /// The formula exactly as printed in the paper: `R = ln(0.1 + D)`.
    #[default]
    PaperLog,
}

impl RankTransform {
    /// Apply the transform to an average measure `D ∈ [0, 1]`.
    #[inline]
    pub fn apply(self, d: f64) -> f64 {
        match self {
            RankTransform::PaperLog => (0.1 + d).ln(),
        }
    }
}

/// Average pairwise similarity of `profile` against `others` (the paper's
/// `D_i`). Profiles equal to `profile` itself (self-comparison) are
/// included, matching the paper's `D_i = (1/N) Σ_j r_{i,j}` which sums over
/// all `j`.
pub fn average_measure(profile: &KmerProfile, others: &[KmerProfile], work: &mut Work) -> f64 {
    if others.is_empty() {
        return 0.0;
    }
    let sum: f64 = others.iter().map(|o| profile.similarity_counting(o, work)).sum();
    sum / others.len() as f64
}

/// The k-mer rank of `profile` against `others`: `transform(D_i)`.
pub fn kmer_rank(
    profile: &KmerProfile,
    others: &[KmerProfile],
    transform: RankTransform,
    work: &mut Work,
) -> f64 {
    transform.apply(average_measure(profile, others, work))
}

/// Compute the rank of every profile against the full set (the paper's
/// *centralized* rank). `O(N² · L)` — this is exactly the cost the
/// globalized scheme avoids.
pub fn centralized_ranks(
    profiles: &[KmerProfile],
    transform: RankTransform,
    work: &mut Work,
) -> Vec<f64> {
    profiles.iter().map(|p| kmer_rank(p, profiles, transform, work)).collect()
}

/// Compute the rank of every profile against a sample (the paper's
/// *globalized* rank). `O(N · |sample| · L)`.
pub fn globalized_ranks(
    profiles: &[KmerProfile],
    sample: &[KmerProfile],
    transform: RankTransform,
    work: &mut Work,
) -> Vec<f64> {
    profiles.iter().map(|p| kmer_rank(p, sample, transform, work)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(text: &str) -> Sequence {
        Sequence::from_str("t", text).unwrap()
    }

    fn prof(text: &str, k: usize) -> KmerProfile {
        KmerProfile::build(&seq(text), k, CompressedAlphabet::Identity).unwrap()
    }

    #[test]
    fn identical_sequences_have_similarity_one() {
        let a = prof("MKVLAWGKVL", 3);
        assert!((a.similarity(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_sequences_have_similarity_zero() {
        let a = prof("AAAAAA", 3);
        let b = prof("WWWWWW", 3);
        assert_eq!(a.similarity(&b), 0.0);
    }

    #[test]
    fn similarity_is_symmetric() {
        let a = prof("MKVLAWGKVLMM", 3);
        let b = prof("MKILAWGKIL", 3);
        assert!((a.similarity(&b) - b.similarity(&a)).abs() < 1e-12);
    }

    #[test]
    fn similarity_bounded() {
        let a = prof("MKVLAW", 2);
        let b = prof("MKVLAWMKVLAW", 2);
        let f = a.similarity(&b);
        assert!((0.0..=1.0).contains(&f), "f={f}");
    }

    #[test]
    fn counts_respected() {
        // "AAAA" has 3 overlapping "AA" 2-mers; "AA" has 1.
        let a = prof("AAAA", 2);
        let b = prof("AAKK", 2);
        // shared AA kmers = min(3,1)=1; denom = min(3,3)=3
        assert!((a.similarity(&b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn too_short_returns_none() {
        assert!(KmerProfile::build(&seq("MK"), 3, CompressedAlphabet::Identity).is_none());
    }

    #[test]
    fn compressed_alphabet_merges_groups() {
        // I and V are in the same Dayhoff-6 group, so swapping them is
        // invisible to the compressed profile.
        let a = KmerProfile::build(&seq("MKVLAW"), 3, CompressedAlphabet::Dayhoff6).unwrap();
        let b = KmerProfile::build(&seq("MKILAW"), 3, CompressedAlphabet::Dayhoff6).unwrap();
        assert!((a.similarity(&b) - 1.0).abs() < 1e-12);
        // But not to the identity profile.
        let a20 = prof("MKVLAW", 3);
        let b20 = prof("MKILAW", 3);
        assert!(a20.similarity(&b20) < 1.0);
    }

    #[test]
    fn x_does_not_match_anything() {
        let a = KmerProfile::build(&seq("XXXXXX"), 3, CompressedAlphabet::Dayhoff6).unwrap();
        let b = KmerProfile::build(&seq("AAAAAA"), 3, CompressedAlphabet::Dayhoff6).unwrap();
        assert_eq!(a.similarity(&b), 0.0);
        // X matches X though (same unknown symbol).
        assert_eq!(a.similarity(&a), 1.0);
    }

    #[test]
    fn rank_transforms() {
        assert!((RankTransform::PaperLog.apply(0.9) - 1.0f64.ln()).abs() < 1e-12);
        assert!((RankTransform::PaperLog.apply(0.0) - (0.1f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn rank_orders_by_similarity_to_set() {
        // Sequence close to the set should have higher D (and higher
        // PaperLog rank) than an outlier.
        let set: Vec<KmerProfile> =
            ["MKVLAWGKVL", "MKVLAWGKIL", "MKVLCWGKVL"].iter().map(|t| prof(t, 3)).collect();
        let insider = prof("MKVLAWGKVL", 3);
        let outsider = prof("PPPPPPPPPP", 3);
        let mut w = Work::ZERO;
        let ri = kmer_rank(&insider, &set, RankTransform::PaperLog, &mut w);
        let ro = kmer_rank(&outsider, &set, RankTransform::PaperLog, &mut w);
        assert!(ri > ro, "insider {ri} should outrank outsider {ro}");
        assert!(w.kmer_ops > 0);
    }

    #[test]
    fn centralized_vs_globalized_consistency() {
        // When the sample *is* the full set, globalized == centralized.
        let profiles: Vec<KmerProfile> =
            ["MKVLAWGKVL", "MKILAWGKIL", "PPWPPWPPWW"].iter().map(|t| prof(t, 2)).collect();
        let mut w = Work::ZERO;
        let c = centralized_ranks(&profiles, RankTransform::PaperLog, &mut w);
        let g = globalized_ranks(&profiles, &profiles, RankTransform::PaperLog, &mut w);
        for (a, b) in c.iter().zip(&g) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn rolling_pack_matches_naive() {
        // Cross-check the rolling packing against a naive recomputation.
        let s = seq("MKVLAWGKVLMKIL");
        let k = 3;
        let alpha = CompressedAlphabet::Dayhoff6;
        let prof_fast = KmerProfile::build(&s, k, alpha).unwrap();
        // Naive: pack each window independently.
        let table = alpha.table();
        let size = alpha.symbol_count() as u32;
        let codes = s.codes();
        let mut packed: Vec<u32> = Vec::new();
        for w in codes.windows(k) {
            let mut v: u32 = 0;
            for &c in w {
                v = v * size + table[c as usize] as u32;
            }
            packed.push(v);
        }
        packed.sort_unstable();
        let mut entries: Vec<(u32, u16)> = Vec::new();
        for p in packed {
            match entries.last_mut() {
                Some((last, n)) if *last == p => *n += 1,
                _ => entries.push((p, 1)),
            }
        }
        assert_eq!(prof_fast.entries, entries);
    }
}
