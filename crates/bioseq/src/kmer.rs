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
//!
//! The batch callers ([`centralized_ranks`], [`globalized_ranks`] and the
//! guide-tree distance matrix) score pairs through one kernel,
//! [`Scatter`]: one profile's counts are scattered into a dense `u16`
//! table indexed by packed k-mer, and every other profile costs one table
//! lookup per entry. When the k-mer space `symbol_count^k` exceeds 2²⁰
//! (say `--kmer 8` over Dayhoff-6), the kernel falls back to the
//! sorted-list merge of [`KmerProfile::similarity_counting`].
//! The shared count is an integer sum, so both paths give the same bits.
//!
//! [`Work::kmer_ops`] is nominal on every path: `|a| + |b|` sparse entries
//! per ordered pair scored, whatever the kernel actually touched.

use crate::alphabet::CompressedAlphabet;
use crate::sequence::Sequence;
use crate::work::Work;

/// A sparse, sorted k-mer count profile for one sequence.
///
/// Entries are `(packed_kmer, count)` sorted by `packed_kmer`: one pair
/// is a linear merge of two sorted lists, and batches of pairs go through
/// [`Scatter`].
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// [`Self::similarity`] with work accounting: the nominal `|a| + |b|`
    /// `kmer_op`s of [`Work::kmer_ops`], whatever the merge visited.
    pub fn similarity_counting(&self, other: &KmerProfile, work: &mut Work) -> f64 {
        work.kmer_ops += (self.entries.len() + other.entries.len()) as u64;
        self.fraction(self.shared_merge(other), other)
    }

    /// `Σ_τ min(n_self(τ), n_other(τ))` by a merge of the two sorted lists.
    fn shared_merge(&self, other: &KmerProfile) -> u64 {
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
        shared
    }

    /// `F` from a shared count: `shared / min(total_self, total_other)`.
    /// Symmetric in its profiles, so either order gives the same bits.
    fn fraction(&self, shared: u64, other: &KmerProfile) -> f64 {
        shared as f64 / self.total.min(other.total) as f64
    }
}

/// The largest k-mer space [`Scatter`] holds as a dense table (2 MiB);
/// above it the kernel merges sorted lists instead. Dayhoff-6 with k = 6
/// is 117 649 entries; Identity with k = 3 is 9 261.
const DENSE_SPACE_MAX: u64 = 1 << 20;

/// The pair kernel: load one profile `a`, score any number of profiles
/// against it, then unload it.
///
/// Loading scatters `a`'s counts into a dense `u16` table indexed by
/// packed k-mer, so a lookup costs one table read per entry of the other
/// profile and no branch on key order. Unloading zeroes only `a`'s own
/// keys, so one table serves every load. A profile whose k-mer space
/// exceeds 2²⁰ entries skips the table, and its lookups merge sorted
/// lists. Both paths give the bits of
/// [`KmerProfile::similarity_counting`].
#[derive(Debug, Default)]
pub struct Scatter<'p> {
    table: Vec<u16>,
    loaded: Option<&'p KmerProfile>,
    /// Whether the loaded profile sits in `table`.
    dense: bool,
}

impl<'p> Scatter<'p> {
    /// An empty kernel; the table is allocated on the first dense load.
    pub fn new() -> Self {
        Self::default()
    }

    /// Load `a`, the profile every following lookup is scored against.
    ///
    /// # Panics
    /// Panics if a profile is already loaded.
    pub fn load(&mut self, a: &'p KmerProfile) {
        assert!(self.loaded.is_none(), "unload the loaded profile first");
        let space = (a.alphabet.symbol_count() as u64).pow(a.k as u32);
        self.dense = space <= DENSE_SPACE_MAX;
        if self.dense {
            if self.table.len() as u64 != space {
                self.table = vec![0; space as usize];
            }
            for &(key, count) in &a.entries {
                self.table[key as usize] = count;
            }
        }
        self.loaded = Some(a);
    }

    /// The shared k-mer count `Σ_τ min(n_a(τ), n_b(τ))` of the loaded `a`
    /// and `b`. Charges no work.
    ///
    /// # Panics
    /// Panics if no profile is loaded; panics (debug) if `a` and `b` use
    /// different `k`/alphabets.
    fn shared(&self, b: &KmerProfile) -> u64 {
        let a = self.loaded.expect("load a profile before scoring against it");
        if !self.dense {
            return a.shared_merge(b);
        }
        debug_assert_eq!(a.k, b.k, "profiles must share k");
        debug_assert_eq!(a.alphabet, b.alphabet, "profiles must share alphabet");
        b.entries.iter().map(|&(key, count)| u64::from(self.table[key as usize].min(count))).sum()
    }

    /// `F(a, b)` for the loaded `a`, charging the nominal `|a| + |b|`
    /// `kmer_op`s: bit-identical to `a.similarity_counting(b, work)`.
    ///
    /// # Panics
    /// Panics if no profile is loaded; panics (debug) if `a` and `b` use
    /// different `k`/alphabets.
    pub fn similarity_counting(&self, b: &KmerProfile, work: &mut Work) -> f64 {
        let a = self.loaded.expect("load a profile before scoring against it");
        work.kmer_ops += (a.entries.len() + b.entries.len()) as u64;
        a.fraction(self.shared(b), b)
    }

    /// Zero the loaded profile's keys and forget it.
    ///
    /// # Panics
    /// Panics if no profile is loaded.
    pub fn unload(&mut self) {
        let a = self.loaded.take().expect("no profile is loaded");
        if self.dense {
            for &(key, _) in &a.entries {
                self.table[key as usize] = 0;
            }
        }
    }
}

/// The transform applied to the average pairwise measure `D` to obtain the
/// scalar rank `R`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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

/// Compute the rank of every profile against the full set (the paper's
/// *centralized* rank). `O(N² · L)` — this is exactly the cost the
/// globalized scheme avoids.
///
/// Each unordered pair, self-pairs included, is scored once into a packed
/// upper triangle of shared counts (`4·N(N+1)/2` bytes). Row `i` then
/// sums `F(i, j)` over `j = 0..N` in order (the paper's
/// `D_i = (1/N) Σ_j r_{i,j}`), so every rank has the bits of the
/// all-ordered-pairs sum. `kmer_ops` is charged for all `N²` ordered
/// pairs: `2·N·Σ|entries|`.
pub fn centralized_ranks(
    profiles: &[KmerProfile],
    transform: RankTransform,
    work: &mut Work,
) -> Vec<f64> {
    let w = profiles.len();
    let entries: usize = profiles.iter().map(|p| p.entries.len()).sum();
    work.kmer_ops += 2 * (w * entries) as u64;
    // Pair (i, j), i ≤ j, sits at row_start(i) + j − i.
    let row_start = |i: usize| i * w - i * i.saturating_sub(1) / 2;
    let mut upper = vec![0u32; w * (w + 1) / 2];
    let mut scatter = Scatter::new();
    for (i, a) in profiles.iter().enumerate() {
        scatter.load(a);
        for (slot, b) in upper[row_start(i)..].iter_mut().zip(&profiles[i..]) {
            // At most `min(total_a, total_b)`, a `u32`.
            *slot = scatter.shared(b) as u32;
        }
        scatter.unload();
    }
    profiles
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let mut sum = 0.0;
            for (j, b) in profiles.iter().enumerate() {
                let shared = upper[row_start(i.min(j)) + i.abs_diff(j)];
                sum += a.fraction(u64::from(shared), b);
            }
            transform.apply(sum / w as f64)
        })
        .collect()
}

/// Compute the rank of every profile against a sample (the paper's
/// *globalized* rank). `O(N · |sample| · L)`. Each profile is loaded into
/// one [`Scatter`] and scored against the sample in sample order. An
/// empty sample ranks every profile at `transform(0)`.
pub fn globalized_ranks(
    profiles: &[KmerProfile],
    sample: &[KmerProfile],
    transform: RankTransform,
    work: &mut Work,
) -> Vec<f64> {
    if sample.is_empty() {
        return vec![transform.apply(0.0); profiles.len()];
    }
    let mut scatter = Scatter::new();
    profiles
        .iter()
        .map(|p| {
            scatter.load(p);
            let mut sum = 0.0;
            for s in sample {
                sum += scatter.similarity_counting(s, work);
            }
            scatter.unload();
            transform.apply(sum / sample.len() as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        let probes = [prof("MKVLAWGKVL", 3), prof("PPPPPPPPPP", 3)];
        let mut w = Work::ZERO;
        let r = globalized_ranks(&probes, &set, RankTransform::PaperLog, &mut w);
        assert!(r[0] > r[1], "insider {} should outrank outsider {}", r[0], r[1]);
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
        assert_eq!(c, g);
    }

    /// One dense shape per alphabet and one shape past `DENSE_SPACE_MAX`,
    /// which takes the merge fallback.
    const SHAPES: [(CompressedAlphabet, usize); 3] = [
        (CompressedAlphabet::Dayhoff6, 6),
        (CompressedAlphabet::Identity, 3),
        (CompressedAlphabet::Identity, 6),
    ];

    /// The ranks the batch kernels must reproduce bit for bit: every
    /// ordered pair through the merge, summed in `j` order.
    fn reference_ranks(profiles: &[KmerProfile], set: &[KmerProfile], work: &mut Work) -> Vec<u64> {
        profiles
            .iter()
            .map(|p| {
                let sum: f64 = set.iter().map(|o| p.similarity_counting(o, work)).sum();
                RankTransform::PaperLog.apply(sum / set.len() as f64).to_bits()
            })
            .collect()
    }

    fn bits(ranks: Vec<f64>) -> Vec<u64> {
        ranks.into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn shapes_cover_both_kernel_paths() {
        let space = |(a, k): (CompressedAlphabet, usize)| (a.symbol_count() as u64).pow(k as u32);
        assert_eq!(SHAPES.map(|s| space(s) <= DENSE_SPACE_MAX), [true, true, false]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Centralized and globalized ranks equal the pairwise reference
        /// by `to_bits`, and charge the nominal `|a| + |b|` per ordered
        /// pair. Rows draw from the first `letters` amino acids, so small
        /// pools share many k-mers and repeat them within a row.
        #[test]
        fn batch_ranks_match_the_pairwise_sum_bit_for_bit(
            rows in prop::collection::vec(prop::collection::vec(0usize..20, 1..90), 1..24),
            letters in 2usize..21,
            sample_step in 1usize..5,
        ) {
            const AMINO: &[u8] = b"ACDEFGHIKLMNPQRSTVWY";
            let texts: Vec<String> = rows
                .iter()
                .map(|r| r.iter().map(|&c| AMINO[c % letters] as char).collect())
                .collect();
            for (alphabet, k) in SHAPES {
                let profiles: Vec<KmerProfile> =
                    texts.iter().filter_map(|t| KmerProfile::build(&seq(t), k, alphabet)).collect();
                let entries: u64 = profiles.iter().map(|p| p.entries.len() as u64).sum();
                let w = profiles.len() as u64;

                let (mut work, mut reference) = (Work::ZERO, Work::ZERO);
                let central = centralized_ranks(&profiles, RankTransform::PaperLog, &mut work);
                let expected = reference_ranks(&profiles, &profiles, &mut reference);
                prop_assert_eq!(bits(central), expected);
                prop_assert_eq!(work.kmer_ops, 2 * w * entries);
                prop_assert_eq!(work, reference);

                let sample: Vec<KmerProfile> =
                    profiles.iter().step_by(sample_step).cloned().collect();
                let (mut work, mut reference) = (Work::ZERO, Work::ZERO);
                let global =
                    globalized_ranks(&profiles, &sample, RankTransform::PaperLog, &mut work);
                prop_assert_eq!(bits(global), reference_ranks(&profiles, &sample, &mut reference));
                prop_assert_eq!(work, reference);
            }
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
