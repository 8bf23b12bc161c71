//! Distance matrices between sequences: fast k-mer distances (MUSCLE
//! stage 1), Kimura-corrected identity distances from an existing alignment
//! (MUSCLE stage 2), and full pairwise-alignment distances (CLUSTALW).

use crate::dp::{DpArena, DpOptions};
use crate::pairwise::alignment_distance_with;
use bioseq::kmer::{KmerProfile, Scatter};
use bioseq::msa::row_identity;
use bioseq::{pool, CompressedAlphabet, GapPenalties, Msa, Sequence, SubstMatrix, Work};
use phylo::DistMatrix;
use std::sync::Mutex;

/// Build k-mer profiles for a set of sequences. Sequences shorter than `k`
/// yield `None` (their distances default to the maximum, 1.0).
fn kmer_profiles(
    seqs: &[Sequence],
    k: usize,
    alphabet: CompressedAlphabet,
    work: &mut Work,
) -> Vec<Option<KmerProfile>> {
    let profiles = pool::map(
        seqs.len(),
        pool::cores(),
        || (),
        |i, _| KmerProfile::build(&seqs[i], k, alphabet),
    );
    work.seq_bytes += seqs.iter().map(|s| s.len() as u64).sum::<u64>();
    profiles
}

/// The strict lower triangle of an `n × n` matrix, row `i` filled by
/// `row(state, i, out, work)` with `d(i, 0..i)`, computed on the worker
/// pool with one `init()` state per worker. Row `i` costs `i` entries, so
/// rows are handed out longest first (task `t` is row `n − 1 − t`) and
/// the short tail evens out the workers' finishing times. Each task
/// writes its row in place; entries do not depend on which worker
/// computed them, and the rows' `Work` is summed.
fn lower_triangle<S>(
    n: usize,
    work: &mut Work,
    init: impl Fn() -> S + Sync,
    row: impl Fn(&mut S, usize, &mut [f64], &mut Work) + Sync,
) -> DistMatrix {
    let mut m = DistMatrix::zeros(n);
    let rows: Vec<Mutex<&mut [f64]>> = m.rows_mut().into_iter().map(Mutex::new).collect();
    let works = pool::map(n.saturating_sub(1), pool::cores(), init, |t, state| {
        let i = n - 1 - t;
        let mut w = Work::ZERO;
        row(state, i, &mut rows[i].lock().expect("row poisoned"), &mut w);
        w
    });
    drop(rows);
    *work += works.into_iter().sum::<Work>();
    m
}

/// Pairwise k-mer distance matrix (`1 − F`), `O(n²·L)`. Row `i` loads
/// sequence `i` into a [`Scatter`] (one per worker) and looks up every
/// `j < i` against it, charging the nominal `|a| + |b|` of
/// [`Work::kmer_ops`] per pair.
pub fn kmer_distance_matrix(
    seqs: &[Sequence],
    k: usize,
    alphabet: CompressedAlphabet,
    work: &mut Work,
) -> DistMatrix {
    let profiles = kmer_profiles(seqs, k, alphabet, work);
    lower_triangle(seqs.len(), work, Scatter::new, |scatter, i, out, w| {
        let Some(a) = &profiles[i] else { return out.fill(1.0) };
        scatter.load(a);
        for (d, b) in out.iter_mut().zip(&profiles[..i]) {
            *d = b.as_ref().map_or(1.0, |b| 1.0 - scatter.similarity_counting(b, w));
        }
        scatter.unload();
    })
}

/// Kimura (1983) correction of a fractional identity into an evolutionary
/// distance: `d = −ln(1 − D − D²/5)` for observed difference `D`, capped at
/// `MAX_KIMURA` for saturated pairs (MUSCLE's convention).
pub fn kimura_correction(fractional_identity: f64) -> f64 {
    /// Saturation cap for highly diverged pairs.
    const MAX_KIMURA: f64 = 10.0;
    let d = (1.0 - fractional_identity).clamp(0.0, 1.0);
    let arg = 1.0 - d - d * d / 5.0;
    if arg <= 1e-9 {
        MAX_KIMURA
    } else {
        (-arg.ln()).min(MAX_KIMURA)
    }
}

/// Kimura-corrected distance matrix from the pairwise identities of an
/// existing alignment (MUSCLE's improved stage-2 distance).
pub fn kimura_from_msa(msa: &Msa, work: &mut Work) -> DistMatrix {
    let n = msa.num_rows();
    let m = lower_triangle(
        n,
        work,
        || (),
        |_, i, out, _| {
            for (j, d) in out.iter_mut().enumerate() {
                *d = kimura_correction(row_identity(msa.row(i), msa.row(j)));
            }
        },
    );
    work.col_ops += (n * n / 2) as u64 * msa.num_cols() as u64;
    m
}

/// Full pairwise-global-alignment distance matrix (`1 − identity` after
/// Gotoh alignment) under explicit [`DpOptions`]. `O(n²·L²)` —
/// CLUSTALW's accurate-but-slow initial distances, only sensible for
/// small `n`. Each worker reuses its own [`DpArena`] across all of its
/// rows' pairwise alignments.
pub fn alignment_distance_matrix_with(
    seqs: &[Sequence],
    matrix: &SubstMatrix,
    gaps: GapPenalties,
    dp: impl Into<DpOptions>,
    work: &mut Work,
) -> DistMatrix {
    let dp = dp.into();
    lower_triangle(seqs.len(), work, DpArena::new, |arena, i, out, w| {
        for (j, d) in out.iter_mut().enumerate() {
            *d = alignment_distance_with(&seqs[i], &seqs[j], matrix, gaps, dp, arena, w);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::BandPolicy;
    use proptest::prelude::*;

    fn seqs(texts: &[&str]) -> Vec<Sequence> {
        texts
            .iter()
            .enumerate()
            .map(|(i, t)| Sequence::from_str(format!("s{i}"), t).unwrap())
            .collect()
    }

    #[test]
    fn kmer_matrix_zero_diag_like_behaviour() {
        let ss = seqs(&["MKVLAWGKVL", "MKVLAWGKVL", "PPPPGGPPPP"]);
        let mut w = Work::ZERO;
        let m = kmer_distance_matrix(&ss, 3, CompressedAlphabet::Identity, &mut w);
        assert!(m.get(0, 1) < 1e-12, "identical sequences at distance 0");
        assert!(m.get(0, 2) > 0.9, "unrelated sequences near distance 1");
        assert!(w.kmer_ops > 0);
    }

    #[test]
    fn kmer_matrix_symmetric_in_storage() {
        let ss = seqs(&["MKVLAW", "MKILAW", "MKILCW"]);
        let mut w = Work::ZERO;
        let m = kmer_distance_matrix(&ss, 2, CompressedAlphabet::Identity, &mut w);
        assert_eq!(m.get(0, 2), m.get(2, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every entry is `1 − similarity_counting` by `to_bits`, and the
        /// work is the sum of the pairs' nominal charges, on the dense
        /// shapes and on the merge fallback (Identity, k = 6), with more
        /// rows than workers and some rows too short to profile.
        #[test]
        fn kmer_matrix_matches_pairwise_similarity_bit_for_bit(
            rows in prop::collection::vec(prop::collection::vec(0usize..20, 2..80), 0..24),
            letters in 2usize..21,
        ) {
            const AMINO: &[u8] = b"ACDEFGHIKLMNPQRSTVWY";
            let texts: Vec<String> = (0..2 * pool::cores() + 3)
                .map(|i| match rows.get(i) {
                    Some(r) => r.iter().map(|&c| AMINO[c % letters] as char).collect(),
                    None => "MKVLAWGKVL".into(),
                })
                .collect();
            let ss = seqs(&texts.iter().map(String::as_str).collect::<Vec<_>>());
            let shapes = [
                (CompressedAlphabet::Dayhoff6, 6),
                (CompressedAlphabet::Identity, 3),
                (CompressedAlphabet::Identity, 6),
            ];
            for (alphabet, k) in shapes {
                let mut work = Work::ZERO;
                let m = kmer_distance_matrix(&ss, k, alphabet, &mut work);
                let profiles: Vec<_> = ss.iter().map(|s| KmerProfile::build(s, k, alphabet)).collect();
                let mut expected = Work { seq_bytes: work.seq_bytes, ..Work::ZERO };
                for i in 1..ss.len() {
                    for j in 0..i {
                        let d = match (&profiles[i], &profiles[j]) {
                            (Some(a), Some(b)) => 1.0 - a.similarity_counting(b, &mut expected),
                            _ => 1.0,
                        };
                        prop_assert_eq!(m.get(i, j).to_bits(), d.to_bits());
                    }
                }
                prop_assert_eq!(work, expected);
            }
        }
    }

    #[test]
    fn short_sequences_get_max_distance() {
        let ss = seqs(&["MK", "MKVLAWGKVL"]);
        let mut w = Work::ZERO;
        let m = kmer_distance_matrix(&ss, 6, CompressedAlphabet::Identity, &mut w);
        assert_eq!(m.get(0, 1), 1.0);
    }

    #[test]
    fn kimura_correction_properties() {
        assert_eq!(kimura_correction(1.0), 0.0);
        // Monotone decreasing in identity.
        let mut prev = kimura_correction(1.0);
        for id in [0.95, 0.9, 0.8, 0.7, 0.6, 0.5] {
            let d = kimura_correction(id);
            assert!(d > prev, "identity {id}");
            prev = d;
        }
        // Saturates at the cap for very low identity.
        assert_eq!(kimura_correction(0.0), 10.0);
        // For small distances, correction ≈ observed difference.
        let d = kimura_correction(0.99);
        assert!((d - 0.01).abs() < 1e-3, "d={d}");
    }

    #[test]
    fn kimura_matrix_from_msa() {
        let msa = bioseq::fasta::parse_alignment(">a\nMKVL\n>b\nMKVL\n>c\nWWWW\n").unwrap();
        let mut w = Work::ZERO;
        let m = kimura_from_msa(&msa, &mut w);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(0, 2), 10.0);
    }

    #[test]
    fn alignment_distance_matrix_small() {
        let ss = seqs(&["MKVLAW", "MKVLAW", "MKILAW"]);
        let mut w = Work::ZERO;
        let (matrix, gaps) = (SubstMatrix::blosum62(), GapPenalties::default());
        let m = alignment_distance_matrix_with(&ss, &matrix, gaps, BandPolicy::Full, &mut w);
        assert_eq!(m.get(0, 1), 0.0);
        assert!(m.get(0, 2) > 0.0 && m.get(0, 2) < 0.5);
        assert!(w.dp_cells > 0);
    }

    #[test]
    fn deterministic_under_parallelism() {
        let ss = seqs(&["MKVLAWGKVL", "MKILAWGKIL", "MKVLCWGKVL", "PPPPGGPPPP"]);
        let mut w1 = Work::ZERO;
        let mut w2 = Work::ZERO;
        let a = kmer_distance_matrix(&ss, 3, CompressedAlphabet::Dayhoff6, &mut w1);
        let b = kmer_distance_matrix(&ss, 3, CompressedAlphabet::Dayhoff6, &mut w2);
        assert_eq!(a, b);
        assert_eq!(w1, w2);
    }
}
