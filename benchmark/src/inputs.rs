//! Every input the benchmark feeds to `sad`, generated from `--seed`.
//!
//! `sad` only ever sees the files written here. The same seed gives the
//! same bytes; different seeds give unrelated families.

use bioseq::{fasta, Msa, Sequence};
use rosegen::{Family, FamilyConfig, ReadSet, ReadSimConfig};

/// A rose-style family shape plus the figures that make seeds comparable.
///
/// A coalescent tree rescaled to a fixed height gives families whose
/// alignment width and mean identity swing widely from seed to seed
/// (width 311..422 columns and identity 0.51..0.88 over sixteen draws of
/// the 800x300 shape), and `sad`'s wall time follows the width
/// (0.62 s..1.06 s on those draws). A benchmark run must not be slower
/// because its seed drew a harder family, so each seed draws
/// `candidates` families and keeps the one closest to the shape's nominal
/// width and identity: the medians of 200 draws, measured when the
/// benchmark was written.
#[derive(Debug, Clone, Copy)]
pub struct FamilyShape {
    pub n: usize,
    pub len: usize,
    pub len_sd: f64,
    /// rosegen's divergence knob: larger is more divergent.
    pub relatedness: f64,
    pub candidates: u64,
    pub nominal_cols: f64,
    pub nominal_identity: f64,
}

impl FamilyShape {
    /// The same shape with a tenth of the sequences (`--quick`).
    pub fn tenth(self) -> FamilyShape {
        FamilyShape { n: (self.n / 10).max(8), ..self }
    }

    pub fn describe(&self) -> String {
        format!(
            "{} seqs x len {}+-{} relatedness {}",
            self.n, self.len, self.len_sd, self.relatedness
        )
    }
}

/// An independent generator seed for stream `stream` of benchmark seed
/// `seed` (SplitMix64's finaliser, so nearby seeds do not share streams).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mean pairwise identity of a reference alignment over an evenly strided
/// sample of at most ~2000 row pairs (`Msa::average_identity` visits all
/// 320 000 pairs of an 800-row family, for each of 32 candidates).
pub fn mean_identity(reference: &Msa) -> f64 {
    let n = reference.num_rows();
    let step = (n / 64).max(1);
    let (mut sum, mut pairs) = (0.0, 0usize);
    for i in (0..n).step_by(step) {
        for j in (i + 1..n).step_by(step) {
            sum += bioseq::msa::row_identity(reference.row(i), reference.row(j));
            pairs += 1;
        }
    }
    if pairs == 0 {
        1.0
    } else {
        sum / pairs as f64
    }
}

/// Draw the family of `shape` for `seed` (see [`FamilyShape`]).
pub fn draw_family(shape: &FamilyShape, seed: u64, id_prefix: &str) -> Family {
    let mut best: Option<(f64, Family)> = None;
    for candidate in 0..shape.candidates.max(1) {
        let fam = Family::generate(&FamilyConfig {
            n_seqs: shape.n,
            avg_len: shape.len,
            len_sd: shape.len_sd,
            relatedness: shape.relatedness,
            seed: sub_seed(seed, candidate),
            id_prefix: id_prefix.to_string(),
            ..Default::default()
        });
        let off = (fam.reference.num_cols() as f64 / shape.nominal_cols - 1.0).abs()
            + (mean_identity(&fam.reference) / shape.nominal_identity - 1.0).abs();
        if best.as_ref().is_none_or(|(least, _)| off < *least) {
            best = Some((off, fam));
        }
    }
    best.expect("at least one candidate").1
}

/// What an alignment of the input is scored against.
pub enum Truth {
    /// rosegen's reference alignment of a family.
    Family(Msa),
    /// The sparse per-read truth of a simulated read set.
    Reads(ReadSet),
}

/// One FASTA input with its truth.
pub struct Input {
    pub seqs: Vec<Sequence>,
    pub fasta: String,
    pub truth: Truth,
    /// Shape as generated, for the report stamp.
    pub shape: String,
}

impl Input {
    pub fn family(shape: &FamilyShape, seed: u64) -> Input {
        let fam = draw_family(shape, seed, "seq");
        Input {
            fasta: fasta::write(&fam.seqs),
            shape: format!(
                "{} ({} reference columns, identity {:.3})",
                shape.describe(),
                fam.reference.num_cols(),
                mean_identity(&fam.reference)
            ),
            seqs: fam.seqs,
            truth: Truth::Family(fam.reference),
        }
    }

    /// `reads` simulated reads (default `ReadSimConfig`: length 90+-10,
    /// 1 % homopolymer-biased indel errors) cut from the family `sources`.
    pub fn reads(sources: &FamilyShape, reads: usize, seed: u64) -> Input {
        let fam = draw_family(sources, seed, "src");
        let set = ReadSet::from_family(
            &fam,
            &ReadSimConfig {
                total_reads: Some(reads),
                seed: sub_seed(seed, 1 << 32),
                ..Default::default()
            },
        );
        Input {
            fasta: fasta::write(&set.reads),
            shape: format!("{reads} reads of ~90 from {}", sources.describe()),
            seqs: set.reads.clone(),
            truth: Truth::Reads(set),
        }
    }
}

/// One submission of the `serve_mix` session.
pub struct ServeJob {
    pub id: String,
    pub priority: i64,
    /// Index into [`ServeMix::inputs`].
    pub input: usize,
    /// Whether this submission repeats an input the same connection has
    /// already had answered, so the server must answer it from its cache.
    pub duplicate: bool,
}

/// The traffic of one `serve_mix` session: per client connection, the
/// jobs it submits one after another.
pub struct ServeMix {
    pub inputs: Vec<Input>,
    pub clients: Vec<Vec<ServeJob>>,
    pub shape: String,
}

impl ServeMix {
    /// `jobs` submissions over `clients` closed-loop connections: a
    /// quarter are `large` families and the rest `small`; a fifth repeat
    /// an earlier input of the same connection under a new job id (the
    /// same connection, so that the first answer has arrived and the
    /// repeat must hit the cache); priorities alternate between 0 and 5.
    pub fn generate(
        small: &FamilyShape,
        large: &FamilyShape,
        jobs: usize,
        clients: usize,
        seed: u64,
    ) -> ServeMix {
        let mut inputs = Vec::new();
        let mut plans: Vec<Vec<ServeJob>> = (0..clients).map(|_| Vec::new()).collect();
        for j in 0..jobs {
            let plan = &mut plans[j % clients];
            let turn = j / clients;
            let duplicate = turn % 5 == 4;
            let input = if duplicate {
                // An earlier first-time submission of this connection.
                let earlier: Vec<usize> =
                    plan.iter().filter(|p| !p.duplicate).map(|p| p.input).collect();
                earlier[sub_seed(seed, j as u64) as usize % earlier.len()]
            } else {
                let shape = if turn % 4 == 3 { large } else { small };
                inputs.push(Input::family(shape, sub_seed(seed, (1 << 40) + j as u64)));
                inputs.len() - 1
            };
            plan.push(ServeJob {
                id: format!("job{j:04}"),
                priority: if turn.is_multiple_of(2) { 0 } else { 5 },
                input,
                duplicate,
            });
        }
        ServeMix {
            inputs,
            clients: plans,
            shape: format!(
                "{jobs} jobs over {clients} connections: 3/4 {}, 1/4 {}, 1/5 repeats",
                small.describe(),
                large.describe()
            ),
        }
    }

    pub fn jobs(&self) -> usize {
        self.clients.iter().map(Vec::len).sum()
    }

    /// Input sequences summed over every submission.
    pub fn sequences(&self) -> usize {
        self.clients.iter().flatten().map(|j| self.inputs[j.input].seqs.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: FamilyShape = FamilyShape {
        n: 12,
        len: 60,
        len_sd: 5.0,
        relatedness: 400.0,
        candidates: 4,
        nominal_cols: 64.0,
        nominal_identity: 0.75,
    };

    #[test]
    fn the_same_seed_gives_the_same_bytes_and_another_seed_other_bytes() {
        let a = Input::family(&SMALL, 1);
        assert_eq!(a.fasta, Input::family(&SMALL, 1).fasta);
        assert_ne!(a.fasta, Input::family(&SMALL, 2).fasta);
        assert_eq!(a.seqs.len(), 12);
    }

    #[test]
    fn selection_keeps_the_candidate_nearest_the_nominal_shape() {
        let picked = draw_family(&SMALL, 3, "s");
        let off = |f: &Family| {
            (f.reference.num_cols() as f64 / SMALL.nominal_cols - 1.0).abs()
                + (mean_identity(&f.reference) / SMALL.nominal_identity - 1.0).abs()
        };
        for c in 0..SMALL.candidates {
            let cand = Family::generate(&FamilyConfig {
                n_seqs: SMALL.n,
                avg_len: SMALL.len,
                len_sd: SMALL.len_sd,
                relatedness: SMALL.relatedness,
                seed: sub_seed(3, c),
                id_prefix: "s".into(),
                ..Default::default()
            });
            assert!(off(&picked) <= off(&cand) + 1e-12);
        }
    }

    #[test]
    fn serve_mix_repeats_only_inputs_its_own_connection_already_sent() {
        let mix = ServeMix::generate(&SMALL, &SMALL, 40, 2, 9);
        assert_eq!(mix.jobs(), 40);
        let repeats = mix.clients.iter().flatten().filter(|j| j.duplicate).count();
        assert_eq!(repeats, 8);
        for plan in &mix.clients {
            for (at, job) in plan.iter().enumerate() {
                let earlier = plan[..at].iter().any(|p| p.input == job.input);
                assert_eq!(earlier, job.duplicate, "{}", job.id);
            }
        }
        let ids: std::collections::HashSet<&str> =
            mix.clients.iter().flatten().map(|j| j.id.as_str()).collect();
        assert_eq!(ids.len(), 40);
    }

    #[test]
    fn reads_come_with_their_truth() {
        let input = Input::reads(&FamilyShape { n: 2, len: 200, ..SMALL }, 50, 4);
        assert_eq!(input.seqs.len(), 50);
        match &input.truth {
            Truth::Reads(set) => assert_eq!(set.len(), 50),
            Truth::Family(_) => panic!("reads carry read truth"),
        }
    }
}
