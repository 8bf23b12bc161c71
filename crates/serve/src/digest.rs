//! Content digests for inputs, outputs and configurations.
//!
//! The journal and the result cache both key on digests: the input digest
//! decides whether a submission is a duplicate, the config fingerprint
//! journaled with each accepted job decides on restart whether its result
//! was made under the server's current settings, and the output digest is
//! the BiG-SCAPE-style verify-before-trusting check — a journaled
//! `Finished` entry is only believed if the output file on disk still
//! hashes to the recorded value.
//!
//! FNV-1a (64-bit) is enough here: digests guard against truncation,
//! corruption and accidental collisions, not adversaries.

use sad_core::{Backend, SadConfig};

/// 64-bit FNV-1a over a byte stream.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The canonical textual form of a digest: 16 lowercase hex digits.
pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Digest of an input or output payload.
pub fn payload(text: &str) -> String {
    hex(fnv64(text.as_bytes()))
}

/// Fingerprint of the configuration a job runs under: every knob of the
/// [`SadConfig`] plus the backend and its decomposition width. Two jobs
/// with equal input digests and equal fingerprints are guaranteed the same
/// output bytes (the pipeline is deterministic), which is what licenses
/// warming the result cache from the journal on restart.
pub fn config_fingerprint(cfg: &SadConfig, backend: &Backend) -> String {
    hex(fnv64(format!("{cfg:?}|{}|{}", backend.name(), backend.width()).as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcluster::{CostModel, VirtualCluster};

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hex_is_fixed_width() {
        assert_eq!(hex(0), "0000000000000000");
        assert_eq!(hex(0xdead_beef), "00000000deadbeef");
        assert_eq!(payload("x").len(), 16);
    }

    #[test]
    fn fingerprint_separates_configs_and_backends() {
        let cfg = SadConfig::default();
        let seq = config_fingerprint(&cfg, &Backend::Sequential);
        assert_eq!(seq, config_fingerprint(&SadConfig::default(), &Backend::Sequential));
        assert_ne!(seq, config_fingerprint(&cfg.clone().with_kmer_k(5), &Backend::Sequential));
        assert_ne!(
            seq,
            config_fingerprint(&cfg.clone().with_fine_tune(false), &Backend::Sequential)
        );
        assert_ne!(seq, config_fingerprint(&cfg, &Backend::Rayon { threads: 2 }));
        let c2 = Backend::Distributed(VirtualCluster::new(2, CostModel::beowulf_2008()));
        let c4 = Backend::Distributed(VirtualCluster::new(4, CostModel::beowulf_2008()));
        assert_ne!(config_fingerprint(&cfg, &c2), config_fingerprint(&cfg, &c4));
    }

    #[test]
    fn fingerprint_covers_every_post_pr6_knob() {
        // The cache key must change whenever any knob added since the
        // serve daemon landed changes: `max_bucket`, `dp_kernel`, and the
        // trim stage and each of its fields. Configs
        // differing only in one of these must never share a cache key
        // (stale hits would silently serve wrong alignments).
        use align::DpKernel;
        use sad_core::TrimConfig;
        let base = SadConfig::default();
        // Pinned: a journal written before a config field changed shape
        // (`VerticalConfig` lost its knobs) must still warm the cache of a
        // default server.
        assert_eq!(config_fingerprint(&base, &Backend::Sequential), "4f83c08a50b7faad");
        let variants: Vec<SadConfig> = vec![
            base.clone(),
            base.clone().with_max_bucket(Some(128)),
            base.clone().with_max_bucket(Some(256)),
            base.clone().with_dp_kernel(DpKernel::Scalar),
            base.clone().with_trim(TrimConfig::default()),
            base.clone().with_trim(TrimConfig { max_dropped: Some(4), ..Default::default() }),
            base.clone().with_trim(TrimConfig { branch_bound: true, ..Default::default() }),
        ];
        let prints: Vec<String> =
            variants.iter().map(|c| config_fingerprint(c, &Backend::Sequential)).collect();
        for i in 0..prints.len() {
            for j in i + 1..prints.len() {
                assert_ne!(prints[i], prints[j], "variants {i} and {j} collide");
            }
        }
    }
}
