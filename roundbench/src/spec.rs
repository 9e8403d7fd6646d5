//! The three workloads and their sizes.
//!
//! Each workload stresses a different layer, so that an optimization of
//! one layer has a workload where it dominates and one where it does
//! not; `BENCHMARK.json` records why each was chosen.

use rhychee_core::packing::PackingConfig;
use rhychee_core::{FlConfig, Framework, Parallelism};
use rhychee_data::{DatasetKind, SyntheticConfig, TrainTest};
use rhychee_fhe::params::CkksParams;

/// Lane width of the bit-interleaved workload.
pub const INTERLEAVED_BITS: u32 = 10;
/// Clip range of the bit-interleaved workload. Uploads are not
/// normalized: with per-round L2 normalization accuracy falls from
/// about 0.8 after round 1 to 0.4–0.7 by round 6, depending on the seed
/// (DESIGN.md §5b), so no accuracy figure would repeat across seeds.
/// Raw class vectors stayed below 130 in absolute value over 6 rounds
/// on the seeds tried; 512 leaves 4× headroom at a step of about 1.
pub const INTERLEAVED_CLIP: f32 = 512.0;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["ckks3_canonical", "ckks4_hdc_interleaved", "net_seeded_stream"];

/// How a workload moves models between clients and server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In-process `Framework::hdc_encrypted`: dense slots, public-key
    /// encryption, batch homomorphic FedAvg.
    Dense,
    /// In-process `Framework::hdc_encrypted_interleaved`: lane-packed
    /// slots, homomorphic sum, mean after decryption.
    Interleaved,
    /// Loopback `FlServer` + `FlClient`s: seeded symmetric uploads,
    /// canonical broadcasts, streaming fold.
    Net,
}

/// Full sizes for the benchmark of record; tiny ones for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One workload at one size.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub params: CkksParams,
    pub hd_dim: usize,
    pub clients: usize,
    pub train_samples: usize,
    pub test_samples: usize,
    /// Rounds per federation; accuracy is read after the last one.
    pub rounds: usize,
}

impl Spec {
    /// The named workload, or `None` for an unknown name.
    pub fn get(name: &str, size: Size) -> Option<Spec> {
        let (kind, params, hd_dim, clients, train_samples, rounds) = match name {
            "ckks3_canonical" => (Kind::Dense, CkksParams::ckks3(), 2_000, 10, 1_000, 8),
            "ckks4_hdc_interleaved" => {
                (Kind::Interleaved, CkksParams::ckks4(), 5_000, 10, 2_000, 6)
            }
            "net_seeded_stream" => (Kind::Net, CkksParams::ckks3(), 5_000, 2, 1_000, 6),
            _ => return None,
        };
        let name = WORKLOADS.into_iter().find(|w| *w == name)?;
        let spec =
            Spec { name, kind, params, hd_dim, clients, train_samples, test_samples: 500, rounds };
        Some(match size {
            Size::Full => spec,
            // Same prime chain, so the tiny run takes the same decode
            // path (multi-prime CRT or the one-prime shortcut).
            Size::Tiny => Spec {
                params: CkksParams { n: 512, ..spec.params.clone() },
                hd_dim: 256,
                clients: spec.clients.min(3),
                train_samples: 120,
                test_samples: 60,
                rounds: 2,
                ..spec
            },
        })
    }

    /// The federation configuration for `seed` at degree `par`.
    pub fn fl_config(&self, seed: u64, par: Parallelism) -> FlConfig {
        FlConfig::builder()
            .clients(self.clients)
            .rounds(self.rounds)
            .hd_dim(self.hd_dim)
            .parallelism(par)
            .seed(seed)
            .build()
            .expect("workload configs are valid")
    }

    /// The workload's dataset, generated from `seed`.
    pub fn data(&self, seed: u64) -> TrainTest {
        SyntheticConfig {
            kind: DatasetKind::Mnist,
            train_samples: self.train_samples,
            test_samples: self.test_samples,
        }
        .generate(seed)
        .expect("workload sample counts cover every class")
    }

    /// The slot layout clients and server agree on.
    pub fn packing(&self) -> PackingConfig {
        match self.kind {
            Kind::Interleaved => {
                PackingConfig::interleaved(INTERLEAVED_BITS, INTERLEAVED_CLIP, self.clients)
            }
            Kind::Dense | Kind::Net => PackingConfig::dense(),
        }
    }

    /// Largest per-coordinate difference allowed between the decrypted
    /// aggregate and the plaintext FedAvg of the same updates: CKKS
    /// noise for dense slots, plus one quantization step when lanes are
    /// interleaved.
    pub fn aggregate_bound(&self, max_abs: f32) -> f64 {
        let ckks = 1e-4 * f64::from(max_abs.max(1.0));
        match self.kind {
            Kind::Interleaved => {
                let qmax = f64::from((1u32 << (INTERLEAVED_BITS - 1)) - 1);
                ckks + f64::from(INTERLEAVED_CLIP) / qmax
            }
            Kind::Dense | Kind::Net => ckks,
        }
    }

    /// Builds the in-process federation (`Dense` or `Interleaved`).
    ///
    /// # Panics
    ///
    /// Panics for `Kind::Net`, which has no in-process framework.
    pub fn framework(&self, data: &TrainTest, seed: u64, par: Parallelism) -> Framework {
        let cfg = self.fl_config(seed, par);
        let fw = match self.kind {
            Kind::Dense => Framework::hdc_encrypted(cfg, data, self.params.clone()),
            Kind::Interleaved => Framework::hdc_encrypted_interleaved(
                cfg,
                data,
                self.params.clone(),
                INTERLEAVED_BITS,
                INTERLEAVED_CLIP,
            ),
            Kind::Net => panic!("net workload has no in-process framework"),
        };
        fw.expect("workload federations build")
    }
}
