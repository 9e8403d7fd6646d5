//! End-to-end encrypted federated learning over a noisy channel
//! (paper §V-E).
//!
//! Every ciphertext is serialized, packetized, pushed through a
//! bit-flipping channel with detect-and-retransmit, and reassembled at
//! the other side. With CRC-32 the global model converges exactly as on
//! a clean link (undetected errors are ~1-in-3×10⁹ transmissions); with
//! detection disabled, corrupted ciphertexts decrypt to garbage and can
//! stall convergence — the failure mode the paper's analytical model
//! quantifies.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rhychee_telemetry as telemetry;

use rhychee_channel::crc::Detector;
use rhychee_channel::packet::{BitFlipChannel, PacketLink, TransferStats, PACKET_BITS};
use rhychee_data::TrainTest;
use rhychee_fhe::ckks::{CkksContext, CkksPublicKey, CkksSecretKey};
use rhychee_fhe::params::CkksParams;
use rhychee_hdc::model::{EncodedDataset, HdcModel};

use rhychee_data::partition::dirichlet_partition_indices;
use rhychee_hdc::encoding::{Encoder, RandomProjectionEncoder, RbfEncoder};

use crate::config::{Aggregation, EncoderKind, FlConfig};
use crate::error::FlError;
use crate::framework::{RoundReport, RunReport};
use crate::packing;
use crate::round::{ClientUpdate, ServerRound};

/// Channel configuration for a noisy federated run.
#[derive(Debug, Clone, Copy)]
pub struct NoisyChannelConfig {
    /// Bit error rate of the link (paper: 1e-3).
    pub ber: f64,
    /// Error-detection code, or `None` to deliver corrupted packets
    /// unchecked (ablation of §V-E).
    pub detector: Option<Detector>,
    /// Packet size in bits.
    pub packet_bits: usize,
}

impl Default for NoisyChannelConfig {
    fn default() -> Self {
        NoisyChannelConfig { ber: 1e-3, detector: Some(Detector::Crc32), packet_bits: PACKET_BITS }
    }
}

/// Aggregate channel statistics for a noisy run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChannelStats {
    /// Packets sent (first transmissions).
    pub packets: usize,
    /// Total transmissions including retransmissions.
    pub transmissions: usize,
    /// Retransmissions caused by detected errors.
    pub retransmissions: usize,
    /// Packets delivered with undetected corruption.
    pub undetected_errors: usize,
    /// Ciphertexts that failed to deserialize and were dropped
    /// (the sender's copy was reused, modeling an application-layer NACK).
    pub dropped_ciphertexts: usize,
}

impl ChannelStats {
    fn absorb(&mut self, s: TransferStats) {
        self.packets += s.packets;
        self.transmissions += s.transmissions;
        self.retransmissions += s.retransmissions;
        self.undetected_errors += s.undetected_errors;
    }
}

/// Encrypted HDC federated learning where every model transfer crosses a
/// noisy packet link.
///
/// # Examples
///
/// ```no_run
/// use rhychee_core::{FlConfig, NoisyChannelConfig, NoisyFederation};
/// use rhychee_data::{DatasetKind, SyntheticConfig};
/// use rhychee_fhe::params::CkksParams;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = SyntheticConfig::small(DatasetKind::Har).generate(1)?;
/// let config = FlConfig::builder().clients(4).rounds(3).hd_dim(256).build()?;
/// let mut fed = NoisyFederation::new(
///     config,
///     &data,
///     CkksParams::toy(),
///     NoisyChannelConfig::default(),
/// )?;
/// let (report, stats) = fed.run()?;
/// println!("accuracy {:.3}, retransmissions {}", report.final_accuracy, stats.retransmissions);
/// # Ok(())
/// # }
/// ```
pub struct NoisyFederation {
    config: FlConfig,
    channel: NoisyChannelConfig,
    ctx: CkksContext,
    sk: CkksSecretKey,
    pk: CkksPublicKey,
    clients: Vec<(EncodedDataset, HdcModel)>,
    test: EncodedDataset,
    global: Vec<f32>,
    classes: usize,
    rng: StdRng,
    stats: ChannelStats,
    next_round: usize,
}

impl NoisyFederation {
    /// Builds the noisy encrypted federation.
    ///
    /// # Errors
    ///
    /// Returns [`FlError`] on invalid configuration or parameters.
    pub fn new(
        config: FlConfig,
        data: &TrainTest,
        params: CkksParams,
        channel: NoisyChannelConfig,
    ) -> Result<Self, FlError> {
        config.validate()?;
        if data.train.len() < config.clients {
            return Err(FlError::DataError("fewer training samples than clients".into()));
        }
        let ctx = CkksContext::with_parallelism(params, config.parallelism)?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let (sk, pk) = ctx.generate_keys(&mut rng);

        let classes = data.train.num_classes();
        let feature_dim = data.train.feature_dim();
        let use_rbf = match config.encoder {
            EncoderKind::Rbf => true,
            EncoderKind::RandomProjection => false,
            EncoderKind::Auto => feature_dim == 784,
        };
        let (train_hv, test_hv) = if use_rbf {
            let enc = RbfEncoder::new(feature_dim, config.hd_dim, &mut rng);
            (
                enc.encode_batch(data.train.features(), config.parallelism),
                enc.encode_batch(data.test.features(), config.parallelism),
            )
        } else {
            let enc = RandomProjectionEncoder::new(feature_dim, config.hd_dim, &mut rng);
            (
                enc.encode_batch(data.train.features(), config.parallelism),
                enc.encode_batch(data.test.features(), config.parallelism),
            )
        };
        let test = EncodedDataset::new(test_hv, data.test.labels().to_vec());
        let clients = dirichlet_partition_indices(
            data.train.labels(),
            classes,
            config.clients,
            config.dirichlet_alpha,
            &mut rng,
        )
        .into_iter()
        .map(|idx| {
            let hvs = idx.iter().map(|&i| train_hv[i].clone()).collect();
            let labels = idx.iter().map(|&i| data.train.labels()[i]).collect();
            (EncodedDataset::new(hvs, labels), HdcModel::new(classes, config.hd_dim))
        })
        .collect();

        let global = vec![0.0f32; classes * config.hd_dim];
        Ok(NoisyFederation {
            config,
            channel,
            ctx,
            sk,
            pk,
            clients,
            test,
            global,
            classes,
            rng,
            stats: ChannelStats::default(),
            next_round: 0,
        })
    }

    /// Accuracy of the current global model.
    pub fn global_accuracy(&self) -> f64 {
        HdcModel::from_flat(&self.global, self.classes, self.config.hd_dim).accuracy(&self.test)
    }

    /// Accumulated channel statistics.
    pub fn channel_stats(&self) -> ChannelStats {
        self.stats
    }

    /// Sends serialized bytes across the noisy link (detect-and-
    /// retransmit when a detector is configured, raw corruption
    /// otherwise).
    fn send(&mut self, bytes: &[u8]) -> Vec<u8> {
        let _span = telemetry::span("channel_tx");
        match self.channel.detector {
            Some(det) => {
                let link = PacketLink::new(
                    BitFlipChannel::new(self.channel.ber),
                    det,
                    self.channel.packet_bits,
                );
                let (out, stats) = link.transfer(bytes, &mut self.rng);
                self.stats.absorb(stats);
                out
            }
            None => {
                let ch = BitFlipChannel::new(self.channel.ber);
                let (out, _) = ch.transmit(bytes, &mut self.rng);
                let n_packets = bytes.len().div_ceil(self.channel.packet_bits / 8);
                self.stats.packets += n_packets;
                self.stats.transmissions += n_packets;
                out
            }
        }
    }

    /// Sends one ciphertext across the link, returning what the receiver
    /// reconstructs.
    ///
    /// Payload corruption propagates into the crypto layer (it decrypts
    /// to garbage). Corruption of the small metadata header (levels /
    /// scale), which a real transport carries in its own checksummed
    /// header, is treated as an application-layer NACK: the transfer is
    /// counted as dropped and the sender's copy is reused.
    fn send_ciphertext(
        &mut self,
        ct: &rhychee_fhe::ckks::CkksCiphertext,
    ) -> rhychee_fhe::ckks::CkksCiphertext {
        let bytes = self.ctx.serialize(ct);
        let delivered = self.send(&bytes);
        match self.ctx.deserialize(&delivered) {
            Ok(received) => {
                let scale_ok = (received.scale() - ct.scale()).abs() <= ct.scale() * 1e-9;
                if received.levels() == ct.levels() && scale_ok {
                    return received;
                }
                self.stats.dropped_ciphertexts += 1;
                ct.clone()
            }
            Err(_) => {
                self.stats.dropped_ciphertexts += 1;
                ct.clone()
            }
        }
    }

    /// One aggregation round with every ciphertext crossing the channel.
    ///
    /// # Errors
    ///
    /// Propagates FHE failures.
    pub fn run_round(&mut self) -> Result<RoundReport, FlError> {
        let round = self.next_round;
        self.next_round += 1;
        let round_span = telemetry::span("round");

        // Local training (first round starts from the OnlineHD bundling
        // pass, as in the main Framework).
        let train_span = telemetry::span("local_train");
        let global = self.global.clone();
        let first_round = global.iter().all(|&v| v == 0.0);
        let mut local_models = Vec::with_capacity(self.clients.len());
        for (data, model) in &mut self.clients {
            model.load_flat(&global);
            if first_round {
                model.bundle(data);
            }
            for _ in 0..self.config.local_epochs {
                model.train_epoch(data, self.config.lr);
            }
            let mut out = model.clone();
            if self.config.normalize {
                out.normalize();
            }
            local_models.push(out.flatten());
        }
        let train_time = train_span.finish();

        // Upload: encrypt, serialize, transmit, deserialize at the
        // server. Encryption gets its own span per client so its time is
        // separable from the interleaved channel transfers.
        let mut encrypt_time = std::time::Duration::ZERO;
        let mut uploads = ServerRound::new(round, Aggregation::FedAvg);
        for (client_id, flat) in local_models.iter().enumerate() {
            let span = telemetry::span("encrypt");
            let cts = packing::encrypt_model_with(
                &self.ctx,
                &self.pk,
                flat,
                &packing::PackingConfig::dense(),
                &mut self.rng,
            )?;
            encrypt_time += span.finish();
            let mut client_cts = Vec::with_capacity(cts.len());
            for ct in &cts {
                let received_ct = self.send_ciphertext(ct);
                client_cts.push(received_ct);
            }
            uploads.accept(ClientUpdate { client_id, round, steps: 1, payload: client_cts });
        }

        // Homomorphic aggregation on the (possibly corrupted) uploads.
        let aggregate_span = telemetry::span("aggregate");
        let global_cts = uploads.aggregate_ckks(&self.ctx)?;
        let aggregate_time = aggregate_span.finish();

        // Download: the encrypted global model crosses the channel once
        // per client; one representative client's copy becomes the new
        // global state (all clients share the key and the same payload).
        let mut downloaded = Vec::with_capacity(global_cts.len());
        for ct in &global_cts {
            let bytes = self.ctx.serialize(ct);
            // Model the per-client downloads for the statistics.
            for _ in 1..self.config.clients {
                let _ = self.send(&bytes);
            }
            downloaded.push(self.send_ciphertext(ct));
        }
        let decrypt_span = telemetry::span("decrypt");
        self.global = packing::decrypt_model_with(
            &self.ctx,
            &self.sk,
            &downloaded,
            self.global.len(),
            &packing::PackingConfig::dense(),
        )?;
        let decrypt_time = decrypt_span.finish();

        let payload_bits = (self.ctx.serialize(&global_cts[0]).len() * 8 * global_cts.len()) as u64;
        round_span.finish();
        Ok(RoundReport {
            round,
            participants: self.config.clients,
            accuracy: self.global_accuracy(),
            upload_bits_per_client: payload_bits,
            download_bits_per_client: payload_bits,
            train_time,
            encrypt_time,
            aggregate_time,
            decrypt_time,
        })
    }

    /// Runs all rounds; returns the run report and channel statistics.
    ///
    /// # Errors
    ///
    /// Propagates the first failing round.
    pub fn run(&mut self) -> Result<(RunReport, ChannelStats), FlError> {
        let mut report = RunReport::default();
        for _ in 0..self.config.rounds {
            report.rounds.push(self.run_round()?);
        }
        report.final_accuracy = report.rounds.last().map_or(0.0, |r| r.accuracy);
        Ok((report, self.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhychee_data::{DatasetKind, SyntheticConfig};

    fn data() -> TrainTest {
        SyntheticConfig { kind: DatasetKind::Har, train_samples: 240, test_samples: 90 }
            .generate(21)
            .expect("generate")
    }

    fn config(rounds: usize) -> FlConfig {
        FlConfig::builder().clients(3).rounds(rounds).hd_dim(512).seed(4).build().expect("valid")
    }

    #[test]
    fn converges_over_noisy_channel_with_crc() {
        let mut fed = NoisyFederation::new(
            config(3),
            &data(),
            CkksParams::toy(),
            NoisyChannelConfig { ber: 1e-4, ..Default::default() },
        )
        .expect("build");
        let (report, stats) = fed.run().expect("run");
        assert!(report.final_accuracy > 0.7, "accuracy {}", report.final_accuracy);
        assert!(stats.retransmissions > 0, "noise must trigger retransmissions");
        assert_eq!(stats.undetected_errors, 0, "CRC-32 should catch everything at this scale");
    }

    #[test]
    fn clean_channel_needs_no_retransmissions() {
        let mut fed = NoisyFederation::new(
            config(2),
            &data(),
            CkksParams::toy(),
            NoisyChannelConfig { ber: 0.0, ..Default::default() },
        )
        .expect("build");
        let (report, stats) = fed.run().expect("run");
        assert_eq!(stats.retransmissions, 0);
        assert_eq!(stats.undetected_errors, 0);
        assert!(report.final_accuracy > 0.7);
    }

    #[test]
    fn unprotected_channel_corrupts_the_model() {
        // Without error detection at a harsh BER, ciphertext corruption
        // reaches the aggregate and destroys accuracy (paper §IV-C:
        // "a single bit error can disrupt model convergence").
        let mut clean = NoisyFederation::new(
            config(2),
            &data(),
            CkksParams::toy(),
            NoisyChannelConfig { ber: 0.0, detector: None, ..Default::default() },
        )
        .expect("build");
        let (clean_report, _) = clean.run().expect("run");

        let mut dirty = NoisyFederation::new(
            config(2),
            &data(),
            CkksParams::toy(),
            NoisyChannelConfig { ber: 1e-4, detector: None, ..Default::default() },
        )
        .expect("build");
        let (dirty_report, _) = dirty.run().expect("run");
        assert!(
            dirty_report.final_accuracy < clean_report.final_accuracy - 0.15,
            "unprotected noise should hurt: clean {} vs dirty {}",
            clean_report.final_accuracy,
            dirty_report.final_accuracy
        );
    }

    #[test]
    fn transmissions_track_two_way_traffic() {
        let mut fed = NoisyFederation::new(
            config(1),
            &data(),
            CkksParams::toy(),
            NoisyChannelConfig { ber: 0.0, ..Default::default() },
        )
        .expect("build");
        let (_, stats) = fed.run().expect("run");
        // Uploads: 3 clients × k ciphertexts; downloads: 3 clients × k.
        // Packets per ciphertext: ceil(bytes / 175).
        assert!(stats.packets > 0);
        assert_eq!(stats.transmissions, stats.packets, "no noise → one transmission each");
    }
}
