//! Homomorphic aggregation as a fold: every CKKS aggregate in the
//! repo — in-process, networked, dense or bit-interleaved — is one
//! accumulator ciphertext per model chunk, a modular add per accepted
//! upload, and one finalizer when the round closes.
//!
//! Uploads enter either as owned ciphertexts ([`StreamingAggregator::
//! fold`], the in-process path behind [`ServerRound::aggregate_ckks`])
//! or zero-copy as views over their wire bytes
//! ([`StreamingAggregator::fold_upload`], via [`CkksContext::fold_view`],
//! the networked server's path as each frame arrives). Both share the
//! same acceptance checks. Two finalizers close the round:
//!
//! * [`StreamingAggregator::finish`] applies the paper's Eq. 2,
//!   `HomMul(Σᵢ Enc(LMᵢ), 1/P)`: one `mul_scalar(·, 1/P)` per chunk. Per
//!   residue that is `e·(Σᵢ xᵢ) mod q` with `e = round(Δ/P)`, which by
//!   ring distributivity equals the scale-then-sum `Σᵢ (e·xᵢ) mod q`
//!   bit for bit. Modular addition is exactly associative and
//!   commutative, so the result is also independent of arrival order
//!   and parallelism degree (locked in by tests/parallel_determinism.rs
//!   against a scale-then-sum oracle).
//! * [`StreamingAggregator::finish_sum`] returns the raw sum, the
//!   lane-safe finalizer for bit-interleaved uploads: the mean is
//!   recovered after decryption from the in-band contributor counter.
//!
//! Only uniform-weight rules fold ([`Aggregation::FedAvg`],
//! [`Aggregation::FedProx`]). [`Aggregation::FedNova`] weights each
//! client by its step count, unknown until the round closes, so
//! [`StreamingAggregator::new`] rejects it: FedNova is plaintext-only.
//! The aggregator holds exactly one accumulator ciphertext per chunk,
//! so server memory is O(1) in client count.
//!
//! [`ServerRound::aggregate_ckks`]: crate::round::ServerRound::aggregate_ckks

use std::sync::atomic::{AtomicU64, Ordering};

use rhychee_fhe::ckks::{CkksCiphertext, CkksContext, CtView};
use rhychee_fhe::FheError;
use rhychee_telemetry as telemetry;

use crate::config::Aggregation;
use crate::error::FlError;

/// Process-wide bytes held by live streaming accumulators, feeding the
/// `core.stream_accum` entry of the memory breakdown. Charged when an
/// aggregator materializes its per-chunk sums, released when they are
/// handed out or dropped.
static ACCUM_BYTES: AtomicU64 = AtomicU64::new(0);

/// Bytes currently held by live [`StreamingAggregator`] accumulators.
pub fn accumulator_bytes() -> u64 {
    ACCUM_BYTES.load(Ordering::Relaxed)
}

/// The CKKS aggregator: one accumulator ciphertext per model chunk, a
/// fold per accepted upload, one finalizer at close.
///
/// Acceptance semantics mirror [`ServerRound::accept`]: wrong-round and
/// duplicate uploads are rejected (`Ok(false)`, the caller NACKs them)
/// without touching the accumulator, and a fold that succeeded stays in
/// the sum even if its client later disconnects.
///
/// [`ServerRound::accept`]: crate::round::ServerRound::accept
#[derive(Debug)]
pub struct StreamingAggregator {
    round: usize,
    acc: Vec<CkksCiphertext>,
    client_ids: Vec<usize>,
}

impl StreamingAggregator {
    /// Creates an empty aggregator for `round`.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for [`Aggregation::FedNova`],
    /// whose per-client weights are unknown until every step count is
    /// in; FedNova runs only on plaintext models.
    pub fn new(round: usize, aggregation: Aggregation) -> Result<Self, FlError> {
        if matches!(aggregation, Aggregation::FedNova) {
            return Err(FlError::InvalidConfig(
                "FedNova weights depend on step counts unknown until round close, so encrypted \
                 aggregation cannot apply them; FedNova is plaintext-only"
                    .into(),
            ));
        }
        telemetry::mem::register_source("core.stream_accum", accumulator_bytes);
        Ok(StreamingAggregator { round, acc: Vec::new(), client_ids: Vec::new() })
    }

    /// Heap bytes this aggregator's accumulator ciphertexts hold — the
    /// O(1)-in-client-count resident cost of aggregation.
    pub fn heap_bytes(&self) -> u64 {
        self.acc.iter().map(CkksCiphertext::heap_bytes).sum()
    }

    /// The round this aggregator folds for.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Uploads folded into the sum so far; a fold is never un-counted
    /// by a later disconnect.
    pub fn received(&self) -> usize {
        self.client_ids.len()
    }

    /// Ids of the clients whose uploads were folded, in arrival order.
    pub fn client_ids(&self) -> &[usize] {
        &self.client_ids
    }

    /// Folds one client's upload (one view per model chunk) into the
    /// running sum, zero-copy from the wire bytes.
    ///
    /// Returns `Ok(false)` — a NACK, accumulator untouched — for a
    /// wrong-round upload, a duplicate client id, an empty or
    /// wrong-chunk-count payload, or chunks incompatible with the
    /// accumulator (level/scale/domain). Every chunk is checked *before*
    /// any chunk folds, so a rejected upload can never leave the sum
    /// half-updated. Chunks fold in parallel at the context's
    /// [`Parallelism`](rhychee_par::Parallelism); each chunk owns its
    /// accumulator slot, so the result is degree-independent.
    ///
    /// # Errors
    ///
    /// This method itself never errors; the `Result` keeps the
    /// signature open for future invariant checks that would need
    /// [`FlError::StreamingAbort`].
    pub fn fold_upload(
        &mut self,
        ctx: &CkksContext,
        client_id: usize,
        round: usize,
        views: &[CtView<'_>],
    ) -> Result<bool, FlError> {
        Ok(self.fold_chunks(ctx, client_id, round, views))
    }

    /// [`StreamingAggregator::fold_upload`] for an upload already held
    /// as owned ciphertexts (one per model chunk): the same acceptance
    /// checks, then `acc += ct` per chunk. The ciphertexts are only
    /// read, never cloned.
    ///
    /// # Errors
    ///
    /// Never errors, exactly as [`StreamingAggregator::fold_upload`].
    pub fn fold(
        &mut self,
        ctx: &CkksContext,
        client_id: usize,
        round: usize,
        cts: &[CkksCiphertext],
    ) -> Result<bool, FlError> {
        Ok(self.fold_chunks(ctx, client_id, round, cts))
    }

    /// The shared body of both folds; returns whether the upload was
    /// folded.
    fn fold_chunks<C: Chunk>(
        &mut self,
        ctx: &CkksContext,
        client_id: usize,
        round: usize,
        chunks: &[C],
    ) -> bool {
        if round != self.round || self.client_ids.contains(&client_id) || chunks.is_empty() {
            return false;
        }
        if self.acc.is_empty() {
            // The first accepted upload defines the model shape; its own
            // all-zero accumulators are compatible by construction.
            self.acc = chunks.iter().map(|c| c.zero(ctx)).collect();
            ACCUM_BYTES.fetch_add(self.heap_bytes(), Ordering::Relaxed);
        } else if chunks.len() != self.acc.len()
            || self.acc.iter().zip(chunks).any(|(acc, c)| c.check(ctx, acc).is_err())
        {
            return false;
        }
        rhychee_par::for_each_mut(ctx.parallelism(), &mut self.acc, |i, acc| {
            chunks[i].fold_into(ctx, acc).expect("chunks validated before folding");
        });
        self.client_ids.push(client_id);
        telemetry::count("fl.agg.folds", 1);
        true
    }

    /// Closes the round with the uniform weight `1/P`: one plaintext
    /// multiply per chunk of the summed ciphertexts — the paper's
    /// `HomMul(Σᵢ Enc(LMᵢ), 1/P)` (Eq. 2).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::StreamingAbort`] when no upload was ever
    /// folded (callers enforce quorum before closing, so this is an
    /// invariant breach, not a recoverable state).
    pub fn finish(self, ctx: &CkksContext) -> Result<Vec<CkksCiphertext>, FlError> {
        self.check_folded()?;
        let w = 1.0 / self.client_ids.len() as f64;
        Ok(rhychee_par::map(ctx.parallelism(), self.acc.len(), |i| ctx.mul_scalar(&self.acc[i], w)))
    }

    /// Closes the round *without* the `1/P` plaintext multiply,
    /// returning the raw encrypted sum — the finalizer for
    /// bit-interleaved uploads, whose packed lanes a `mul_scalar` would
    /// smear across boundaries. The contributor count rides in-band
    /// (counter lane), so decryption recovers the mean on its own.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::StreamingAbort`] when no upload was ever
    /// folded, exactly as [`StreamingAggregator::finish`].
    pub fn finish_sum(mut self) -> Result<Vec<CkksCiphertext>, FlError> {
        self.check_folded()?;
        ACCUM_BYTES.fetch_sub(self.heap_bytes(), Ordering::Relaxed);
        Ok(std::mem::take(&mut self.acc))
    }

    fn check_folded(&self) -> Result<(), FlError> {
        if self.client_ids.is_empty() {
            return Err(FlError::StreamingAbort(
                "closing a streamed round that folded no uploads".into(),
            ));
        }
        Ok(())
    }
}

/// One chunk of an upload in either form the aggregator folds: a view
/// over its wire bytes, or an owned ciphertext.
trait Chunk: Sync {
    /// An all-zero accumulator this chunk can fold into.
    fn zero(&self, ctx: &CkksContext) -> CkksCiphertext;
    /// Whether this chunk can fold into `acc`.
    fn check(&self, ctx: &CkksContext, acc: &CkksCiphertext) -> Result<(), FheError>;
    /// `acc += self`.
    fn fold_into(&self, ctx: &CkksContext, acc: &mut CkksCiphertext) -> Result<(), FheError>;
}

impl Chunk for CtView<'_> {
    fn zero(&self, ctx: &CkksContext) -> CkksCiphertext {
        ctx.accumulator_for(self)
    }
    fn check(&self, ctx: &CkksContext, acc: &CkksCiphertext) -> Result<(), FheError> {
        ctx.check_view(acc, self)
    }
    fn fold_into(&self, ctx: &CkksContext, acc: &mut CkksCiphertext) -> Result<(), FheError> {
        ctx.fold_view(acc, self)
    }
}

impl Chunk for CkksCiphertext {
    fn zero(&self, ctx: &CkksContext) -> CkksCiphertext {
        ctx.zero_like(self)
    }
    fn check(&self, ctx: &CkksContext, acc: &CkksCiphertext) -> Result<(), FheError> {
        ctx.check_compatible(acc, self)
    }
    fn fold_into(&self, ctx: &CkksContext, acc: &mut CkksCiphertext) -> Result<(), FheError> {
        ctx.add_assign(acc, self)
    }
}

impl Drop for StreamingAggregator {
    fn drop(&mut self) {
        // The accumulator shape is fixed at first fold, so the bytes
        // charged there are exactly what is released here (nothing,
        // once `finish_sum` has handed the accumulator out).
        ACCUM_BYTES.fetch_sub(self.heap_bytes(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rhychee_fhe::params::CkksParams;
    use rhychee_par::Parallelism;

    use crate::packing::{self, PackingConfig};

    use super::*;

    /// Per-client serialized chunk blobs (outer: client, inner: chunk).
    type Blobs = Vec<Vec<Vec<u8>>>;

    /// Encrypts `clients` random models (two chunks each) and returns
    /// `(ctx, per-client serialized chunk blobs, per-client ciphertexts)`.
    fn encrypted_uploads(
        clients: usize,
        par: Parallelism,
    ) -> (CkksContext, Blobs, Vec<Vec<CkksCiphertext>>) {
        let ctx = CkksContext::with_parallelism(CkksParams::toy(), par).expect("params");
        let mut rng = StdRng::seed_from_u64(99);
        let (_, pk) = ctx.generate_keys(&mut rng);
        let num_params = ctx.slot_count() + 7; // force two chunks
        let dense = PackingConfig::dense();
        let mut blobs = Vec::new();
        let mut models = Vec::new();
        for c in 0..clients {
            let mut crng = StdRng::seed_from_u64(1000 + c as u64);
            let flat: Vec<f32> = (0..num_params).map(|_| crng.gen_range(-1.0..1.0)).collect();
            let cts =
                packing::encrypt_model_with(&ctx, &pk, &flat, &dense, &mut crng).expect("encrypt");
            blobs.push(cts.iter().map(|ct| ctx.serialize(ct)).collect());
            models.push(cts);
        }
        (ctx, blobs, models)
    }

    /// Independent scale-then-sum reference for Eq. 2: each upload is
    /// multiplied by `1/P` first, then the products are added in
    /// client-id order — the opposite order of operations to the fold.
    fn scale_then_sum(ctx: &CkksContext, models: &[Vec<CkksCiphertext>]) -> Vec<CkksCiphertext> {
        let w = 1.0 / models.len() as f64;
        (0..models[0].len())
            .map(|chunk| {
                let mut acc = ctx.mul_scalar(&models[0][chunk], w);
                for m in &models[1..] {
                    ctx.add_assign(&mut acc, &ctx.mul_scalar(&m[chunk], w)).expect("add");
                }
                acc
            })
            .collect()
    }

    fn views<'a>(ctx: &CkksContext, blobs: &'a [Vec<u8>]) -> Vec<CtView<'a>> {
        blobs.iter().map(|b| ctx.view_serialized(b).expect("view")).collect()
    }

    #[test]
    fn finish_sum_preserves_interleaved_lanes() {
        // Fold bit-interleaved uploads and close with `finish_sum`: the
        // raw encrypted sum must decrypt to the exact per-coordinate
        // mean — the `1/P` multiply of `finish` would smear lanes.
        let ctx = CkksContext::new(CkksParams::toy()).expect("params");
        let mut rng = StdRng::seed_from_u64(77);
        let (sk, pk) = ctx.generate_keys(&mut rng);
        let p = 3;
        let cfg = PackingConfig::interleaved(8, 1.0, p);
        let num_params = 2 * ctx.slot_count(); // multiple chunks
        let mut agg = StreamingAggregator::new(0, Aggregation::FedAvg).expect("fedavg");
        let mut plain: Vec<Vec<f32>> = Vec::new();
        for c in 0..p {
            let mut crng = StdRng::seed_from_u64(500 + c as u64);
            let flat: Vec<f32> = (0..num_params).map(|_| crng.gen_range(-1.0..1.0)).collect();
            let cts =
                packing::encrypt_model_with(&ctx, &pk, &flat, &cfg, &mut crng).expect("encrypt");
            let blobs: Vec<Vec<u8>> = cts.iter().map(|ct| ctx.serialize(ct)).collect();
            assert!(agg.fold_upload(&ctx, c, 0, &views(&ctx, &blobs)).expect("fold"));
            plain.push(flat);
        }
        let sum = agg.finish_sum().expect("finish");
        let back = packing::decrypt_model_with(&ctx, &sk, &sum, num_params, &cfg).expect("decrypt");
        let step = 1.0f32 / 127.0;
        for i in 0..num_params {
            let mean: f32 = plain.iter().map(|m| m[i]).sum::<f32>() / p as f32;
            assert!((back[i] - mean).abs() <= step, "param {i}: {} vs {mean}", back[i]);
        }
    }

    #[test]
    fn streamed_and_owned_folds_match_scale_then_sum_across_orders() {
        let (ctx, blobs, models) = encrypted_uploads(4, Parallelism::Fixed(1));
        let oracle: Vec<Vec<u8>> =
            scale_then_sum(&ctx, &models).iter().map(|ct| ctx.serialize(ct)).collect();

        for order in [[0usize, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0]] {
            let mut streamed = StreamingAggregator::new(0, Aggregation::FedAvg).expect("fedavg");
            let mut owned = StreamingAggregator::new(0, Aggregation::FedAvg).expect("fedavg");
            for &c in &order {
                assert!(streamed.fold_upload(&ctx, c, 0, &views(&ctx, &blobs[c])).expect("fold"));
                assert!(owned.fold(&ctx, c, 0, &models[c]).expect("fold"));
            }
            assert_eq!(streamed.received(), 4);
            for (agg, path) in [(streamed, "fold_upload"), (owned, "fold")] {
                let bytes: Vec<Vec<u8>> =
                    agg.finish(&ctx).expect("finish").iter().map(|ct| ctx.serialize(ct)).collect();
                assert_eq!(bytes, oracle, "{path} in order {order:?} diverged from scale-then-sum");
            }
        }
    }

    #[test]
    fn rejects_wrong_round_duplicates_and_shape_mismatches() {
        let (ctx, blobs, models) = encrypted_uploads(2, Parallelism::Fixed(1));
        let mut agg = StreamingAggregator::new(3, Aggregation::FedProx { mu: 0.1 }).expect("prox");
        let views = views(&ctx, &blobs[0]);
        assert!(!agg.fold_upload(&ctx, 0, 2, &views).expect("wrong round"), "wrong round NACKs");
        assert!(agg.fold_upload(&ctx, 0, 3, &views).expect("fold"));
        assert!(!agg.fold_upload(&ctx, 0, 3, &views).expect("dup"), "duplicate NACKs");
        // Wrong chunk count: one view instead of two.
        assert!(!agg.fold_upload(&ctx, 1, 3, &views[..1]).expect("short"), "short payload NACKs");
        assert!(!agg.fold_upload(&ctx, 1, 3, &[]).expect("empty"), "empty payload NACKs");
        // The owned fold shares every check: duplicate, short, and a
        // resident (evaluation-domain) upload against the coefficient-
        // domain accumulator the canonical views shaped.
        assert!(!agg.fold(&ctx, 0, 3, &models[0]).expect("dup"), "duplicate NACKs");
        assert!(!agg.fold(&ctx, 1, 3, &models[1][..1]).expect("short"), "short payload NACKs");
        assert!(!agg.fold(&ctx, 1, 3, &models[1]).expect("domain"), "domain mismatch NACKs");
        assert_eq!(agg.received(), 1);
        assert_eq!(agg.client_ids(), &[0]);
    }

    #[test]
    fn fednova_cannot_stream() {
        let err = StreamingAggregator::new(0, Aggregation::FedNova).expect_err("rejected");
        assert!(matches!(err, FlError::InvalidConfig(_)));
        assert!(StreamingAggregator::new(0, Aggregation::FedAvg).is_ok());
    }

    #[test]
    fn finishing_an_empty_round_aborts() {
        let ctx = CkksContext::new(CkksParams::toy()).expect("params");
        let agg = StreamingAggregator::new(0, Aggregation::FedAvg).expect("fedavg");
        let err = agg.finish(&ctx).expect_err("no uploads");
        assert!(matches!(err, FlError::StreamingAbort(_)));
        assert!(err.to_string().contains("streaming aggregation aborted"));
        let agg = StreamingAggregator::new(0, Aggregation::FedAvg).expect("fedavg");
        assert!(matches!(agg.finish_sum(), Err(FlError::StreamingAbort(_))));
    }

    #[test]
    fn accumulator_bytes_track_aggregator_lifetime() {
        let (ctx, blobs, _) = encrypted_uploads(1, Parallelism::Fixed(1));
        let mut agg = StreamingAggregator::new(0, Aggregation::FedAvg).expect("fedavg");
        assert_eq!(agg.heap_bytes(), 0, "no accumulator before the first fold");
        assert!(agg.fold_upload(&ctx, 0, 0, &views(&ctx, &blobs[0])).expect("fold"));
        let held = agg.heap_bytes();
        assert!(held > 0, "materialized accumulator holds heap bytes");
        // The global counter is Σ bytes of live aggregators, so while
        // ours is alive it must cover at least our contribution — true
        // even with sibling tests charging/releasing concurrently.
        let charged = accumulator_bytes();
        assert!(charged >= held, "global counter covers this aggregator: {charged} < {held}");
    }
}
