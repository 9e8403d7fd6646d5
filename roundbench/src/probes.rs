//! Per-operation FHE timings and parallel speed-ups, taken on the
//! workload's own context, keys and payloads after its replay.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rhychee_core::packing::{self, PackingConfig};
use rhychee_core::Parallelism;
use rhychee_fhe::ckks::modarith::mul_mod;
use rhychee_fhe::ckks::ntt::cached_table;
use rhychee_fhe::ckks::rns::CrtReconstructor;
use rhychee_fhe::ckks::{CkksCiphertext, CkksContext, CkksPublicKey, CkksSecretKey};

use crate::err;
use crate::stats::{secs, Samples};

/// Passes over the upload's ciphertexts per operation.
const PASSES: usize = 3;
/// Repetitions of the single-row kernels (NTT, pointwise, CRT).
const ROW_REPS: usize = 10;
/// Salt for the probes' own randomness (fresh noise, synthetic rows).
const PROBE_SALT: u64 = 0x7072_6F62_6573_0001;

/// What the probes run on: the context and keys the replay used, one
/// client's last plaintext update, and the aggregate it decrypted.
pub struct ProbeInputs {
    pub ctx: CkksContext,
    pub sk: CkksSecretKey,
    pub pk: CkksPublicKey,
    pub layout: PackingConfig,
    pub flat: Vec<f32>,
    pub aggregate: Vec<CkksCiphertext>,
    /// Uploads are symmetric seeded encryptions (the net workload).
    pub symmetric: bool,
}

impl ProbeInputs {
    fn encrypt_model(&self, rng: &mut StdRng) -> Result<Vec<CkksCiphertext>, String> {
        if self.symmetric {
            packing::encrypt_model_symmetric_with(
                &self.ctx,
                &self.sk,
                &self.flat,
                &self.layout,
                rng,
            )
        } else {
            packing::encrypt_model_with(&self.ctx, &self.pk, &self.flat, &self.layout, rng)
        }
        .map_err(err("probe encrypt"))
    }

    fn decrypt_model(&self) -> Result<Vec<f32>, String> {
        packing::decrypt_model_with(
            &self.ctx,
            &self.sk,
            &self.aggregate,
            self.flat.len(),
            &self.layout,
        )
        .map_err(err("probe decrypt"))
    }
}

/// Times each FHE operation of the workload's path per ciphertext (NTT
/// and pointwise per row of one prime), then the model-level encrypt
/// and decrypt at `Fixed(1)` against the workload's degree.
///
/// # Errors
///
/// Propagates FHE errors.
pub fn run(inp: &mut ProbeInputs, seed: u64, s: &mut Samples) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ PROBE_SALT);
    let ctx = &inp.ctx;
    let slots = ctx.slot_count();
    let chunks = if inp.layout.is_interleaved() {
        packing::interleaved_chunks(&inp.layout, &inp.flat, slots).map_err(err("chunks"))?
    } else {
        packing::chunk_params(&inp.flat, slots)
    };
    s.push("fhe.cts_per_upload", chunks.len() as f64);
    for _ in 0..PASSES {
        for chunk in &chunks {
            let t = Instant::now();
            black_box(ctx.encoder().encode(chunk));
            s.push("fhe.encode_s", secs(t));
            if inp.symmetric {
                let t = Instant::now();
                let noise = ctx.sample_symmetric_noise(&mut rng);
                s.push("fhe.noise_s", secs(t));
                let t = Instant::now();
                let ct = ctx.encrypt_symmetric_with_noise(&inp.sk, chunk, &noise);
                s.push("fhe.encrypt_symmetric_s", secs(t));
                let ct = ct.map_err(err("encrypt"))?;
                let t = Instant::now();
                let bytes = ctx.serialize_seeded(&ct);
                s.push("fhe.serialize_s", secs(t));
                let bytes = bytes.map_err(err("serialize"))?;
                let first = ctx.view_serialized_seeded(&bytes).map_err(err("view"))?;
                let mut acc = ctx.accumulator_for(&first);
                let t = Instant::now();
                let folded = ctx
                    .view_serialized_seeded(&bytes)
                    .and_then(|view| ctx.fold_view(&mut acc, &view));
                s.push("fhe.fold_view_s", secs(t));
                folded.map_err(err("fold view"))?;
            } else {
                let t = Instant::now();
                let noise = ctx.sample_encrypt_noise(&mut rng);
                s.push("fhe.noise_s", secs(t));
                let t = Instant::now();
                let ct = ctx.encrypt_with_noise(&inp.pk, chunk, &noise);
                s.push("fhe.encrypt_s", secs(t));
                black_box(ct.map_err(err("encrypt"))?);
            }
        }
        for ct in &inp.aggregate {
            let t = Instant::now();
            black_box(ctx.decrypt(&inp.sk, ct));
            s.push("fhe.decrypt_s", secs(t));
            if inp.symmetric {
                let bytes = ctx.serialize(ct);
                let t = Instant::now();
                let back = ctx.deserialize(&bytes);
                s.push("fhe.deserialize_s", secs(t));
                black_box(back.map_err(err("deserialize"))?);
            }
        }
    }
    rows(ctx, &mut rng, s);
    parallel_speedups(inp, &mut rng, s)
}

/// NTT, pointwise and CRT kernels on rows shaped like the context's.
fn rows(ctx: &CkksContext, rng: &mut StdRng, s: &mut Samples) {
    let n = ctx.params().n;
    let primes = ctx.primes();
    for &q in primes {
        let table = cached_table(n, q);
        let mut row: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        for _ in 0..ROW_REPS {
            let t = Instant::now();
            table.forward(black_box(&mut row));
            s.push("fhe.ntt_fwd_s", secs(t));
            let t = Instant::now();
            table.inverse(black_box(&mut row));
            s.push("fhe.ntt_inv_s", secs(t));
        }
    }
    let q = primes[0];
    let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
    let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
    let mut out = vec![0u64; n];
    for _ in 0..ROW_REPS {
        let t = Instant::now();
        for ((o, &x), &y) in out.iter_mut().zip(black_box(&a)).zip(black_box(&b)) {
            *o = mul_mod(x, y, q);
        }
        s.push("fhe.pointwise_s", secs(t));
        black_box(&out);
    }
    // One prime decodes on the `l == 1` path and never reconstructs.
    if primes.len() > 1 {
        let crt = CrtReconstructor::new(primes);
        // Residues of small centered values, as decryption produces.
        let residues: Vec<u64> = (0..n)
            .flat_map(|_| {
                let v: i64 = rng.gen_range(-(1i64 << 40)..(1i64 << 40));
                primes.iter().map(move |&p| v.rem_euclid(p as i64) as u64)
            })
            .collect();
        for _ in 0..ROW_REPS {
            let t = Instant::now();
            for coeff in residues.chunks_exact(primes.len()) {
                black_box(crt.centered_f64(coeff));
            }
            s.push("fhe.crt_s", secs(t));
        }
    }
}

/// Model-level encrypt and decrypt at `Fixed(1)` (`*_base_s`) and at
/// the workload's degree (`*_par_s`), alternating, on the same inputs.
fn parallel_speedups(
    inp: &mut ProbeInputs,
    rng: &mut StdRng,
    s: &mut Samples,
) -> Result<(), String> {
    let degree = inp.ctx.parallelism();
    s.push("par.degree", degree.degree() as f64);
    let sides = [
        (Parallelism::Fixed(1), "par.encrypt_base_s", "par.decrypt_base_s"),
        (degree, "par.encrypt_par_s", "par.decrypt_par_s"),
    ];
    for _ in 0..PASSES {
        for (par, encrypt, decrypt) in sides {
            inp.ctx.set_parallelism(par);
            let t = Instant::now();
            black_box(inp.encrypt_model(rng)?);
            s.push(encrypt, secs(t));
            let t = Instant::now();
            black_box(inp.decrypt_model()?);
            s.push(decrypt, secs(t));
        }
    }
    inp.ctx.set_parallelism(degree);
    Ok(())
}
