//! The in-process workloads: `Framework::run_round` timed as a user
//! calls it, a hooked check pass, and a traced replay through the
//! layers' public functions.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use rhychee_core::round::{self, ClientLocal, ClientUpdate, FedSetup, ServerRound};
use rhychee_core::{packing, Framework, Parallelism, RoundHooks};
use rhychee_fhe::ckks::CkksContext;
use rhychee_hdc::model::HdcModel;

use crate::gate::{self, Check};
use crate::probes::ProbeInputs;
use crate::spec::Spec;
use crate::stats::{secs, Samples};
use crate::trace::{Tracer, ROUND};
use crate::{err, Timed};

/// Builds the workload's federation from scratch: data generation,
/// `round::prepare` encoding, CKKS context and keys.
pub fn setup(spec: &Spec, seed: u64, par: Parallelism) -> Framework {
    let data = spec.data(seed);
    spec.framework(&data, seed, par)
}

/// Closed loop: one federation, set up once, then one round after
/// another for `window` and at least `spec.rounds` rounds. `accuracy`
/// and the model are read after round `spec.rounds`, so they do not
/// depend on how many rounds fit in the window.
///
/// Samples: `setup_s` once, from `started` to round 0 (the process's
/// first, cold set-up when `started` is taken at process start);
/// `round_s` and `client_crypto_s` per round.
///
/// # Errors
///
/// Propagates the first round error.
pub fn timed(
    spec: &Spec,
    seed: u64,
    par: Parallelism,
    started: Instant,
    window: Duration,
    s: &mut Samples,
) -> Result<Timed, String> {
    let mut fw = setup(spec, seed, par);
    s.push("setup_s", secs(started));
    let deadline = Instant::now() + window;
    let mut out = Timed {
        accuracy: 0.0,
        final_model: Vec::new(),
        upload_bytes: fw.upload_bits_per_round() as f64 / 8.0,
        attempted: 0,
        failed: 0,
    };
    for round in 0.. {
        if round >= spec.rounds && Instant::now() >= deadline {
            break;
        }
        let t = Instant::now();
        let rep = fw.run_round().map_err(err("round"))?;
        s.push("round_s", secs(t));
        let per_client = rep.encrypt_time.as_secs_f64() / rep.participants as f64;
        s.push("client_crypto_s", per_client + rep.decrypt_time.as_secs_f64());
        out.attempted += rep.participants as u64;
        if round + 1 == spec.rounds {
            out.accuracy = rep.accuracy;
            out.final_model = fw.global_model().flatten();
        }
    }
    Ok(out)
}

/// The check pass: the same federation, set up again (untimed), with an `updates_tap` hook that computes the
/// plaintext FedAvg of every round's updates, so each decrypted global
/// can be compared with it. The hook only reads, so the model after
/// `spec.rounds` rounds must equal the timed run's bit for bit.
///
/// # Errors
///
/// Propagates the first round error.
pub fn check_pass(
    spec: &Spec,
    seed: u64,
    par: Parallelism,
    timed_model: &[f32],
    checks: &mut Vec<Check>,
) -> Result<(), String> {
    let mut fw = setup(spec, seed, par);
    let aggregation = fw.config().aggregation;
    let expected = Rc::new(RefCell::new(Vec::new()));
    let tap = Rc::clone(&expected);
    fw.set_hooks(RoundHooks {
        updates_tap: Some(Box::new(move |round, updates| {
            let mut sr = ServerRound::new(round, aggregation);
            for u in updates.iter() {
                sr.accept(u.clone());
            }
            *tap.borrow_mut() = sr.aggregate().expect("every client reports");
        })),
        ..RoundHooks::default()
    });
    let mut worst = gate::WorstError::default();
    for _ in 0..spec.rounds {
        fw.run_round().map_err(err("check round"))?;
        let want = expected.borrow();
        worst.add(spec, &want, &fw.global_model().flatten());
    }
    checks.push(worst.check(spec.rounds));
    checks.push(gate::bit_identical(
        "check_pass_matches_timed",
        timed_model,
        &fw.global_model().flatten(),
    ));
    Ok(())
}

/// Accuracy of `Framework::hdc_plaintext` on the same configuration.
///
/// # Errors
///
/// Propagates the first round error.
pub fn plaintext_accuracy(spec: &Spec, seed: u64, par: Parallelism) -> Result<f64, String> {
    let data = spec.data(seed);
    let mut fw =
        Framework::hdc_plaintext(spec.fl_config(seed, par), &data).map_err(err("plaintext"))?;
    Ok(fw.run().map_err(err("plaintext round"))?.final_accuracy)
}

/// The traced replay: the same federation driven through
/// `round::prepare`, `ClientLocal::train`, `packing::encrypt_model_with`,
/// `ServerRound::aggregate_ckks{,_sum}`, `packing::decrypt_model_with`
/// and `HdcModel::accuracy`, in the order `Framework::run_round` calls
/// them, with a span around each call.
///
/// # Errors
///
/// Propagates FHE and round errors.
pub fn replay(
    spec: &Spec,
    seed: u64,
    par: Parallelism,
    s: &mut Samples,
    tr: &mut Tracer,
) -> Result<(Vec<f32>, ProbeInputs), String> {
    let t = Instant::now();
    let data = spec.data(seed);
    s.push("data.generate_s", secs(t));
    let cfg = spec.fl_config(seed, par);
    let t = Instant::now();
    let FedSetup { shards, test, classes } = round::prepare(&cfg, &data).map_err(err("prepare"))?;
    s.push("hdc.prepare_s", secs(t));
    let ctx = CkksContext::with_parallelism(spec.params.clone(), par).map_err(err("context"))?;
    let (sk, pk) = round::derive_ckks_keys(&ctx, cfg.seed);
    let mut clients: Vec<ClientLocal> = shards
        .into_iter()
        .enumerate()
        .map(|(id, shard)| ClientLocal::new(id, shard, classes, &cfg))
        .collect();
    let layout = spec.packing();
    let n = classes * cfg.hd_dim;
    let mut global = vec![0.0f32; n];
    let mut last = (Vec::new(), Vec::new());
    for r in 0..spec.rounds {
        let round_start = tr.start();
        let mut flats = Vec::with_capacity(clients.len());
        for c in &mut clients {
            flats.push(tr.time("hdc.train_s", r, || c.train(&global, &cfg)));
        }
        let mut sr = ServerRound::new(r, cfg.aggregation);
        for (c, flat) in clients.iter_mut().zip(&flats) {
            let cts = tr
                .time("core.encrypt_model_s", r, || {
                    packing::encrypt_model_with(&ctx, &pk, flat, &layout, c.rng_mut())
                })
                .map_err(err("encrypt"))?;
            sr.accept(ClientUpdate {
                client_id: c.id(),
                round: r,
                steps: c.last_steps(),
                payload: cts,
            });
        }
        let aggregate = tr
            .time("core.aggregate_s", r, || {
                if layout.is_interleaved() {
                    sr.aggregate_ckks_sum(&ctx)
                } else {
                    sr.aggregate_ckks(&ctx)
                }
            })
            .map_err(err("aggregate"))?;
        global = tr
            .time("core.decrypt_model_s", r, || {
                packing::decrypt_model_with(&ctx, &sk, &aggregate, n, &layout)
            })
            .map_err(err("decrypt"))?;
        tr.time("hdc.eval_s", r, || {
            HdcModel::from_flat(&global, classes, cfg.hd_dim).accuracy(&test)
        });
        tr.finish(ROUND, r, round_start);
        last = (flats.swap_remove(0), aggregate);
    }
    let (flat, aggregate) = last;
    Ok((global, ProbeInputs { ctx, sk, pk, layout, flat, aggregate, symmetric: false }))
}
