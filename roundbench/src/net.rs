//! The loopback workload: one `FlServer` and its `FlClient`s, one
//! thread and one connection per client, timed from outside; and its
//! replay through the codec, streaming and packing functions.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use rhychee_core::round::{self, ClientLocal, ClientUpdate, FedSetup, ServerRound};
use rhychee_core::{packing, Parallelism, StreamingAggregator};
use rhychee_fhe::ckks::CkksContext;
use rhychee_hdc::model::HdcModel;
use rhychee_net::codec::decode_ckks;
use rhychee_net::{
    ClientConfig, ClientPipeline, FlClient, FlServer, SeededCodec, ServerConfig, ServerPipeline,
    WireCodec,
};

use crate::gate::{self, Check};
use crate::probes::ProbeInputs;
use crate::spec::Spec;
use crate::stats::{secs, Samples};
use crate::trace::{Tracer, ROUND};
use crate::{err, Timed};

/// Federations per run at least, so `round_s` is a median of three.
const MIN_FEDERATIONS: usize = 3;

/// Closed loop of whole federations (a networked run fixes its round
/// count up front) until `deadline`, and at least [`MIN_FEDERATIONS`].
///
/// Samples: `setup_s` once, from `started` to the first federation's
/// start (data, encoding, bind, client contexts and keys; clients
/// connect inside `FlClient::run`, so connecting counts as round time);
/// `round_s` as federation wall time over rounds, and per client
/// `client_crypto_s`, `net.client_busy_s`, `net.bytes_*`.
///
/// # Errors
///
/// Propagates any server or client error.
pub fn timed(
    spec: &Spec,
    seed: u64,
    par: Parallelism,
    started: Instant,
    deadline: Instant,
    s: &mut Samples,
    checks: &mut Vec<Check>,
) -> Result<Timed, String> {
    let rounds = spec.rounds as f64;
    let mut first: Option<Timed> = None;
    let mut repeats = gate::Repeats::default();
    let (mut attempted, mut failed, mut nacks, mut dropped, mut short_rounds) = (0, 0, 0, 0, 0);
    let mut clients_agree = true;
    for federation in 1.. {
        let data = spec.data(seed);
        let fl = spec.fl_config(seed, par);
        let FedSetup { shards, test, classes } =
            round::prepare(&fl, &data).map_err(err("prepare"))?;
        let config = ServerConfig::builder()
            .clients(spec.clients)
            .rounds(spec.rounds)
            .model_params(classes * fl.hd_dim)
            .codec(SeededCodec)
            .parallelism(par)
            .build()
            .map_err(err("server config"))?;
        let server =
            FlServer::bind("127.0.0.1:0", config, ServerPipeline::Ckks(spec.params.clone()))
                .map_err(err("bind"))?;
        let addr = server.local_addr().map_err(err("local addr"))?;
        let mut clients = Vec::with_capacity(spec.clients);
        for (id, shard) in shards.into_iter().enumerate() {
            let mut config = ClientConfig::new(addr);
            config.codec = Arc::new(SeededCodec);
            let local = ClientLocal::new(id, shard, classes, &fl);
            let eval = (id == 0).then(|| test.clone());
            let pipeline = ClientPipeline::Ckks(spec.params.clone());
            clients.push(
                FlClient::new(config, fl.clone(), local, classes, eval, pipeline)
                    .map_err(err("client"))?,
            );
        }
        if federation == 1 {
            s.push("setup_s", secs(started));
        }

        let t = Instant::now();
        let (server, clients) = thread::scope(|scope| {
            let server = scope.spawn(move || server.run());
            let handles: Vec<_> =
                clients.into_iter().map(|c| scope.spawn(move || c.run())).collect();
            let clients: Vec<_> =
                handles.into_iter().map(|h| h.join().expect("client thread")).collect();
            (server.join().expect("server thread"), clients)
        });
        s.push("round_s", secs(t) / rounds);
        let server = server.map_err(err("server run"))?;
        let clients =
            clients.into_iter().collect::<Result<Vec<_>, _>>().map_err(err("client run"))?;

        for c in &clients {
            let crypto = c.encrypt_time + c.decrypt_time;
            let busy = c.train_time + crypto + c.upload_time;
            s.push("client_crypto_s", crypto.as_secs_f64() / rounds);
            s.push("net.client_busy_s", busy.as_secs_f64() / rounds);
            s.push("net.bytes_tx", c.bytes_tx as f64 / rounds);
            s.push("net.bytes_rx", c.bytes_rx as f64 / rounds);
            s.push("net.retries", c.retries as f64);
            clients_agree &= c.final_model == clients[0].final_model;
        }
        let mut fed_nacks = 0;
        for r in &server.rounds {
            s.push_duration("net.server_aggregate_s", r.aggregate_time);
            failed += (spec.clients - r.received.min(spec.clients) + r.rejected) as u64;
            fed_nacks += r.rejected;
            short_rounds += usize::from(r.received != spec.clients);
        }
        short_rounds += spec.rounds - server.rounds.len();
        s.push("net.nacks", fed_nacks as f64);
        s.push("net.dropped", server.dropped_clients as f64);
        nacks += fed_nacks;
        dropped += server.dropped_clients;
        attempted += (spec.rounds * spec.clients) as u64;

        let lead = &clients[0];
        match &first {
            None => {
                let accuracy = match lead.accuracies.last() {
                    Some(&(r, acc)) if r + 1 == spec.rounds => acc,
                    other => return Err(format!("client 0 reported no final accuracy: {other:?}")),
                };
                first = Some(Timed {
                    accuracy,
                    final_model: lead.final_model.clone(),
                    upload_bytes: lead.bytes_tx as f64 / rounds,
                    attempted: 0,
                    failed: 0,
                });
            }
            Some(f) => repeats.add(&f.final_model, &lead.final_model),
        }
        if federation >= MIN_FEDERATIONS && Instant::now() >= deadline {
            break;
        }
    }
    checks.push(Check::new(
        "clients_share_final_model",
        clients_agree,
        "every client's final_model equal in every federation",
    ));
    checks.push(Check::new(
        "every_round_full",
        short_rounds == 0,
        format!("{short_rounds} round(s) closed with received != {} clients", spec.clients),
    ));
    checks.push(Check::new(
        "no_nacks_or_drops",
        nacks == 0 && dropped == 0,
        format!("{nacks} NACK(s), {dropped} dropped client(s)"),
    ));
    checks.push(repeats.check());
    let mut out = first.expect("at least one federation");
    out.attempted = attempted;
    out.failed = failed;
    Ok(out)
}

/// The replay, which is also this workload's check pass: clients train,
/// encrypt symmetrically and encode through `SeededCodec`; the server
/// parses and folds each upload into a `StreamingAggregator` and
/// encodes the canonical broadcast; a client decodes and decrypts it.
/// Each round's decrypted global is compared with the plaintext FedAvg
/// of the same updates, and the final model must equal the networked
/// run's bit for bit. Clients run one after another here, so the round
/// span is a sum of both clients' work, not a networked round.
///
/// # Errors
///
/// Propagates codec, FHE and round errors.
pub fn replay(
    spec: &Spec,
    seed: u64,
    par: Parallelism,
    s: &mut Samples,
    tr: &mut Tracer,
    checks: &mut Vec<Check>,
) -> Result<(Vec<f32>, ProbeInputs), String> {
    let t = Instant::now();
    let data = spec.data(seed);
    s.push("data.generate_s", secs(t));
    let fl = spec.fl_config(seed, par);
    let t = Instant::now();
    let FedSetup { shards, test, classes } = round::prepare(&fl, &data).map_err(err("prepare"))?;
    s.push("hdc.prepare_s", secs(t));
    let ctx = CkksContext::with_parallelism(spec.params.clone(), par).map_err(err("context"))?;
    let server_ctx =
        CkksContext::with_parallelism(spec.params.clone(), par).map_err(err("context"))?;
    let (sk, pk) = round::derive_ckks_keys(&ctx, fl.seed);
    let mut clients: Vec<ClientLocal> = shards
        .into_iter()
        .enumerate()
        .map(|(id, shard)| ClientLocal::new(id, shard, classes, &fl))
        .collect();
    let layout = spec.packing();
    let n = classes * fl.hd_dim;
    let max_cts = packing::ciphertexts_needed_with(&layout, n, ctx.slot_count());
    let mut worst = gate::WorstError::default();
    let mut global = vec![0.0f32; n];
    let mut last = (Vec::new(), Vec::new());
    for r in 0..spec.rounds {
        let round_start = tr.start();
        let mut updates = Vec::with_capacity(clients.len());
        let mut uploads = Vec::with_capacity(clients.len());
        for c in &mut clients {
            let flat = tr.time("hdc.train_s", r, || c.train(&global, &fl));
            let cts = tr
                .time("core.encrypt_model_s", r, || {
                    packing::encrypt_model_symmetric_with(&ctx, &sk, &flat, &layout, c.rng_mut())
                })
                .map_err(err("encrypt"))?;
            let bytes = tr
                .time("net.encode_upload_s", r, || SeededCodec.encode_upload(&ctx, &cts))
                .map_err(err("encode upload"))?;
            uploads.push((c.id(), bytes));
            updates.push(ClientUpdate { client_id: c.id(), round: r, steps: 1, payload: flat });
        }
        let mut agg = StreamingAggregator::new(r, fl.aggregation).map_err(err("aggregator"))?;
        for (id, bytes) in &uploads {
            let view = tr
                .time("net.parse_upload_s", r, || {
                    SeededCodec.parse_upload(&server_ctx, bytes, max_cts)
                })
                .map_err(err("parse upload"))?;
            let folded = tr
                .time("core.fold_upload_s", r, || {
                    agg.fold_upload(&server_ctx, *id, r, view.views())
                })
                .map_err(err("fold"))?;
            if !folded {
                return Err(format!("round {r}: upload of client {id} was not folded"));
            }
        }
        let aggregate =
            tr.time("core.aggregate_s", r, || agg.finish(&server_ctx)).map_err(err("finish"))?;
        let payload = tr.time("net.encode_broadcast_s", r, || {
            SeededCodec.encode_broadcast(&server_ctx, &aggregate)
        });
        let received = tr
            .time("net.decode_broadcast_s", r, || decode_ckks(&ctx, &payload, max_cts))
            .map_err(err("decode broadcast"))?;
        global = tr
            .time("core.decrypt_model_s", r, || {
                packing::decrypt_model_with(&ctx, &sk, &received, n, &layout)
            })
            .map_err(err("decrypt"))?;
        tr.time("hdc.eval_s", r, || {
            HdcModel::from_flat(&global, classes, fl.hd_dim).accuracy(&test)
        });
        tr.finish(ROUND, r, round_start);

        let mut plain = ServerRound::new(r, fl.aggregation);
        let first_flat = updates[0].payload.clone();
        for u in updates {
            plain.accept(u);
        }
        worst.add(spec, &plain.aggregate().map_err(err("fedavg"))?, &global);
        last = (first_flat, received);
    }
    checks.push(worst.check(spec.rounds));
    let (flat, aggregate) = last;
    Ok((global, ProbeInputs { ctx, sk, pk, layout, flat, aggregate, symmetric: true }))
}
