//! The repository benchmark: encrypted federated rounds, end to end
//! and layer by layer.
//!
//! `roundbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload (see [`spec`]) in a closed loop for `--seconds`,
//! checks its outputs, and prints every metric with its unit followed
//! by one JSON line. Untraced runs (`--trace 0`) print the end-to-end
//! metrics; traced runs (`--trace 1`) repeat the untraced loop as their
//! base, then replay one federation through the layers' public
//! functions with benchmark-side spans and print the per-layer metrics.
//! The program's own telemetry stays off throughout.

pub mod env;
pub mod gate;
pub mod inproc;
pub mod net;
pub mod probes;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;

use std::time::{Duration, Instant};

use rhychee_core::Parallelism;
use rhychee_telemetry as telemetry;

use gate::Check;
use report::{Def, Metric, Report, END_TO_END, PER_LAYER};
use spec::{Kind, Size, Spec};
use stats::Samples;
use trace::Tracer;

/// Largest accuracy gap allowed between the encrypted federation and
/// `Framework::hdc_plaintext` on the same configuration.
pub const ACCURACY_TOLERANCE: f64 = 0.05;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds` and `--trace`; runs
    /// are always full size (tests build tiny `Args` directly).
    ///
    /// # Errors
    ///
    /// Describes a missing, unknown or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            size: Size::Full,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => out.workload = value.clone(),
                "--seed" => out.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !(out.seconds > 0.0 && out.seconds.is_finite()) {
            return Err(format!("--seconds must be positive, got {}", out.seconds));
        }
        Ok(out)
    }
}

/// What a timed loop measured besides its samples.
#[derive(Debug, Clone)]
pub struct Timed {
    /// Global test accuracy after the first federation's last round.
    pub accuracy: f64,
    /// The first federation's final global model.
    pub final_model: Vec<f32>,
    pub upload_bytes: f64,
    /// Uploads attempted and failed (NACKed, dropped or errored).
    pub attempted: u64,
    pub failed: u64,
}

/// Maps an error to a message naming the step that failed.
pub(crate) fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Runs one workload as the command line asks.
///
/// # Errors
///
/// Returns a message for an unknown workload, enabled telemetry, or any
/// failing operation; a failed correctness check is reported in the
/// [`Report`] instead.
pub fn run(args: &Args) -> Result<Report, String> {
    // `setup_s` runs from here, the start of the process's work, to round 0.
    let started = Instant::now();
    if telemetry::enabled() {
        return Err("telemetry must be off in timed runs".into());
    }
    let spec = Spec::get(&args.workload, args.size).ok_or_else(|| {
        format!("unknown workload {:?}; expected one of {:?}", args.workload, spec::WORKLOADS)
    })?;
    let degree = env::nproc();
    let par = Parallelism::Fixed(degree);
    let mut rep = Report::default();
    rep.header.push(format!(
        "roundbench workload={} seed={} seconds={} trace={} rounds/federation={} clients={} D={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.rounds,
        spec.clients,
        spec.hd_dim
    ));
    rep.header.push(env::line(degree));
    rep.header.push(match spec.kind {
        Kind::Net => format!(
            "load: closed loop, {} client threads with one connection each; \
             each round starts when the previous one ends",
            spec.clients
        ),
        Kind::Dense | Kind::Interleaved => {
            "load: closed loop on the calling thread; each round starts when the previous one ends"
                .into()
        }
    });

    let mut s = Samples::default();
    let window = Duration::from_secs_f64(args.seconds);
    let timed = match spec.kind {
        Kind::Net => {
            let deadline = Instant::now() + window;
            net::timed(&spec, args.seed, par, started, deadline, &mut s, &mut rep.checks)?
        }
        Kind::Dense | Kind::Interleaved => {
            inproc::timed(&spec, args.seed, par, started, window, &mut s)?
        }
    };
    let rss = env::rss_peak_mib();
    rep.attempted = timed.attempted;
    rep.failed = timed.failed;

    // The gate: untimed passes over the same configuration.
    let plain = inproc::plaintext_accuracy(&spec, args.seed, par)?;
    rep.checks.push(gate::within(
        "accuracy_vs_plaintext",
        &format!("|{:.4} - hdc_plaintext {plain:.4}|", timed.accuracy),
        (timed.accuracy - plain).abs(),
        ACCURACY_TOLERANCE,
    ));
    let mut tr = Tracer::default();
    let replayed = match spec.kind {
        Kind::Net => {
            // The replay is this workload's check pass, traced or not.
            Some(net::replay(&spec, args.seed, par, &mut s, &mut tr, &mut rep.checks)?)
        }
        Kind::Dense | Kind::Interleaved => {
            inproc::check_pass(&spec, args.seed, par, &timed.final_model, &mut rep.checks)?;
            match args.trace {
                true => Some(inproc::replay(&spec, args.seed, par, &mut s, &mut tr)?),
                false => None,
            }
        }
    };
    if let Some((model, _)) = &replayed {
        rep.checks.push(gate::bit_identical("replay_matches_untraced", &timed.final_model, model));
    }

    if args.trace {
        let (_, mut inputs) = replayed.expect("traced runs replay");
        match tr.reconcile() {
            Ok(rows) => {
                for &(_, _, remainder_ns) in &rows {
                    s.push("trace.unattributed_s", remainder_ns as f64 * 1e-9);
                }
                rep.checks.push(Check::new(
                    "trace_reconciles",
                    !rows.is_empty(),
                    format!(
                        "{} rounds: layer spans + unattributed remainder == round span to the ns",
                        rows.len()
                    ),
                ));
            }
            Err(e) => rep.checks.push(Check::new("trace_reconciles", false, e)),
        }
        tr.export(&mut s);
        probes::run(&mut inputs, args.seed, &mut s)?;
        rep.metrics = per_layer(&spec, &s, &timed);
    } else {
        rep.metrics = end_to_end(&spec, &s, &timed, rss);
    }
    if spec.kind == Kind::Net {
        rep.header.push(format!(
            "note: max_resident_uploads (4) never binds: {} clients upload per round",
            spec.clients
        ));
    }
    for m in &rep.metrics {
        if m.value.is_some_and(|v| !v.is_finite()) {
            rep.checks.push(Check::new(
                "finite_metrics",
                false,
                format!("{} is not finite", m.def.name),
            ));
        }
    }
    Ok(rep)
}

fn metric(def: Def, value: Option<f64>, note: impl Into<String>) -> Metric {
    Metric { def, value, note: note.into() }
}

fn counted(s: &Samples, name: &str, what: &str) -> (Option<f64>, String) {
    (s.median(name), format!("median of {} {what}", s.get(name).len()))
}

fn end_to_end(spec: &Spec, s: &Samples, timed: &Timed, rss: Option<f64>) -> Vec<Metric> {
    END_TO_END
        .into_iter()
        .map(|def| {
            let (value, note) = match def.name {
                "round_s" if spec.kind == Kind::Net => {
                    counted(s, "round_s", "federations (federation wall time / rounds)")
                }
                "round_s" => counted(s, "round_s", "rounds"),
                "client_crypto_s" if spec.kind == Kind::Net => counted(
                    s,
                    "client_crypto_s",
                    "clients x federations ((encrypt + decrypt) / rounds)",
                ),
                "client_crypto_s" => {
                    counted(s, "client_crypto_s", "rounds (encrypt / participants + decrypt)")
                }
                "upload_bytes" => (Some(timed.upload_bytes), "one client, per round".into()),
                "accuracy" => (
                    Some(timed.accuracy),
                    format!("after round {} of the first federation", spec.rounds),
                ),
                "setup_s" => (
                    s.median("setup_s"),
                    "process start to round 0, the first (cold) set-up".into(),
                ),
                "rss_peak_mb" => (rss, "VmHWM after the timed loop".into()),
                "upload_ok_ratio" => (
                    Some(1.0 - timed.failed as f64 / timed.attempted.max(1) as f64),
                    format!(
                        "{} of {} uploads accepted",
                        timed.attempted - timed.failed,
                        timed.attempted
                    ),
                ),
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            metric(def, value, note)
        })
        .collect()
}

fn per_layer(spec: &Spec, s: &Samples, timed: &Timed) -> Vec<Metric> {
    let round_s = s.median("round_s").unwrap_or(0.0);
    PER_LAYER
        .into_iter()
        .map(|def| {
            let name = def.name;
            let (value, note) = match name {
                "net.client_wait_s" => match s.median("net.client_busy_s") {
                    Some(busy) => {
                        (Some(round_s - busy), format!("round_s {round_s:.4e} - client_busy_s"))
                    }
                    None => (None, "not run: in-process clients never wait on a network".into()),
                },
                "par.encrypt_speedup" | "par.decrypt_speedup" => {
                    let op = if name == "par.encrypt_speedup" { "encrypt" } else { "decrypt" };
                    let base = s.median(&format!("par.{op}_base_s")).unwrap_or(0.0);
                    let par = s.median(&format!("par.{op}_par_s")).unwrap_or(0.0);
                    (
                        Some(base / par),
                        format!("{op}_model Fixed(1) {base:.4e} s / degree {par:.4e} s"),
                    )
                }
                "trace.overhead" => {
                    let traced = s.median(trace::ROUND).unwrap_or(0.0);
                    let what = if spec.kind == Kind::Net {
                        "sequential replay round"
                    } else {
                        "traced round"
                    };
                    (
                        Some(traced / round_s),
                        format!("{what} {traced:.4e} s / untraced round {round_s:.4e} s"),
                    )
                }
                "round_tail_s" if spec.kind == Kind::Net => (
                    None,
                    "not run: per-round times are not observable outside a loopback federation"
                        .into(),
                ),
                "round_tail_s" => match stats::tail(s.get("round_s")) {
                    Some((p, v)) => {
                        (Some(v), format!("p{p} of {} untraced rounds", s.get("round_s").len()))
                    }
                    None => (None, "not run: needs more than 10 rounds".into()),
                },
                "fail_ratio" => (
                    Some(timed.failed as f64 / timed.attempted.max(1) as f64),
                    format!("{} of {} uploads", timed.failed, timed.attempted),
                ),
                "fhe.ntt_fwd_s" | "fhe.ntt_inv_s" | "fhe.pointwise_s" => {
                    let (v, n) = counted(s, name, "rows");
                    (v, format!("one row of one prime, {n}"))
                }
                "fhe.crt_s" => match s.get(name).len() {
                    0 => (
                        None,
                        "not run: one prime takes the l == 1 path of to_centered_f64_with".into(),
                    ),
                    n => (
                        s.median(name),
                        format!("all N coefficients of one ciphertext, median of {n}"),
                    ),
                },
                _ => match s.get(name).len() {
                    0 => (None, "not run: not on this workload's path".into()),
                    n => (s.median(name), format!("median of {n}")),
                },
            };
            metric(def, value, note)
        })
        .collect()
}
