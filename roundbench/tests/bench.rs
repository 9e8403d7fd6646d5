//! The benchmark's own tests: tiny-size smoke runs of every workload,
//! the correctness gate rejecting a corrupted model, agreement with
//! `BENCHMARK.json`, and (ignored by default, full size) a second-seed
//! run staying within the declared bounds.

use std::time::Instant;

use rhychee_core::Parallelism;
use roundbench::report::{Def, Report, END_TO_END, PER_LAYER};
use roundbench::spec::{Size, Spec, WORKLOADS};
use roundbench::{gate, inproc, Args};

fn args(workload: &str, seed: u64, seconds: f64, trace: bool, size: Size) -> Args {
    Args { workload: workload.into(), seed, seconds, trace, size }
}

/// `(name, unit, better, bound)` of every metric in `BENCHMARK.json`
/// (one metric object per line there).
fn declared(section: &str) -> Vec<(String, String, String, Option<f64>)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        let end = rest.find([',', '}']).expect("field ends");
        Some(rest[..end].trim().trim_matches('"').to_string())
    };
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section ends")];
    body.lines()
        .filter(|l| l.contains("\"name\""))
        .map(|l| {
            (
                field(l, "name").expect("name"),
                field(l, "unit").unwrap_or_default(),
                field(l, "better").unwrap_or_default(),
                field(l, "bound").map(|b| b.parse().expect("numeric bound")),
            )
        })
        .collect()
}

fn assert_printed(report: &Report, defs: &[Def]) {
    let text = report.render();
    for d in defs {
        let line = text
            .lines()
            .find(|l| l.split_whitespace().nth(1) == Some(d.name) && l.starts_with("metric "))
            .unwrap_or_else(|| panic!("metric {} not printed:\n{text}", d.name));
        assert!(
            line.split_whitespace().any(|w| w == d.unit),
            "{} lacks unit {}: {line}",
            d.name,
            d.unit
        );
    }
    let json = text.lines().last().expect("result line");
    for key in ["\"correct\": ", "\"attempted\": ", "\"failed\": ", "\"metrics\": "] {
        assert!(json.contains(key), "{key} missing from {json}");
    }
    assert!(report.correct(), "gate failed:\n{text}");
    assert_eq!(report.metrics.len(), defs.len());
}

#[test]
fn tiny_runs_print_every_metric_with_its_unit() {
    for w in WORKLOADS {
        let untraced = roundbench::run(&args(w, 3, 0.2, false, Size::Tiny)).expect("untraced run");
        assert_printed(&untraced, &END_TO_END);
        assert!(untraced.metrics.iter().all(|m| m.value.is_some_and(|v| v > 0.0)), "{w}");

        let traced = roundbench::run(&args(w, 3, 0.2, true, Size::Tiny)).expect("traced run");
        assert_printed(&traced, &PER_LAYER);
        let crt = traced.metric("fhe.crt_s").expect("crt metric");
        if w == "ckks4_hdc_interleaved" {
            assert!(crt.value.is_none() && crt.note.starts_with("not run"), "{crt:?}");
        } else {
            assert!(crt.value.is_some_and(|v| v > 0.0), "{w}: {crt:?}");
        }
    }
}

#[test]
fn gate_rejects_a_model_with_one_coefficient_flipped() {
    let spec = Spec::get("ckks3_canonical", Size::Tiny).expect("workload");
    let par = Parallelism::Fixed(2);
    let mut samples = Default::default();
    let timed = inproc::timed(&spec, 5, par, Instant::now(), Default::default(), &mut samples)
        .expect("timed");

    let mut ok = Vec::new();
    inproc::check_pass(&spec, 5, par, &timed.final_model, &mut ok).expect("check pass");
    assert!(ok.iter().all(|c| c.ok), "{ok:?}");

    let mut flipped = timed.final_model.clone();
    flipped[17] = f32::from_bits(flipped[17].to_bits() ^ 1);
    let mut bad = Vec::new();
    inproc::check_pass(&spec, 5, par, &flipped, &mut bad).expect("check pass");
    let check = bad.iter().find(|c| c.name == "check_pass_matches_timed").expect("identity check");
    assert!(!check.ok && check.detail.contains("coefficient 17"), "{check:?}");
    assert!(!gate::bit_identical("m", &timed.final_model, &flipped).ok);
}

#[test]
fn benchmark_json_declares_what_the_benchmark_prints() {
    let e2e = declared("end_to_end");
    let names: Vec<&str> = e2e.iter().map(|m| m.0.as_str()).collect();
    assert_eq!(names, END_TO_END.map(|d| d.name));
    for ((_, unit, better, bound), d) in e2e.iter().zip(END_TO_END) {
        assert_eq!(unit, d.unit, "{}", d.name);
        assert!(better == "lower" || better == "higher");
        assert!(bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", d.name);
    }
    assert!(e2e.iter().any(|m| m.0 == "setup_s"), "setup_s declared");

    let layers = declared("per_layer");
    let pairs: Vec<(&str, &str)> = layers.iter().map(|m| (m.0.as_str(), m.1.as_str())).collect();
    assert_eq!(pairs, PER_LAYER.map(|d| (d.name, d.unit)));
    assert!(layers.iter().all(|m| m.3.is_none()), "per-layer metrics carry no bound");

    let workloads = declared("workloads");
    assert_eq!(workloads.iter().map(|w| w.0.as_str()).collect::<Vec<_>>(), WORKLOADS);
}

/// Full size: a run on a second seed keeps every end-to-end median
/// within the bound `BENCHMARK.json` fixes for it. Takes a few minutes:
/// `cargo test --release --manifest-path roundbench/Cargo.toml -- --ignored`.
#[test]
#[ignore]
fn second_seed_stays_within_bounds() {
    let bounds = declared("end_to_end");
    for w in WORKLOADS {
        let a = roundbench::run(&args(w, 1, 10.0, false, Size::Full)).expect("seed 1");
        let b = roundbench::run(&args(w, 2, 10.0, false, Size::Full)).expect("seed 2");
        assert!(a.correct() && b.correct(), "{w}: gate failed");
        for (name, _, _, bound) in &bounds {
            let x = a.metric(name).and_then(|m| m.value).expect("seed 1 value");
            let y = b.metric(name).and_then(|m| m.value).expect("seed 2 value");
            let change = (y - x).abs() / x;
            let bound = bound.expect("end-to-end bound");
            assert!(change <= bound, "{w} {name}: {x} vs {y} differ by {change:.3} > {bound}");
        }
    }
}
