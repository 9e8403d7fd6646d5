//! The correctness gate: named pass/fail checks with their evidence.

use crate::spec::Spec;

/// One correctness check and what it saw.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Self {
        Check { name, ok, detail: detail.into() }
    }
}

/// Passes only when `got` equals `want` bit for bit.
pub fn bit_identical(name: &'static str, want: &[f32], got: &[f32]) -> Check {
    let first_diff = if want.len() == got.len() {
        want.iter().zip(got).position(|(a, b)| a.to_bits() != b.to_bits())
    } else {
        Some(want.len().min(got.len()))
    };
    match first_diff {
        None => Check::new(name, true, format!("{} coefficients bit-identical", want.len())),
        Some(i) => Check::new(
            name,
            false,
            format!(
                "differs at coefficient {i} of {}/{} ({:?} vs {:?})",
                want.len(),
                got.len(),
                want.get(i),
                got.get(i)
            ),
        ),
    }
}

/// Largest per-coordinate absolute difference (infinite on a length
/// mismatch).
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter().zip(b).map(|(&x, &y)| f64::from((x - y).abs())).fold(0.0, f64::max)
}

/// Largest absolute coordinate.
pub fn max_abs(a: &[f32]) -> f32 {
    a.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// Passes when the worst observed error stays within its bound.
pub fn within(name: &'static str, what: &str, err: f64, bound: f64) -> Check {
    Check::new(name, err <= bound, format!("{what}: {err:.3e} <= bound {bound:.3e}"))
}

/// Bit-identity of every repeated federation with the first one.
#[derive(Debug, Default)]
pub struct Repeats {
    count: usize,
    diff: Option<Check>,
}

impl Repeats {
    const NAME: &'static str = "repeat_federations_identical";

    pub fn add(&mut self, first: &[f32], again: &[f32]) {
        self.count += 1;
        let c = bit_identical(Self::NAME, first, again);
        if !c.ok && self.diff.is_none() {
            self.diff = Some(c);
        }
    }

    pub fn check(self) -> Check {
        let count = self.count;
        self.diff.unwrap_or_else(|| {
            Check::new(Self::NAME, true, format!("{count} repeat(s) bit-identical to the first"))
        })
    }
}

/// The round whose decrypted aggregate strays furthest, relative to
/// its bound, from the plaintext FedAvg of the same updates.
#[derive(Debug, Default)]
pub struct WorstError {
    worst: Option<(f64, f64)>,
}

impl WorstError {
    pub fn add(&mut self, spec: &Spec, fedavg: &[f32], decrypted: &[f32]) {
        let err = max_abs_diff(fedavg, decrypted);
        let bound = spec.aggregate_bound(max_abs(fedavg));
        let worse = match self.worst {
            None => true,
            Some((e, b)) => err.is_nan() || err / bound > e / b,
        };
        if worse {
            self.worst = Some((err, bound));
        }
    }

    pub fn check(&self, rounds: usize) -> Check {
        let (err, bound) = self.worst.unwrap_or((f64::NAN, 0.0));
        within(
            "aggregate_vs_fedavg",
            &format!("worst of {rounds} rounds, max |decrypted - plaintext FedAvg|"),
            err,
            bound,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_flipped_bit_fails_bit_identity() {
        let want = vec![0.5f32, -1.25, 3.0];
        assert!(bit_identical("m", &want, &want).ok);
        let mut got = want.clone();
        got[1] = f32::from_bits(got[1].to_bits() ^ 1);
        let c = bit_identical("m", &want, &got);
        assert!(!c.ok);
        assert!(c.detail.contains("coefficient 1"), "{}", c.detail);
        assert!(!bit_identical("m", &want, &want[..2]).ok);
    }

    #[test]
    fn bounds_and_nan() {
        assert!(within("e", "x", 0.5, 1.0).ok);
        assert!(!within("e", "x", 1.5, 1.0).ok);
        assert!(!within("e", "x", f64::NAN, 1.0).ok);
        assert_eq!(max_abs_diff(&[1.0], &[1.0, 2.0]), f64::INFINITY);
    }
}
