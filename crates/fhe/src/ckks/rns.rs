//! Residue-number-system (RNS) polynomials for CKKS.
//!
//! A ring element of `R_Q = Z_Q[X]/(X^N + 1)` with `Q = q_0 · q_1 ⋯ q_L`
//! is stored as one residue vector per prime. All homomorphic operations
//! act independently per prime, which keeps every limb in native `u64`
//! arithmetic — the entire scheme runs without big-integer maths except at
//! decode time, where coefficients are CRT-reconstructed.

use rhychee_bigint::{mod_inv, BigUint};
use rhychee_par::Parallelism;

use super::modarith::{add_mod, inv_mod, mul_mod, neg_mod, sub_mod};
use super::ntt::{mul_shoup, shoup};

/// Which basis the residue rows of an [`RnsPoly`] are expressed in.
///
/// `Coeff` rows hold polynomial coefficients; `Eval` rows hold the values
/// of the negacyclic NTT at the 2N-th roots (the "double-CRT" form). The
/// NTT is a per-prime `Z_q`-linear bijection, so additions, subtractions
/// and scalar multiplications are valid — and identical — in either
/// domain; only convolution (`poly_mul`), rescale, digit decomposition
/// and CRT decoding care which domain they run in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Coefficient domain: `residues[i][j]` is coefficient `j` mod `q_i`.
    Coeff,
    /// Evaluation (NTT) domain: `residues[i][j]` is the transform point
    /// `j` of the negacyclic NTT mod `q_i`.
    Eval,
}

/// A polynomial in RNS representation, tagged with its [`Domain`].
///
/// `residues[i][j]` is coefficient (or evaluation point) `j` reduced
/// modulo prime `i`. The active primes are implied by `residues.len()`
/// (the *level* of the polynomial).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsPoly {
    residues: Vec<Vec<u64>>,
    domain: Domain,
}

impl RnsPoly {
    /// The all-zero coefficient-domain polynomial at the given degree and
    /// level.
    pub fn zero(n: usize, levels: usize) -> Self {
        Self::zero_in(n, levels, Domain::Coeff)
    }

    /// The all-zero polynomial in an explicit domain (zero is the same
    /// ring element either way; the tag only steers later dispatch).
    pub fn zero_in(n: usize, levels: usize, domain: Domain) -> Self {
        RnsPoly { residues: vec![vec![0u64; n]; levels], domain }
    }

    /// Assembles a polynomial from per-prime residue rows produced
    /// elsewhere (e.g. a fused per-prime kernel). All rows must share
    /// one length.
    pub(crate) fn from_rows(residues: Vec<Vec<u64>>, domain: Domain) -> Self {
        debug_assert!(residues.windows(2).all(|w| w[0].len() == w[1].len()));
        RnsPoly { residues, domain }
    }

    /// The domain the residue rows are currently expressed in.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Retags the polynomial after its rows were transformed in place.
    ///
    /// The caller must have actually (inverse-)NTT'd every row; this only
    /// flips the bookkeeping bit.
    pub(crate) fn set_domain(&mut self, domain: Domain) {
        self.domain = domain;
    }

    /// Builds an RNS polynomial from signed coefficients.
    ///
    /// Each coefficient is reduced into `[0, q_i)` per prime, mapping
    /// negative values to `q_i - |c|`.
    pub fn from_signed_coeffs(coeffs: &[i64], primes: &[u64]) -> Self {
        let mut out = RnsPoly { residues: Vec::new(), domain: Domain::Coeff };
        out.fill_from_signed(coeffs, primes);
        out
    }

    /// Refills `self` from signed coefficients, reusing the existing row
    /// allocations. Produces the exact shape and values of
    /// [`RnsPoly::from_signed_coeffs`] and retags to `Coeff`.
    pub(crate) fn fill_from_signed(&mut self, coeffs: &[i64], primes: &[u64]) {
        self.ensure_shape(coeffs.len(), primes.len(), Domain::Coeff);
        for (row, &q) in self.residues.iter_mut().zip(primes) {
            for (slot, &c) in row.iter_mut().zip(coeffs) {
                *slot = ((c % q as i64 + q as i64) % q as i64) as u64;
            }
        }
    }

    /// Resizes the residue rows to `levels` rows of `n` limbs each and
    /// retags the domain, reusing allocations where possible. Row
    /// contents are unspecified afterwards — callers must overwrite them.
    pub(crate) fn ensure_shape(&mut self, n: usize, levels: usize, domain: Domain) {
        self.residues.resize_with(levels, Vec::new);
        for row in &mut self.residues {
            row.resize(n, 0);
        }
        self.domain = domain;
    }

    /// Heap bytes held by the residue rows (capacity, not length).
    pub fn heap_bytes(&self) -> u64 {
        8 * self.residues.iter().map(|r| r.capacity() as u64).sum::<u64>()
            + (self.residues.capacity() * std::mem::size_of::<Vec<u64>>()) as u64
    }

    /// Ring degree N.
    pub fn degree(&self) -> usize {
        self.residues.first().map_or(0, Vec::len)
    }

    /// Number of active primes (level + 1).
    pub fn levels(&self) -> usize {
        self.residues.len()
    }

    /// Residues of this polynomial modulo the `i`-th prime.
    pub fn residues(&self, i: usize) -> &[u64] {
        &self.residues[i]
    }

    /// Mutable residues modulo the `i`-th prime.
    pub fn residues_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.residues[i]
    }

    /// All residue rows at once, for kernels that split work per prime
    /// (each row is an independently owned `Vec`, so rows can be handed
    /// to different threads).
    pub fn residues_all_mut(&mut self) -> &mut [Vec<u64>] {
        &mut self.residues
    }

    /// Element-wise addition. Operands must share degree and level.
    ///
    /// # Panics
    ///
    /// Panics on mismatched shapes.
    pub fn add(&self, rhs: &RnsPoly, primes: &[u64]) -> RnsPoly {
        self.zip_with(rhs, primes, add_mod)
    }

    /// Element-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics on mismatched shapes.
    pub fn sub(&self, rhs: &RnsPoly, primes: &[u64]) -> RnsPoly {
        self.zip_with(rhs, primes, sub_mod)
    }

    /// In-place element-wise addition.
    pub fn add_assign(&mut self, rhs: &RnsPoly, primes: &[u64]) {
        assert_eq!(self.levels(), rhs.levels(), "level mismatch");
        assert_eq!(self.domain, rhs.domain, "domain mismatch");
        for (i, &q) in primes.iter().take(self.levels()).enumerate() {
            for (a, &b) in self.residues[i].iter_mut().zip(&rhs.residues[i]) {
                *a = add_mod(*a, b, q);
            }
        }
    }

    /// Negation.
    pub fn neg(&self, primes: &[u64]) -> RnsPoly {
        let residues = self
            .residues
            .iter()
            .zip(primes)
            .map(|(r, &q)| r.iter().map(|&a| neg_mod(a, q)).collect())
            .collect();
        RnsPoly { residues, domain: self.domain }
    }

    /// Multiplies every coefficient by a signed scalar.
    pub fn mul_scalar_signed(&self, scalar: i64, primes: &[u64]) -> RnsPoly {
        let residues = self
            .residues
            .iter()
            .zip(primes)
            .map(|(r, &q)| {
                let s = ((scalar % q as i64 + q as i64) % q as i64) as u64;
                r.iter().map(|&a| mul_mod(a, s, q)).collect()
            })
            .collect();
        RnsPoly { residues, domain: self.domain }
    }

    /// Drops the last prime, rescaling by it: `x ↦ round(x / q_last)`.
    ///
    /// Implements the standard RNS rescale: for each remaining prime
    /// `q_i`, computes `(x_i − x_last) · q_last^{-1} mod q_i`.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial has only one level.
    pub fn rescale(&self, primes: &[u64]) -> RnsPoly {
        self.rescale_with(primes, Parallelism::sequential())
    }

    /// [`RnsPoly::rescale`] with the remaining primes processed in up to
    /// `par.degree()` chunks. Each output row depends only on its own
    /// prime and the dropped one, so the result is bit-identical for
    /// every degree.
    pub fn rescale_with(&self, primes: &[u64], par: Parallelism) -> RnsPoly {
        let l = self.levels();
        assert!(l >= 2, "cannot rescale a level-0 polynomial");
        assert_eq!(self.domain, Domain::Coeff, "rescale requires coefficient domain");
        let q_last = primes[l - 1];
        let last = &self.residues[l - 1];
        let mut residues = vec![Vec::new(); l - 1];
        rhychee_par::for_each_mut(par, &mut residues, |i, row| {
            let q = primes[i];
            let q_last_inv = inv_mod(q_last % q, q);
            *row = self.residues[i]
                .iter()
                .zip(last)
                .map(|(&xi, &xl)| {
                    // Centered lift of x_last before reduction mod q_i so
                    // the rounding error stays within ±1/2.
                    let xl_centered = if xl > q_last / 2 {
                        sub_mod(xi, (xl + q - (q_last % q)) % q, q)
                    } else {
                        sub_mod(xi, xl % q, q)
                    };
                    mul_mod(xl_centered, q_last_inv, q)
                })
                .collect();
        });
        RnsPoly { residues, domain: Domain::Coeff }
    }

    fn zip_with(&self, rhs: &RnsPoly, primes: &[u64], f: fn(u64, u64, u64) -> u64) -> RnsPoly {
        assert_eq!(self.levels(), rhs.levels(), "level mismatch");
        assert_eq!(self.degree(), rhs.degree(), "degree mismatch");
        assert_eq!(self.domain, rhs.domain, "domain mismatch");
        let residues = self
            .residues
            .iter()
            .zip(&rhs.residues)
            .zip(primes)
            .map(|((a, b), &q)| a.iter().zip(b).map(|(&x, &y)| f(x, y, q)).collect())
            .collect();
        RnsPoly { residues, domain: self.domain }
    }

    /// Decomposes every coefficient's *centered integer value* into
    /// `num_digits` signed base-`2^log_base` digits that are globally
    /// consistent across the RNS basis: `Σ_j digit_j · B^j = coeff` as
    /// integers. Each digit polynomial is returned as an [`RnsPoly`] at
    /// the same level, with digit magnitudes `< B`.
    ///
    /// This is the decomposition key switching needs — per-prime digit
    /// extraction would yield residues of *different* integers per prime
    /// and break CRT reconstruction of the switched ciphertext.
    ///
    /// # Panics
    ///
    /// Panics if the digits cannot cover `Q/2` (i.e.
    /// `num_digits · log_base` is too small), if `log_base` is not in
    /// `1..64`, or if the chain is too wide for [`CrtReconstructor`].
    pub fn to_signed_digits(
        &self,
        primes: &[u64],
        log_base: u32,
        num_digits: usize,
    ) -> Vec<RnsPoly> {
        let levels = self.levels();
        assert_eq!(self.domain, Domain::Coeff, "digit decomposition requires coefficient domain");
        assert!((1..64).contains(&log_base), "digit base 2^{log_base} must be in 2^1..2^63");
        let active = &primes[..levels];
        let total_bits: u32 = active.iter().map(|&q| 64 - (q - 1).leading_zeros()).sum();
        assert!(
            num_digits as u32 * log_base >= total_bits,
            "{num_digits} digits of 2^{log_base} cannot cover a {total_bits}-bit modulus"
        );
        let n = self.degree();
        let crt = CrtReconstructor::new(active);
        let width = crt.width;
        let mut out = vec![RnsPoly::zero(n, levels); num_digits];
        let base_mask = (1u64 << log_base) - 1;
        for j in 0..n {
            let (negative, mut mag) = crt.centered_limbs(|i| self.residues[i][j]);
            for digit_poly in out.iter_mut() {
                let limb = mag[0] & base_mask;
                shr_assign(&mut mag[..width], log_base);
                for (i, &q) in active.iter().enumerate() {
                    let r = limb % q;
                    digit_poly.residues_mut(i)[j] = if negative && r != 0 { q - r } else { r };
                }
            }
            debug_assert!(mag.iter().all(|&l| l == 0), "digits must cover the centered value");
        }
        out
    }

    /// CRT-reconstructs each coefficient to a centered `f64` value.
    ///
    /// Coefficients are lifted to `[0, Q)`, re-centered into
    /// `(-Q/2, Q/2]`, and converted to `f64`. The message magnitude in
    /// CKKS is far below `Q/2`, so the conversion is exact enough for
    /// decoding.
    pub fn to_centered_f64(&self, primes: &[u64]) -> Vec<f64> {
        self.to_centered_f64_with(primes, Parallelism::sequential())
    }

    /// [`RnsPoly::to_centered_f64`] with coefficients reconstructed in
    /// up to `par.degree()` chunks. Each coefficient is independent, so
    /// the result is bit-identical for every degree.
    pub fn to_centered_f64_with(&self, primes: &[u64], par: Parallelism) -> Vec<f64> {
        self.to_centered_f64_by(&CrtReconstructor::new(&primes[..self.levels()]), par)
    }

    /// [`RnsPoly::to_centered_f64_with`] with a reconstructor built for
    /// exactly this polynomial's active primes (contexts cache one per
    /// level). Coefficient ranges of at least `CRT_MIN_CHUNK` are
    /// decoded in parallel into their own slices of the output, with no
    /// per-coefficient allocation.
    ///
    /// # Panics
    ///
    /// Panics if `crt` was built for a different number of primes.
    pub fn to_centered_f64_by(&self, crt: &CrtReconstructor, par: Parallelism) -> Vec<f64> {
        let l = self.levels();
        assert_eq!(self.domain, Domain::Coeff, "CRT decode requires coefficient domain");
        assert_eq!(crt.primes.len(), l, "reconstructor built for another level");
        if l == 1 {
            let q = crt.primes[0];
            return self.residues[0]
                .iter()
                .map(|&x| if x > q / 2 { x as f64 - q as f64 } else { x as f64 })
                .collect();
        }
        let mut out = vec![0.0f64; self.degree()];
        let mut chunks: Vec<(usize, &mut [f64])> =
            out.chunks_mut(CRT_MIN_CHUNK).enumerate().collect();
        rhychee_par::for_each_mut(par, &mut chunks, |_, (ci, chunk)| {
            let base = *ci * CRT_MIN_CHUNK;
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = crt.centered_f64_by(|i| self.residues[i][base + k]);
            }
        });
        out
    }
}

/// Coefficients per parallel task of the CRT decode: large enough that
/// a task's reconstruction work outweighs its dispatch.
pub(crate) const CRT_MIN_CHUNK: usize = 1024;

/// Most 64-bit limbs [`CrtReconstructor`] works in. Its largest
/// intermediate is an un-reduced sum below `L·Q`, so chains with
/// `log Q + ⌈log2 L⌉ > 64 · CRT_MAX_LIMBS` are rejected by
/// [`crate::params::CkksParams::validate`].
pub const CRT_MAX_LIMBS: usize = 8;

/// A fixed-width little-endian multi-limb integer; limbs at and above a
/// reconstructor's width are zero.
type Limbs = [u64; CRT_MAX_LIMBS];

/// Precomputed Chinese-remainder reconstruction for a prime basis.
///
/// `Q`, `⌊Q/2⌋` and every `Q/q_i` are held as fixed-width `u64` limbs,
/// so reconstructing a coefficient is a few multiply-accumulates and
/// conditional subtractions on the stack; big integers appear only in
/// [`CrtReconstructor::new`].
#[derive(Debug, Clone)]
pub struct CrtReconstructor {
    primes: Vec<u64>,
    /// `(Q/q_i)^{-1} mod q_i`.
    q_hat_inv: Vec<u64>,
    /// Shoup quotients `⌊q_hat_inv_i · 2^64 / q_i⌋` of the above.
    q_hat_inv_shoup: Vec<u64>,
    /// `Q/q_i`.
    q_hat: Vec<Limbs>,
    q: Limbs,
    half_q: Limbs,
    /// Limbs in use: enough to hold `L·Q`.
    width: usize,
}

impl CrtReconstructor {
    /// Builds a reconstructor for the given coprime basis.
    ///
    /// # Panics
    ///
    /// Panics if `L·Q` needs more than [`CRT_MAX_LIMBS`] limbs.
    pub fn new(primes: &[u64]) -> Self {
        let q = primes.iter().fold(BigUint::one(), |acc, &p| acc.mul_u64(p));
        let width = q.mul_u64(primes.len() as u64).limbs().len();
        assert!(
            width <= CRT_MAX_LIMBS,
            "a {}-bit modulus over {} primes exceeds the {CRT_MAX_LIMBS}-limb CRT",
            q.bits(),
            primes.len()
        );
        let limbs = |v: &BigUint| {
            let mut out = [0u64; CRT_MAX_LIMBS];
            out[..v.limbs().len()].copy_from_slice(v.limbs());
            out
        };
        let q_hat: Vec<BigUint> = primes.iter().map(|&p| q.div_rem_u64(p).0).collect();
        let q_hat_inv: Vec<u64> = primes
            .iter()
            .zip(&q_hat)
            .map(|(&p, h)| {
                let h_mod_p = h.rem_of(&BigUint::from(p));
                let inv = mod_inv(&h_mod_p, &BigUint::from(p)).expect("primes are coprime");
                u64::try_from(&inv).expect("inverse fits in u64")
            })
            .collect();
        CrtReconstructor {
            primes: primes.to_vec(),
            q_hat_inv_shoup: q_hat_inv.iter().zip(primes).map(|(&w, &p)| shoup(w, p)).collect(),
            q_hat_inv,
            q_hat: q_hat.iter().map(limbs).collect(),
            half_q: limbs(&(&q >> 1)),
            q: limbs(&q),
            width,
        }
    }

    /// Reconstructs residues to the centered representative as `f64`.
    ///
    /// # Panics
    ///
    /// Panics if `residues` holds fewer values than there are primes.
    pub fn centered_f64(&self, residues: &[u64]) -> f64 {
        debug_assert_eq!(residues.len(), self.primes.len(), "one residue per prime");
        self.centered_f64_by(|i| residues[i])
    }

    /// Reconstructs residues to `(is_negative, |value|)` of the centered
    /// representative in `(−Q/2, Q/2]`, the magnitude as little-endian
    /// limbs (zero above the reconstructor's width).
    ///
    /// # Panics
    ///
    /// Panics if `residues` holds fewer values than there are primes.
    pub fn centered_parts(&self, residues: &[u64]) -> (bool, [u64; CRT_MAX_LIMBS]) {
        debug_assert_eq!(residues.len(), self.primes.len(), "one residue per prime");
        self.centered_limbs(|i| residues[i])
    }

    fn centered_f64_by(&self, residue: impl Fn(usize) -> u64) -> f64 {
        let (negative, magnitude) = self.centered_limbs(residue);
        let v = limbs_to_f64(&magnitude[..self.width]);
        if negative {
            -v
        } else {
            v
        }
    }

    /// The body of [`CrtReconstructor::centered_parts`], reading residue
    /// `i` through `residue(i)` so callers need not gather them.
    ///
    /// `Σ t_i·(Q/q_i)` with `t_i < q_i` is below `L·Q`, so at most `L − 1`
    /// subtractions of `Q` reduce it into `[0, Q)`.
    fn centered_limbs(&self, residue: impl Fn(usize) -> u64) -> (bool, Limbs) {
        let w = self.width;
        let mut acc = [0u64; CRT_MAX_LIMBS];
        for (i, (((&p, &hat_inv), &hat_inv_shoup), hat)) in self
            .primes
            .iter()
            .zip(&self.q_hat_inv)
            .zip(&self.q_hat_inv_shoup)
            .zip(&self.q_hat)
            .enumerate()
        {
            let t = u128::from(mul_shoup(residue(i), hat_inv, hat_inv_shoup, p));
            let mut carry = 0u128;
            for (a, &h) in acc[..w].iter_mut().zip(&hat[..w]) {
                let s = t * u128::from(h) + u128::from(*a) + carry;
                *a = s as u64;
                carry = s >> 64;
            }
            debug_assert_eq!(carry, 0, "the sum stays below L·Q");
        }
        while !less_than(&acc[..w], &self.q[..w]) {
            sub_assign(&mut acc[..w], &self.q[..w]);
        }
        if less_than(&self.half_q[..w], &acc[..w]) {
            let mut magnitude = self.q;
            sub_assign(&mut magnitude[..w], &acc[..w]);
            (true, magnitude)
        } else {
            (false, acc)
        }
    }
}

/// `a < b` for equal-width little-endian limb slices.
fn less_than(a: &[u64], b: &[u64]) -> bool {
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x < y;
        }
    }
    false
}

/// `a -= b` for equal-width little-endian limb slices with `a ≥ b`.
fn sub_assign(a: &mut [u64], b: &[u64]) {
    let mut borrow = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d, b1) = x.overflowing_sub(y);
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        *x = d;
        borrow = b1 || b2;
    }
    debug_assert!(!borrow, "subtrahend exceeds minuend");
}

/// `a >>= s` for little-endian limbs, `0 < s < 64`.
fn shr_assign(a: &mut [u64], s: u32) {
    let mut carry_in = 0u64;
    for limb in a.iter_mut().rev() {
        let carry_out = *limb << (64 - s);
        *limb = (*limb >> s) | carry_in;
        carry_in = carry_out;
    }
}

/// Converts a non-negative little-endian limb integer to `f64` by
/// Horner's rule from the top limb, rounding at every step. Zero limbs
/// above the value's top limb leave the accumulator at exactly `0.0`,
/// so any width gives the same bits as the value's own limbs would.
fn limbs_to_f64(limbs: &[u64]) -> f64 {
    let mut acc = 0.0f64;
    for &limb in limbs.iter().rev() {
        acc = acc * 1.8446744073709552e19 + limb as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    const PRIMES: [u64; 3] = [1125899906826241, 1125899906629633, 1125899905744897];

    #[test]
    fn signed_round_trip_through_crt() {
        let coeffs = [0i64, 1, -1, 42, -12345, i32::MAX as i64, -(i32::MAX as i64)];
        let p = RnsPoly::from_signed_coeffs(&coeffs, &PRIMES);
        let back = p.to_centered_f64(&PRIMES);
        for (c, b) in coeffs.iter().zip(&back) {
            assert_eq!(*c as f64, *b);
        }
    }

    #[test]
    fn single_prime_fast_path() {
        let coeffs = [7i64, -9, 0];
        let p = RnsPoly::from_signed_coeffs(&coeffs, &PRIMES[..1]);
        assert_eq!(p.to_centered_f64(&PRIMES[..1]), vec![7.0, -9.0, 0.0]);
    }

    #[test]
    fn add_sub_inverse() {
        let a = RnsPoly::from_signed_coeffs(&[5, -3, 100], &PRIMES);
        let b = RnsPoly::from_signed_coeffs(&[2, 8, -50], &PRIMES);
        let sum = a.add(&b, &PRIMES);
        assert_eq!(sum.sub(&b, &PRIMES), a);
        assert_eq!(sum.to_centered_f64(&PRIMES), vec![7.0, 5.0, 50.0]);
    }

    #[test]
    fn neg_is_additive_inverse() {
        let a = RnsPoly::from_signed_coeffs(&[5, -3, 0], &PRIMES);
        let z = a.add(&a.neg(&PRIMES), &PRIMES);
        assert_eq!(z.to_centered_f64(&PRIMES), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn scalar_multiplication() {
        let a = RnsPoly::from_signed_coeffs(&[5, -3, 7], &PRIMES);
        let b = a.mul_scalar_signed(-4, &PRIMES);
        assert_eq!(b.to_centered_f64(&PRIMES), vec![-20.0, 12.0, -28.0]);
    }

    #[test]
    fn rescale_divides_by_last_prime() {
        // Value v encoded across 3 primes; rescale should give round(v / q2).
        let q_last = PRIMES[2] as i64;
        let v = q_last * 7 + 3; // rounds to 7
        let p = RnsPoly::from_signed_coeffs(&[v, -v, 0], &PRIMES);
        let r = p.rescale(&PRIMES);
        assert_eq!(r.levels(), 2);
        let back = r.to_centered_f64(&PRIMES[..2]);
        assert_eq!(back[0], 7.0);
        assert_eq!(back[1], -7.0);
        assert_eq!(back[2], 0.0);
    }

    #[test]
    fn rescale_rounding_error_is_bounded() {
        let q_last = PRIMES[2] as i64;
        for frac in [1i64, q_last / 3, q_last / 2, q_last - 1] {
            let v = q_last * 11 + frac;
            let p = RnsPoly::from_signed_coeffs(&[v], &PRIMES);
            let r = p.rescale(&PRIMES).to_centered_f64(&PRIMES[..2])[0];
            let exact = v as f64 / q_last as f64;
            assert!((r - exact).abs() <= 1.0, "rescale error too large: {r} vs {exact}");
        }
    }

    #[test]
    #[should_panic(expected = "rescale")]
    fn rescale_at_bottom_level_panics() {
        let p = RnsPoly::from_signed_coeffs(&[1], &PRIMES[..1]);
        let _ = p.rescale(&PRIMES[..1]);
    }

    #[test]
    fn add_assign_matches_add() {
        let mut a = RnsPoly::from_signed_coeffs(&[1, 2, 3], &PRIMES);
        let b = RnsPoly::from_signed_coeffs(&[10, -20, 30], &PRIMES);
        let expected = a.add(&b, &PRIMES);
        a.add_assign(&b, &PRIMES);
        assert_eq!(a, expected);
    }

    #[test]
    fn parallel_variants_match_sequential() {
        let coeffs: Vec<i64> = (0..64).map(|i| (i * 7919 - 2048) as i64).collect();
        let p = RnsPoly::from_signed_coeffs(&coeffs, &PRIMES);
        for par in [Parallelism::Fixed(2), Parallelism::Fixed(4), Parallelism::Auto] {
            assert_eq!(p.rescale_with(&PRIMES, par), p.rescale(&PRIMES), "{par}");
            let seq = p.to_centered_f64(&PRIMES);
            let parv = p.to_centered_f64_with(&PRIMES, par);
            assert!(
                seq.iter().zip(&parv).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{par}: reconstruction differs"
            );
        }
    }

    #[test]
    fn limb_f64_conversion_accuracy() {
        assert_eq!(limbs_to_f64(&[]), 0.0);
        assert_eq!(limbs_to_f64(&[0, 0, 0]), 0.0);
        assert_eq!(limbs_to_f64(&[1u64 << 52, 0]), (1u64 << 52) as f64);
        let expected = 2.0f64.powi(128);
        assert!((limbs_to_f64(&[u64::MAX, u64::MAX]) - expected).abs() / expected < 1e-15);
    }

    #[test]
    fn limb_helpers_match_u128() {
        let cases = [0u128, 1, u64::MAX as u128, 1u128 << 64, u128::MAX / 3, u128::MAX];
        let split = |v: u128| [v as u64, (v >> 64) as u64];
        for &a in &cases {
            for &b in &cases {
                assert_eq!(less_than(&split(a), &split(b)), a < b, "{a} < {b}");
                if a >= b {
                    let mut d = split(a);
                    sub_assign(&mut d, &split(b));
                    assert_eq!(d, split(a - b));
                }
            }
            for s in [1u32, 8, 31, 63] {
                let mut v = split(a);
                shr_assign(&mut v, s);
                assert_eq!(v, split(a >> s), "{a} >> {s}");
            }
        }
    }

    /// The big-integer reconstruction the limb code replaced, kept as
    /// its reference: `(Σ t_i·(Q/q_i)) mod Q`, centered into
    /// `(−Q/2, Q/2]`.
    fn oracle_parts(primes: &[u64], residues: &[u64]) -> (bool, BigUint) {
        let q = primes.iter().fold(BigUint::one(), |acc, &p| acc.mul_u64(p));
        let mut acc = BigUint::zero();
        for (&r, &p) in residues.iter().zip(primes) {
            let hat = q.div_rem_u64(p).0;
            let inv = mod_inv(&hat.rem_of(&BigUint::from(p)), &BigUint::from(p)).expect("coprime");
            let t = mul_mod(r, u64::try_from(&inv).expect("fits"), p);
            acc += &hat.mul_u64(t);
        }
        let v = acc.rem_of(&q);
        if v > (&q >> 1) {
            (true, &q - &v)
        } else {
            (false, v)
        }
    }

    /// The reference `f64` conversion: Horner over the value's own limbs.
    fn oracle_f64(primes: &[u64], residues: &[u64]) -> f64 {
        let (negative, magnitude) = oracle_parts(primes, residues);
        let mut v = 0.0f64;
        for &limb in magnitude.limbs().iter().rev() {
            v = v * 1.8446744073709552e19 + limb as f64;
        }
        if negative {
            -v
        } else {
            v
        }
    }

    /// The reference digit decomposition of one coefficient: per digit,
    /// its residue modulo each prime.
    fn oracle_digits(primes: &[u64], residues: &[u64], log_base: u32, digits: usize) -> Vec<u64> {
        let (negative, mut magnitude) = oracle_parts(primes, residues);
        let mut out = Vec::new();
        for _ in 0..digits {
            let limb = magnitude.limbs().first().copied().unwrap_or(0) & ((1u64 << log_base) - 1);
            magnitude = magnitude >> (log_base as usize);
            for &q in primes {
                let r = limb % q;
                out.push(if negative && r != 0 { q - r } else { r });
            }
        }
        assert!(magnitude.is_zero());
        out
    }

    /// The prime chains of the toy and paper parameter sets, as the
    /// context materializes them.
    fn chains() -> &'static [Vec<u64>] {
        static CHAINS: std::sync::OnceLock<Vec<Vec<u64>>> = std::sync::OnceLock::new();
        CHAINS.get_or_init(|| {
            use crate::params::CkksParams;
            [CkksParams::toy(), CkksParams::ckks1(), CkksParams::ckks2(), CkksParams::ckks3()]
                .into_iter()
                .map(|p| crate::ckks::CkksContext::new(p).expect("params").primes().to_vec())
                .collect()
        })
    }

    /// Residues of `v mod q_i`.
    fn residues_of(v: &BigUint, primes: &[u64]) -> Vec<u64> {
        primes.iter().map(|&p| v.div_rem_u64(p).1).collect()
    }

    /// Random residue vectors plus the boundary values 0, 1, ⌊Q/2⌋,
    /// ⌊Q/2⌋ + 1 and Q − 1, as coefficient-domain rows.
    fn boundary_and_random_poly(primes: &[u64], seed: u64, random: usize) -> RnsPoly {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let q = primes.iter().fold(BigUint::one(), |acc, &p| acc.mul_u64(p));
        let half = &q >> 1;
        let mut coeffs: Vec<Vec<u64>> = [
            BigUint::zero(),
            BigUint::one(),
            half.clone(),
            &half + &BigUint::one(),
            &q - &BigUint::one(),
        ]
        .iter()
        .map(|v| residues_of(v, primes))
        .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        coeffs.extend((0..random).map(|_| primes.iter().map(|&p| rng.gen_range(0..p)).collect()));
        let rows = (0..primes.len()).map(|i| coeffs.iter().map(|c| c[i]).collect()).collect();
        RnsPoly::from_rows(rows, Domain::Coeff)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        #[test]
        fn limb_crt_matches_biguint_oracle(
            chain in 0usize..4,
            seed in proptest::prelude::any::<u64>(),
            log_base in 1u32..64,
        ) {
            let primes = &chains()[chain];
            // Enough coefficients for several parallel decode chunks.
            let poly = boundary_and_random_poly(primes, seed, CRT_MIN_CHUNK + 40);
            let crt = CrtReconstructor::new(primes);
            let decoded = poly.to_centered_f64_with(primes, Parallelism::Fixed(3));
            for (j, &got) in decoded.iter().enumerate() {
                let rs: Vec<u64> = (0..primes.len()).map(|i| poly.residues(i)[j]).collect();
                let want = oracle_f64(primes, &rs);
                proptest::prop_assert!(got.to_bits() == want.to_bits(), "coefficient {j}: {got} vs {want}");
                proptest::prop_assert_eq!(crt.centered_f64(&rs).to_bits(), want.to_bits());
                let (negative, magnitude) = crt.centered_parts(&rs);
                let (want_negative, want_magnitude) = oracle_parts(primes, &rs);
                proptest::prop_assert_eq!(negative, want_negative);
                proptest::prop_assert_eq!(BigUint::from_limbs(magnitude.to_vec()), want_magnitude);
            }
            let total_bits: u32 = primes.iter().map(|&q| 64 - (q - 1).leading_zeros()).sum();
            let digits = total_bits.div_ceil(log_base) as usize;
            let got = poly.to_signed_digits(primes, log_base, digits);
            for j in [0usize, 1, 2, 3, 4, 5, 6] {
                let rs: Vec<u64> = (0..primes.len()).map(|i| poly.residues(i)[j]).collect();
                let want = oracle_digits(primes, &rs, log_base, digits);
                let got_j: Vec<u64> = got
                    .iter()
                    .flat_map(|d| (0..primes.len()).map(move |i| d.residues(i)[j]))
                    .collect();
                proptest::prop_assert!(got_j == want, "digits of coefficient {j}");
            }
        }
    }

    #[test]
    fn widest_accepted_chain_reconstructs() {
        use crate::ckks::modarith::find_ntt_primes;
        use crate::params::CkksParams;
        // 8 × 62 bits + ⌈log2 8⌉ = 499 bits: inside the 8-limb cap.
        let params = CkksParams { n: 8, prime_bits: vec![62; 8], scale_bits: 40, sigma: 3.2 };
        params.validate().expect("within the limb cap");
        let primes = find_ntt_primes(62, 8, 16);
        let poly = boundary_and_random_poly(&primes, 5, 16);
        let crt = CrtReconstructor::new(&primes);
        for j in 0..poly.degree() {
            let rs: Vec<u64> = (0..primes.len()).map(|i| poly.residues(i)[j]).collect();
            assert_eq!(crt.centered_f64(&rs).to_bits(), oracle_f64(&primes, &rs).to_bits());
        }
    }

    #[test]
    fn validate_rejects_a_chain_one_limb_past_the_cap() {
        use crate::params::CkksParams;
        let chain = |last: u32| {
            let mut prime_bits = vec![57; 8];
            prime_bits.push(last);
            CkksParams { n: 8, prime_bits, scale_bits: 40, sigma: 3.2 }
        };
        // 8 × 57 + 52 = 508 bits, plus ⌈log2 9⌉ = 512: exactly 8 limbs.
        chain(52).validate().expect("at the limb cap");
        // One more bit needs a ninth limb.
        let err = chain(53).validate().expect_err("past the limb cap");
        assert!(err.to_string().contains("limb"), "{err}");
    }
}
