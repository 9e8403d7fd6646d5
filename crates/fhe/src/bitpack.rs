//! Bit-level packing for ciphertext wire formats.
//!
//! Ciphertext sizes in the paper are counted in *bits* (`2N·log Q` for
//! RLWE, `(n+1)·log q` for LWE). Packing each residue at exactly
//! `⌈log2 q⌉` bits makes our serialized sizes match the analytical
//! formulas, which the channel experiments depend on.
//!
//! The stream is LSB-first within little-endian bytes: bit `k` of the
//! stream is bit `k % 8` of byte `k / 8`. Writer and reader move whole
//! 64-bit words, which is exactly that layout read as little-endian
//! `u64`s, so a value costs a shift and an OR rather than one loop
//! iteration per bit.

use crate::error::FheError;

/// Append-only bit writer (little-endian within bytes).
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Length of `buf` when the writer took it over; the bytes before
    /// it belong to the caller and count toward no [`BitWriter::bit_len`].
    start: usize,
    /// Written bits not yet flushed to `buf`, lowest bit first.
    acc: u64,
    /// Valid bits in `acc`, always below 64.
    acc_bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer that appends to `buf`, starting at its next byte
    /// boundary; [`BitWriter::into_bytes`] hands the extended buffer back.
    pub(crate) fn appending(buf: Vec<u8>) -> Self {
        BitWriter { start: buf.len(), buf, acc: 0, acc_bits: 0 }
    }

    /// Appends the low `bits` bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 64` or if `value` has bits set above `bits`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, bits: u32) {
        assert!(bits <= 64, "cannot write more than 64 bits at once");
        assert!(bits == 64 || value < (1u64 << bits), "value {value} does not fit in {bits} bits");
        if bits == 0 {
            return;
        }
        self.acc |= value << self.acc_bits;
        let filled = self.acc_bits + bits;
        if filled < 64 {
            self.acc_bits = filled;
            return;
        }
        self.buf.extend_from_slice(&self.acc.to_le_bytes());
        // The bits of `value` that did not fit above the old pending ones.
        self.acc = if self.acc_bits == 0 { 0 } else { value >> (64 - self.acc_bits) };
        self.acc_bits = filled - 64;
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        (self.buf.len() - self.start) * 8 + self.acc_bits as usize
    }

    /// Finishes writing and returns the byte buffer, the last byte
    /// zero-padded above the final bit.
    pub fn into_bytes(mut self) -> Vec<u8> {
        let tail = self.acc_bits.div_ceil(8) as usize;
        self.buf.extend_from_slice(&self.acc.to_le_bytes()[..tail]);
        self.buf
    }
}

/// Sequential bit reader over a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    bit_pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, bit_pos: 0 }
    }

    /// Reads the next `bits` bits.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Deserialize`] if the buffer is exhausted; the
    /// failed read consumes nothing.
    #[inline]
    pub fn read_bits(&mut self, bits: u32) -> Result<u64, FheError> {
        assert!(bits <= 64, "cannot read more than 64 bits at once");
        let end = self.bit_pos + bits as usize;
        if end > self.buf.len() * 8 {
            return Err(FheError::Deserialize(format!(
                "unexpected end of buffer at bit {}",
                self.bit_pos
            )));
        }
        if bits == 0 {
            return Ok(0);
        }
        let byte = self.bit_pos / 8;
        let off = (self.bit_pos % 8) as u32;
        let mut value = load_le(self.buf, byte) >> off;
        if off + bits > 64 {
            // The read spans nine bytes; `end` lies inside the buffer, so
            // the ninth exists.
            value |= u64::from(self.buf[byte + 8]) << (64 - off);
        }
        self.bit_pos = end;
        Ok(if bits == 64 { value } else { value & ((1u64 << bits) - 1) })
    }

    /// Bits consumed so far.
    pub fn bit_pos(&self) -> usize {
        self.bit_pos
    }
}

/// The little-endian word starting at byte `at`, zero-filled past the
/// end of `buf`.
#[inline]
fn load_le(buf: &[u8], at: usize) -> u64 {
    match buf.get(at..at + 8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("8 bytes")),
        None => {
            let mut word = [0u8; 8];
            let tail = &buf[at..];
            word[..tail.len()].copy_from_slice(tail);
            u64::from_le_bytes(word)
        }
    }
}

/// Reduces a residue read at `bits_for(q)` bits into `[0, q)`. Any value
/// below `2^bits_for(q)` is below `2q`, so one conditional subtraction
/// gives the same result as `% q`.
#[inline]
pub(crate) fn reduce_once(v: u64, q: u64) -> u64 {
    debug_assert!(v < 2 * q, "{v} is not below 2q for q = {q}");
    if v >= q {
        v - q
    } else {
        v
    }
}

/// Number of bits needed to represent values in `[0, q)`.
pub fn bits_for(q: u64) -> u32 {
    64 - (q - 1).leading_zeros()
}

/// Integer payload budget of one CKKS slot under bit-interleaved
/// packing, in bits.
///
/// A packed slot travels through the encoder as an `f64` and comes back
/// from decryption with an absolute error well below `0.5` at the
/// workspace scales (≥ 2^26), so exact recovery needs the packed
/// integer to stay (a) inside the `f64` mantissa and (b) small enough
/// that the canonical-embedding round trip's *relative* error
/// (~`2^-52 · √N` per slot) keeps the absolute error under the rounding
/// threshold. 32 bits leaves ~20 bits of margin at `N = 8192` — the
/// conservative choice, since a mis-rounded lane corrupts a gradient
/// coordinate silently.
pub const SLOT_PAYLOAD_BITS: u32 = 32;

/// How flat model coordinates map onto CKKS ciphertext slots.
///
/// `Dense` is the paper's layout — one `f32` coordinate per slot.
/// `BitInterleaved` (FedBit-style co-design) quantizes each coordinate
/// to `bits` bits and packs several per slot at a stride wide enough
/// that homomorphically *summing* up to `max_clients` uploads never
/// carries across lane boundaries; the per-client mean is recovered
/// after decryption. Fewer slots per model means fewer ciphertexts,
/// and therefore fewer NTTs, per upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackingLayout {
    /// One coordinate per slot, full `f32` precision.
    Dense,
    /// `bits`-bit quantized coordinates, several per slot.
    BitInterleaved {
        /// Quantization width per coordinate, including the sign
        /// (biased-unsigned on the wire). Must satisfy
        /// `2 ≤ bits` and `bits + ⌈log2 max_clients⌉ ≤`
        /// [`SLOT_PAYLOAD_BITS`].
        bits: u32,
    },
}

impl PackingLayout {
    /// Stride of one packed coordinate in bits: the quantization width
    /// plus headroom for summing `max_clients` lane values without
    /// carry (`max_clients · (2^bits − 1) < 2^lane_bits`).
    ///
    /// # Panics
    ///
    /// Panics on `Dense` (which has no lane structure) and on
    /// `max_clients == 0`.
    pub fn lane_bits(&self, max_clients: usize) -> u32 {
        match self {
            PackingLayout::Dense => panic!("Dense layout has no lanes"),
            PackingLayout::BitInterleaved { bits } => {
                assert!(max_clients > 0, "max_clients must be positive");
                bits + ceil_log2(max_clients)
            }
        }
    }

    /// Coordinates carried per slot: `Dense` → 1;
    /// `BitInterleaved` → `SLOT_PAYLOAD_BITS / lane_bits` (≥ 1 for any
    /// layout that passes [`PackingLayout::validate`]).
    pub fn lanes_per_slot(&self, max_clients: usize) -> usize {
        match self {
            PackingLayout::Dense => 1,
            PackingLayout::BitInterleaved { .. } => {
                (SLOT_PAYLOAD_BITS / self.lane_bits(max_clients)) as usize
            }
        }
    }

    /// Checks that the layout can pack at least one coordinate per slot
    /// with carry-free headroom for `max_clients` summands.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::InvalidParams`] when `bits < 2` (no room for
    /// a sign) or the lane stride exceeds [`SLOT_PAYLOAD_BITS`].
    pub fn validate(&self, max_clients: usize) -> Result<(), FheError> {
        if let PackingLayout::BitInterleaved { bits } = *self {
            if bits < 2 {
                return Err(FheError::InvalidParams(format!(
                    "BitInterleaved needs at least 2 bits per coordinate, got {bits}"
                )));
            }
            if max_clients == 0 {
                return Err(FheError::InvalidParams("max_clients must be positive".into()));
            }
            let lane = bits + ceil_log2(max_clients);
            if lane > SLOT_PAYLOAD_BITS {
                return Err(FheError::InvalidParams(format!(
                    "lane stride {lane} bits ({bits} + ⌈log2 {max_clients}⌉) exceeds the \
                     {SLOT_PAYLOAD_BITS}-bit slot payload budget"
                )));
            }
        }
        Ok(())
    }
}

/// `⌈log2 n⌉` for `n ≥ 1`.
fn ceil_log2(n: usize) -> u32 {
    usize::BITS - (n - 1).leading_zeros()
}

/// Packs lane values (each `< 2^lane_bits`) into one slot word,
/// lane 0 in the least-significant bits.
///
/// # Panics
///
/// Panics when a value overflows its lane or the lanes overflow 64
/// bits — both are internal invariant breaches, not wire-input paths.
pub fn pack_lanes(vals: &[u64], lane_bits: u32) -> u64 {
    assert!(vals.len() as u32 * lane_bits <= 64, "lanes overflow the slot word");
    let mut word = 0u64;
    for (i, &v) in vals.iter().enumerate() {
        assert!(lane_bits == 64 || v < (1u64 << lane_bits), "value {v} overflows {lane_bits} bits");
        word |= v << (i as u32 * lane_bits);
    }
    word
}

/// Extracts lane `lane` (0-based from the least-significant bits) from
/// a packed slot word.
pub fn unpack_lane(word: u64, lane: usize, lane_bits: u32) -> u64 {
    let mask = if lane_bits == 64 { u64::MAX } else { (1u64 << lane_bits) - 1 };
    (word >> (lane as u32 * lane_bits)) & mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn round_trip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFFFF, 16);
        w.write_bits(0, 1);
        w.write_bits(u64::MAX, 64);
        let expected_bits = 3 + 16 + 1 + 64;
        assert_eq!(w.bit_len(), expected_bits);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), expected_bits.div_ceil(8));
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xFFFF);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
    }

    #[test]
    fn random_round_trip() {
        let mut rng = StdRng::seed_from_u64(8);
        let entries: Vec<(u64, u32)> = (0..500)
            .map(|_| {
                let bits = rng.gen_range(1..=63);
                let value = rng.gen::<u64>() & ((1u64 << bits) - 1);
                (value, bits)
            })
            .collect();
        let mut w = BitWriter::new();
        for &(v, b) in &entries {
            w.write_bits(v, b);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, b) in &entries {
            assert_eq!(r.read_bits(b).unwrap(), v);
        }
    }

    #[test]
    fn read_past_end_errors() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        r.read_bits(8).unwrap(); // the padded byte is readable
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        let mut w = BitWriter::new();
        w.write_bits(8, 3);
    }

    #[test]
    fn boundary_width_writes_cross_bytes() {
        // 1-, 63- and 64-bit writes at deliberately unaligned bit
        // positions: every write below starts mid-byte.
        let mut w = BitWriter::new();
        w.write_bits(1, 3); // misalign
        w.write_bits(1, 1);
        w.write_bits((1u64 << 63) - 1, 63);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 1);
        w.write_bits(1u64 << 62, 63);
        assert_eq!(w.bit_len(), 3 + 1 + 63 + 64 + 1 + 63);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 1);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.read_bits(63).unwrap(), (1u64 << 63) - 1);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(63).unwrap(), 1u64 << 62);
    }

    #[test]
    fn read_past_end_is_positional() {
        // A 64-bit read one bit short of the buffer must fail without
        // consuming anything, then succeed at the right width.
        let mut w = BitWriter::new();
        w.write_bits(0xABCD, 16);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(17).is_err());
        assert_eq!(r.bit_pos(), 0, "failed read must not consume bits");
        assert_eq!(r.read_bits(16).unwrap(), 0xABCD);
        assert!(r.read_bits(64).is_err());
    }

    #[test]
    fn lane_round_trip_at_exact_budget() {
        // The exact per-lane budget BitInterleaved uses: bits + ⌈log2 P⌉
        // headroom, lanes_per_slot lanes filling SLOT_PAYLOAD_BITS.
        let layout = PackingLayout::BitInterleaved { bits: 8 };
        for p in [1usize, 2, 3, 4, 7, 8, 16] {
            layout.validate(p).expect("valid");
            let lane_bits = layout.lane_bits(p);
            let lanes = layout.lanes_per_slot(p);
            assert!(lanes as u32 * lane_bits <= SLOT_PAYLOAD_BITS);
            // Worst-case lane value: P clients each contributing the
            // maximum biased coordinate.
            let max_sum = p as u64 * ((1u64 << 8) - 1);
            assert!(max_sum < 1u64 << lane_bits, "P={p}: sums must not carry across lanes");
            let vals: Vec<u64> = (0..lanes).map(|i| max_sum - i as u64).collect();
            let word = pack_lanes(&vals, lane_bits);
            assert!(word < 1u64 << SLOT_PAYLOAD_BITS);
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(unpack_lane(word, i, lane_bits), v);
            }
            // The same values survive a BitWriter/BitReader trip at the
            // lane width — the wire-level counterpart.
            let mut w = BitWriter::new();
            for &v in &vals {
                w.write_bits(v, lane_bits);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &v in &vals {
                assert_eq!(r.read_bits(lane_bits).unwrap(), v);
            }
        }
    }

    #[test]
    fn layout_validation_and_density() {
        assert!(PackingLayout::Dense.validate(0).is_ok(), "Dense ignores clients");
        assert_eq!(PackingLayout::Dense.lanes_per_slot(4), 1);
        let l8 = PackingLayout::BitInterleaved { bits: 8 };
        // P=4 → lane 10 bits → 3 lanes in 32.
        assert_eq!(l8.lane_bits(4), 10);
        assert_eq!(l8.lanes_per_slot(4), 3);
        // P=1 → no headroom → 4 lanes.
        assert_eq!(l8.lane_bits(1), 8);
        assert_eq!(l8.lanes_per_slot(1), 4);
        assert!(PackingLayout::BitInterleaved { bits: 1 }.validate(4).is_err(), "too narrow");
        assert!(PackingLayout::BitInterleaved { bits: 31 }.validate(4).is_err(), "no lane fits");
        assert!(l8.validate(0).is_err(), "zero clients");
        assert!(PackingLayout::BitInterleaved { bits: 30 }.validate(8).is_err());
        assert!(
            PackingLayout::BitInterleaved { bits: 30 }.validate(4).is_ok(),
            "exactly at budget"
        );
    }

    /// The bit-serial packer the word-level one replaced, kept as the
    /// reference its bytes and reads must match.
    mod oracle {
        use crate::error::FheError;

        #[derive(Default)]
        pub struct Writer {
            pub buf: Vec<u8>,
            pub bit_pos: usize,
        }

        impl Writer {
            pub fn write_bits(&mut self, value: u64, bits: u32) {
                for i in 0..bits {
                    let byte = self.bit_pos / 8;
                    if byte == self.buf.len() {
                        self.buf.push(0);
                    }
                    if (value >> i) & 1 == 1 {
                        self.buf[byte] |= 1 << (self.bit_pos % 8);
                    }
                    self.bit_pos += 1;
                }
            }
        }

        pub struct Reader<'a> {
            pub buf: &'a [u8],
            pub bit_pos: usize,
        }

        impl Reader<'_> {
            pub fn read_bits(&mut self, bits: u32) -> Result<u64, FheError> {
                if self.bit_pos + bits as usize > self.buf.len() * 8 {
                    return Err(FheError::Deserialize("end of buffer".into()));
                }
                let mut value = 0u64;
                for i in 0..bits {
                    if (self.buf[self.bit_pos / 8] >> (self.bit_pos % 8)) & 1 == 1 {
                        value |= 1 << i;
                    }
                    self.bit_pos += 1;
                }
                Ok(value)
            }
        }
    }

    fn low_bits(value: u64, bits: u32) -> u64 {
        if bits == 64 {
            value
        } else {
            value & ((1u64 << bits) - 1)
        }
    }

    /// Writes `entries` with both packers, checks the bytes agree, then
    /// reads them back from every prefix `cut` of the buffer with both
    /// readers: values, failing call and position must agree.
    fn check_against_oracle(entries: &[(u64, u32)], cut: usize) -> Result<(), String> {
        let mut w = BitWriter::new();
        let mut o = oracle::Writer::default();
        for &(v, b) in entries {
            w.write_bits(v, b);
            o.write_bits(v, b);
        }
        if w.bit_len() != o.bit_pos {
            return Err(format!("bit_len {} vs {}", w.bit_len(), o.bit_pos));
        }
        let bytes = w.into_bytes();
        if bytes != o.buf {
            return Err("written bytes differ".into());
        }
        let short = &bytes[..cut.min(bytes.len())];
        let mut r = BitReader::new(short);
        let mut ro = oracle::Reader { buf: short, bit_pos: 0 };
        for (k, &(v, b)) in entries.iter().enumerate() {
            match (r.read_bits(b), ro.read_bits(b)) {
                (Ok(x), Ok(y)) if x == y && (short.len() < bytes.len() || x == v) => {}
                (Err(_), Err(_)) if r.bit_pos() == ro.bit_pos => return Ok(()),
                (got, want) => {
                    return Err(format!("read {k} ({b} bits): {got:?} vs oracle {want:?}"));
                }
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn word_packer_matches_bit_serial_oracle(
            values in proptest::prelude::prop::collection::vec(
                proptest::prelude::any::<u64>(), 0..160),
            widths in proptest::prelude::prop::collection::vec(0u32..=64, 160),
            cut in proptest::prelude::any::<u64>(),
        ) {
            let entries: Vec<(u64, u32)> =
                values.iter().zip(&widths).map(|(&v, &b)| (low_bits(v, b), b)).collect();
            let total_bytes = entries.iter().map(|e| e.1 as usize).sum::<usize>().div_ceil(8);
            // The whole buffer, and one prefix of it.
            let full = check_against_oracle(&entries, usize::MAX);
            proptest::prop_assert!(full.is_ok(), "{:?}", full);
            let cut = (cut % (total_bytes as u64 + 1)) as usize;
            let short = check_against_oracle(&entries, cut);
            proptest::prop_assert!(short.is_ok(), "cut at {cut}: {:?}", short);
        }
    }

    #[test]
    fn full_width_writes_at_every_bit_offset_match_the_oracle() {
        let mut rng = StdRng::seed_from_u64(64);
        for offset in 0..64u32 {
            let entries = [
                (low_bits(rng.gen(), offset), offset),
                (rng.gen(), 64),
                (u64::MAX, 64),
                (low_bits(rng.gen(), 63 - offset), 63 - offset),
                (rng.gen(), 64),
            ];
            for cut in 0..=entries.iter().map(|e| e.1 as usize).sum::<usize>().div_ceil(8) {
                check_against_oracle(&entries, cut)
                    .unwrap_or_else(|e| panic!("offset {offset}: {e}"));
            }
        }
    }

    #[test]
    fn appending_writer_extends_the_buffer_it_was_given() {
        let mut fresh = BitWriter::new();
        let mut appended = BitWriter::appending(vec![0xAA, 0xBB]);
        for (v, b) in [(5u64, 3u32), (u64::MAX, 64), (0x1234, 13)] {
            fresh.write_bits(v, b);
            appended.write_bits(v, b);
        }
        assert_eq!(appended.bit_len(), fresh.bit_len());
        let fresh = fresh.into_bytes();
        let appended = appended.into_bytes();
        assert_eq!(&appended[..2], &[0xAA, 0xBB]);
        assert_eq!(&appended[2..], &fresh[..]);
    }

    #[test]
    fn reduce_once_matches_remainder_below_the_packed_width() {
        for q in [2u64, 3, 1024, 1025, (1 << 40) + 1, (1u64 << 61) - 1, (1 << 62) - 57] {
            let top = 1u64 << bits_for(q);
            for v in [0, 1, q - 1, q, q + 1, top - 1, top / 2, top / 2 + 1] {
                if v < top {
                    assert_eq!(reduce_once(v, q), v % q, "{v} mod {q}");
                }
            }
        }
    }

    #[test]
    fn bits_for_moduli() {
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(1024), 10);
        assert_eq!(bits_for(1025), 11);
        assert_eq!(bits_for(1u64 << 61), 61);
        assert_eq!(bits_for((1u64 << 61) - 1), 61);
    }
}
