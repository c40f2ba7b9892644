//! Static rANS entropy coding over context-indexed 64-symbol alphabets.
//!
//! The table-driven alternative to [`crate::rc`]'s bit-serial adaptive
//! coder, after Draco's rANS back end. A stream is coded in two passes:
//! the caller first [`ModelEncoder::put`]s every `(context, symbol)`
//! pair while it walks its data, then [`ModelEncoder::finish`] counts,
//! normalises one frequency table per used context, writes those tables
//! compactly and rANS-encodes the symbols in reverse. Decoding is one
//! forward pass.
//!
//! - **rANS:** 32-bit state, 12-bit frequencies, byte-wise
//!   renormalisation (ryg's `rans_byte` construction). The encoder
//!   starts from `RANS_L` and flushes its final state; the decoder must
//!   land back on `RANS_L` having consumed exactly every byte.
//! - **Tables:** per context a precision `p` (1..=12 bits) chosen by the
//!   encoder to minimise table plus payload bits, then the frequencies
//!   at scale `2^p`. Two-symbol *flag* contexts store both frequencies;
//!   slot contexts store a sparse symbol list. Tables ride at the head of
//!   the raw [`BitWriter`] side stream.
//! - **Frequency cap:** no normalised frequency exceeds [`MAX_FREQ`], so
//!   every coded symbol costs at least `log2(SCALE / MAX_FREQ)` ≈ 0.0227
//!   bits. Decoders rely on this to bound how much output a byte can buy.

use holo_runtime::ser::DecodeError;

/// Frequency precision of the coder, bits.
pub const SCALE_BITS: u32 = 12;
/// Sum of every context's normalised frequencies.
pub const SCALE: u32 = 1 << SCALE_BITS;
/// Symbols per context alphabet.
pub const ALPHABET: usize = 64;
/// Largest normalised frequency (63/64 of the scale).
pub const MAX_FREQ: u32 = SCALE - SCALE / 64;
/// Most contexts one table set may define (ids fit 7 bits).
pub const MAX_CONTEXTS: usize = 128;

/// Lower bound of the normalised rANS state.
const RANS_L: u32 = 1 << 23;
const CTX_ID_BITS: u32 = 7;
const PRECISION_BITS: u32 = 4;
const SYMBOL_BITS: u32 = 6;

/// Largest frequency at table precision `p`: [`MAX_FREQ`] scaled down.
fn cap_at(p: u32) -> u32 {
    MAX_FREQ >> (SCALE_BITS - p)
}

/// Raw bit-packed side stream, LSB first.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    n: u32,
}

impl BitWriter {
    /// Empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the low `bits` (≤ 32) bits of `value`.
    #[inline]
    pub fn write(&mut self, value: u32, bits: u32) {
        debug_assert!(bits <= 32 && (bits == 32 || value >> bits == 0));
        self.acc |= (value as u64) << self.n;
        self.n += bits;
        if self.n >= 32 {
            self.out.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.n -= 32;
        }
    }

    /// Append every bit of `other`.
    pub fn append(&mut self, other: &BitWriter) {
        for chunk in other.out.chunks_exact(4) {
            self.write(u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]), 32);
        }
        self.write(other.acc as u32, other.n);
    }

    /// Flush, zero-padding the last byte.
    pub fn finish(mut self) -> Vec<u8> {
        while self.n > 0 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.n = self.n.saturating_sub(8);
        }
        self.out
    }
}

/// Reader for a [`BitWriter`] stream.
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u64,
    n: u32,
}

impl<'a> BitReader<'a> {
    /// Read `data` from its first bit.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0, acc: 0, n: 0 }
    }

    /// Read `bits` (≤ 32) bits.
    #[inline]
    pub fn read(&mut self, bits: u32) -> Result<u32, DecodeError> {
        if self.n < bits {
            while self.n <= 56 && self.pos < self.data.len() {
                self.acc |= (self.data[self.pos] as u64) << self.n;
                self.pos += 1;
                self.n += 8;
            }
            if self.n < bits {
                return Err(DecodeError::Truncated {
                    needed: self.data.len() + 1,
                    available: self.data.len(),
                });
            }
        }
        let v = (self.acc & ((1u64 << bits) - 1)) as u32;
        self.acc >>= bits;
        self.n -= bits;
        Ok(v)
    }

    /// Require the stream to be spent: no unread byte, and only zero
    /// padding left in the last one.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.pos != self.data.len() || self.n >= 8 || self.acc != 0 {
            return Err(DecodeError::corrupt("rans side stream", "unconsumed raw bits"));
        }
        Ok(())
    }
}

/// Normalise `counts` to frequencies summing to `2^p`: every used symbol
/// gets at least 1, none more than the cap. A context with a single
/// used symbol gets a phantom second symbol (the cap forbids certainty).
/// `None` when the context is unused or `p` is too coarse for it.
fn normalize(counts: &[u32; ALPHABET], p: u32) -> Option<[u16; ALPHABET]> {
    let scale = 1u32 << p;
    let total: u64 = counts.iter().map(|&c| c as u64).sum();
    let present = counts.iter().filter(|&&c| c > 0).count() as u32;
    if total == 0 || present.max(2) > scale {
        return None;
    }
    // First most-frequent symbol.
    let top = (0..ALPHABET).fold(0, |best, s| if counts[s] > counts[best] { s } else { best });
    let mut f = [0u16; ALPHABET];
    if present == 1 {
        let phantom = usize::from(top == 0);
        f[top] = cap_at(p) as u16;
        f[phantom] = (scale - cap_at(p)) as u16;
        return Some(f);
    }
    let mut sum = 0u32;
    for s in 0..ALPHABET {
        if counts[s] > 0 {
            f[s] = ((counts[s] as u64 * scale as u64 / total) as u16).max(1);
            sum += f[s] as u32;
        }
    }
    // Rounding leaves `sum` off the scale: settle the difference on the
    // top symbol first, then on any symbol above 1.
    if sum < scale {
        f[top] += (scale - sum) as u16;
    } else {
        let mut excess = sum - scale;
        for s in std::iter::once(top).chain(0..ALPHABET) {
            let take = excess.min((f[s] as u32).saturating_sub(1));
            f[s] -= take as u16;
            excess -= take;
        }
    }
    let max = (0..ALPHABET).fold(0, |best, s| if f[s] > f[best] { s } else { best });
    let cap = cap_at(p) as u16;
    if f[max] > cap {
        let second = (0..ALPHABET).filter(|&s| s != max).fold(usize::MAX, |best, s| {
            if best == usize::MAX || f[s] > f[best] {
                s
            } else {
                best
            }
        });
        f[second] += f[max] - cap;
        f[max] = cap;
    }
    Some(f)
}

/// Bits a slot table's header and symbol list cost at precision `p`.
fn table_bits(f: &[u16; ALPHABET], flag: bool, p: u32) -> u32 {
    let head = CTX_ID_BITS + PRECISION_BITS;
    if flag {
        return head + 2 * p;
    }
    let mut bits = head + SYMBOL_BITS;
    let mut next = 0usize;
    for s in (0..ALPHABET).filter(|&s| f[s] > 0) {
        bits += p + if s == next { 1 } else { 1 + SYMBOL_BITS };
        next = s + 1;
    }
    bits
}

/// Pass-one symbol sink for a set of contexts.
pub struct ModelEncoder {
    counts: Vec<[u32; ALPHABET]>,
    /// `ctx << 6 | symbol`, in coding order.
    symbols: Vec<u16>,
}

impl ModelEncoder {
    /// A sink for `contexts` (≤ [`MAX_CONTEXTS`]) contexts.
    pub fn new(contexts: usize) -> Self {
        assert!(contexts <= MAX_CONTEXTS);
        Self { counts: vec![[0; ALPHABET]; contexts], symbols: Vec::new() }
    }

    /// Record `symbol` (< 64) in context `ctx`.
    #[inline]
    pub fn put(&mut self, ctx: usize, symbol: u32) {
        debug_assert!((symbol as usize) < ALPHABET);
        self.counts[ctx][symbol as usize] += 1;
        self.symbols.push(((ctx as u16) << SYMBOL_BITS) | symbol as u16);
    }

    /// Pass two: write the tables of every used context to `tables`
    /// (`is_flag(ctx)` marks two-symbol contexts) and return the rANS
    /// stream.
    pub fn finish(self, is_flag: impl Fn(usize) -> bool, tables: &mut BitWriter) -> Vec<u8> {
        // (start, freq) per context and symbol at the full 12-bit scale.
        let mut coding = vec![[(0u16, 0u16); ALPHABET]; self.counts.len()];
        let used: Vec<usize> = (0..self.counts.len()).filter(|&c| self.counts[c] != [0; ALPHABET]).collect();
        tables.write(used.len() as u32, CTX_ID_BITS + 1);
        for &ctx in &used {
            let flag = is_flag(ctx);
            let (p, f) = best_precision(&self.counts[ctx], flag);
            tables.write(ctx as u32, CTX_ID_BITS);
            tables.write(p - 1, PRECISION_BITS);
            if flag {
                tables.write(f[0] as u32, p);
                tables.write(f[1] as u32, p);
            } else {
                let present: Vec<usize> = (0..ALPHABET).filter(|&s| f[s] > 0).collect();
                tables.write(present.len() as u32 - 1, SYMBOL_BITS);
                let mut next = 0usize;
                for &s in &present {
                    if s == next {
                        tables.write(1, 1);
                    } else {
                        tables.write(0, 1);
                        tables.write((s - next) as u32, SYMBOL_BITS);
                    }
                    tables.write(f[s] as u32, p);
                    next = s + 1;
                }
            }
            let shift = SCALE_BITS - p;
            let mut start = 0u16;
            for s in 0..ALPHABET {
                let freq = f[s] << shift;
                coding[ctx][s] = (start, freq);
                start += freq;
            }
        }

        let mut rev: Vec<u8> = Vec::with_capacity(self.symbols.len() / 2 + 8);
        let mut x = RANS_L;
        for &packed in self.symbols.iter().rev() {
            let (start, freq) = coding[(packed >> SYMBOL_BITS) as usize][(packed & 63) as usize];
            let (start, freq) = (start as u32, freq as u32);
            let x_max = ((RANS_L >> SCALE_BITS) << 8) * freq;
            while x >= x_max {
                rev.push(x as u8);
                x >>= 8;
            }
            x = ((x / freq) << SCALE_BITS) + (x % freq) + start;
        }
        rev.extend_from_slice(&x.to_be_bytes());
        rev.reverse();
        rev
    }
}

/// `log2(v)` for `v ≥ 1` in 1/65536ths of a bit, by repeated squaring:
/// integer-only, so table choices are the same on every platform.
fn log2_fixed(v: u32) -> u64 {
    let int = 31 - v.leading_zeros();
    // Mantissa in [1, 2) as Q32.
    let mut m = (v as u64) << (32 - int);
    let mut frac = 0u64;
    for _ in 0..16 {
        m = ((m as u128 * m as u128) >> 32) as u64;
        frac <<= 1;
        if m >= 2 << 32 {
            m >>= 1;
            frac |= 1;
        }
    }
    ((int as u64) << 16) | frac
}

/// The precision (and its table) minimising table plus payload bits.
fn best_precision(counts: &[u32; ALPHABET], flag: bool) -> (u32, [u16; ALPHABET]) {
    let mut best: Option<(u64, u32, [u16; ALPHABET])> = None;
    for p in 1..=SCALE_BITS {
        let Some(f) = normalize(counts, p) else { continue };
        let payload: u64 = (0..ALPHABET)
            .filter(|&s| counts[s] > 0)
            .map(|s| counts[s] as u64 * (((p as u64) << 16) - log2_fixed(f[s] as u32)))
            .sum();
        let cost = payload + ((table_bits(&f, flag, p) as u64) << 16);
        if best.as_ref().is_none_or(|b| cost < b.0) {
            best = Some((cost, p, f));
        }
    }
    let (_, p, f) = best.expect("a used context normalises at 12 bits");
    (p, f)
}

/// One decoded slot context: symbol lookup at the table's precision,
/// start and frequency at the full scale.
struct SlotTable {
    shift: u32,
    lookup: Vec<u8>,
    start: [u16; ALPHABET],
    freq: [u16; ALPHABET],
}

/// Decoder side of the tables [`ModelEncoder::finish`] wrote.
///
/// Flag contexts cost two bytes and decode with one comparison; slot
/// lookups exist only for contexts present in the stream.
pub struct ModelDecoder<'a> {
    /// Full-scale frequency of symbol 0 per flag context; 0 = absent.
    flag_f0: Vec<u16>,
    /// Index into `slots` per context; `u8::MAX` = absent.
    slot_of: Vec<u8>,
    slots: Vec<SlotTable>,
    x: u32,
    input: &'a [u8],
    pos: usize,
}

fn bad_table(detail: &str) -> DecodeError {
    DecodeError::corrupt("rans table", detail)
}

impl<'a> ModelDecoder<'a> {
    /// Read the tables of up to `contexts` contexts from `raw` and open
    /// the rANS stream `input`.
    pub fn new(
        contexts: usize,
        is_flag: impl Fn(usize) -> bool,
        raw: &mut BitReader<'_>,
        input: &'a [u8],
    ) -> Result<Self, DecodeError> {
        let mut dec = Self {
            flag_f0: vec![0; contexts],
            slot_of: vec![u8::MAX; contexts],
            slots: Vec::new(),
            x: 0,
            input,
            pos: 4,
        };
        let mut seen = [false; MAX_CONTEXTS];
        for _ in 0..raw.read(CTX_ID_BITS + 1)? {
            let ctx = raw.read(CTX_ID_BITS)? as usize;
            if ctx >= contexts {
                return Err(bad_table("context id out of range"));
            }
            if std::mem::replace(&mut seen[ctx], true) {
                return Err(bad_table("duplicate context"));
            }
            let p = raw.read(PRECISION_BITS)? + 1;
            if p > SCALE_BITS {
                return Err(bad_table("precision above 12 bits"));
            }
            let mut f = [0u32; ALPHABET];
            if is_flag(ctx) {
                f[0] = raw.read(p)?;
                f[1] = raw.read(p)?;
            } else {
                let n = raw.read(SYMBOL_BITS)? + 1;
                let mut next = 0u32;
                for _ in 0..n {
                    let s = if raw.read(1)? == 1 { next } else { next + raw.read(SYMBOL_BITS)? };
                    if s as usize >= ALPHABET {
                        return Err(bad_table("symbol outside the 64-symbol alphabet"));
                    }
                    f[s as usize] = raw.read(p)?;
                    next = s + 1;
                }
            }
            if f.iter().map(|&v| v as u64).sum::<u64>() != 1u64 << p {
                return Err(bad_table("frequencies do not sum to the scale"));
            }
            if f.iter().any(|&v| v > cap_at(p)) {
                return Err(bad_table("frequency above the cap"));
            }
            // With the sum at the scale, the cap also leaves every flag
            // symbol a nonzero frequency.
            let shift = SCALE_BITS - p;
            if is_flag(ctx) {
                dec.flag_f0[ctx] = (f[0] << shift) as u16;
                continue;
            }
            let mut table =
                SlotTable { shift, lookup: vec![0; 1 << p], start: [0; ALPHABET], freq: [0; ALPHABET] };
            let mut start = 0usize;
            for (s, &width) in f.iter().enumerate() {
                table.lookup[start..start + width as usize].fill(s as u8);
                table.start[s] = (start << shift) as u16;
                table.freq[s] = (width << shift) as u16;
                start += width as usize;
            }
            dec.slot_of[ctx] = dec.slots.len() as u8;
            dec.slots.push(table);
        }
        let head: [u8; 4] = input
            .get(..4)
            .and_then(|b| b.try_into().ok())
            .ok_or(DecodeError::Truncated { needed: 4, available: input.len() })?;
        dec.x = u32::from_le_bytes(head);
        if dec.x < RANS_L {
            return Err(DecodeError::corrupt("rans stream", "initial state below the normalised range"));
        }
        Ok(dec)
    }

    #[inline]
    fn advance(&mut self, slot: u32, start: u32, freq: u32) {
        self.x = freq * (self.x >> SCALE_BITS) + slot - start;
        while self.x < RANS_L {
            // Past-end reads feed zeros; callers poll `exhausted`.
            let b = self.input.get(self.pos).copied().unwrap_or(0);
            self.pos += 1;
            self.x = (self.x << 8) | b as u32;
        }
    }

    /// Decode a bit from flag context `ctx`.
    #[inline]
    pub fn flag(&mut self, ctx: usize) -> Result<bool, DecodeError> {
        let f0 = self.flag_f0[ctx] as u32;
        if f0 == 0 {
            return Err(absent());
        }
        let slot = self.x & (SCALE - 1);
        let bit = slot >= f0;
        let (start, freq) = if bit { (f0, SCALE - f0) } else { (0, f0) };
        self.advance(slot, start, freq);
        Ok(bit)
    }

    /// Decode a symbol from slot context `ctx`.
    #[inline]
    pub fn symbol(&mut self, ctx: usize) -> Result<u32, DecodeError> {
        let t = self.slot_of[ctx];
        if t == u8::MAX {
            return Err(absent());
        }
        let table = &self.slots[t as usize];
        let slot = self.x & (SCALE - 1);
        let s = table.lookup[(slot >> table.shift) as usize] as usize;
        let (start, freq) = (table.start[s] as u32, table.freq[s] as u32);
        self.advance(slot, start, freq);
        Ok(s as u32)
    }

    /// Whether decoding has read past the end of the rANS stream. Valid
    /// streams never do; a decode loop polls this to stop hostile input
    /// from spinning on zero-fed bytes.
    pub fn exhausted(&self) -> bool {
        self.pos > self.input.len()
    }

    /// Require the stream to be spent: every byte read and the state
    /// back where the encoder started.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.exhausted() {
            return Err(DecodeError::Truncated { needed: self.pos, available: self.input.len() });
        }
        if self.pos != self.input.len() || self.x != RANS_L {
            return Err(DecodeError::corrupt("rans stream", "final state does not match the initial state"));
        }
        Ok(())
    }
}

fn absent() -> DecodeError {
    DecodeError::corrupt(
        "rans stream",
        "decoded a symbol with zero frequency (context absent from the table)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_math::Pcg32;

    const CONTEXTS: usize = 6;

    /// Contexts 0 and 1 are flags; 2.. are slot contexts.
    fn is_flag(ctx: usize) -> bool {
        ctx < 2
    }

    fn encode(script: &[(usize, u32)], raw_tail: &[(u32, u32)]) -> (Vec<u8>, Vec<u8>) {
        let mut model = ModelEncoder::new(CONTEXTS);
        for &(ctx, s) in script {
            model.put(ctx, s);
        }
        let mut side = BitWriter::new();
        let symbols = model.finish(is_flag, &mut side);
        for &(v, bits) in raw_tail {
            side.write(v, bits);
        }
        (side.finish(), symbols)
    }

    fn random_script(seed: u64, n: usize) -> Vec<(usize, u32)> {
        let mut rng = Pcg32::new(seed);
        (0..n)
            .map(|_| {
                let ctx = rng.range_u32(CONTEXTS as u32) as usize;
                let s = if is_flag(ctx) {
                    rng.chance(0.9) as u32
                } else {
                    // Geometric-ish slots with a long tail.
                    let span = 1 + rng.range_u32(64);
                    rng.range_u32(span)
                };
                (ctx, s)
            })
            .collect()
    }

    /// One hand-written context table: `(ctx, precision, [(symbol, freq)])`.
    type HandTable<'a> = (u32, u32, &'a [(u32, u32)]);

    fn tables(entries: &[HandTable<'_>]) -> BitWriter {
        let mut w = BitWriter::new();
        w.write(entries.len() as u32, CTX_ID_BITS + 1);
        for &(ctx, p, syms) in entries {
            w.write(ctx, CTX_ID_BITS);
            w.write(p - 1, PRECISION_BITS);
            if is_flag(ctx as usize) {
                for &(_, f) in syms {
                    w.write(f, p);
                }
                continue;
            }
            w.write(syms.len() as u32 - 1, SYMBOL_BITS);
            let mut next = 0;
            for &(s, f) in syms {
                if s == next {
                    w.write(1, 1);
                } else {
                    w.write(0, 1);
                    w.write(s - next, SYMBOL_BITS);
                }
                w.write(f, p);
                next = s + 1;
            }
        }
        w
    }

    fn open(side: &[u8], symbols: &[u8]) -> Result<(), DecodeError> {
        let mut raw = BitReader::new(side);
        ModelDecoder::new(CONTEXTS, is_flag, &mut raw, symbols).map(|_| ())
    }

    fn assert_corrupt(result: Result<(), DecodeError>, needle: &str) {
        match result {
            Err(DecodeError::Corrupt { detail, .. }) => {
                assert!(detail.contains(needle), "expected {needle:?}, got {detail:?}")
            }
            other => panic!("expected a corrupt error containing {needle:?}, got {other:?}"),
        }
    }

    /// A valid rANS stream that decodes nothing: the initial state.
    fn empty_stream() -> Vec<u8> {
        RANS_L.to_le_bytes().to_vec()
    }

    #[test]
    fn roundtrip_mixed_contexts_and_raw_bits() {
        let script = random_script(1, 20_000);
        let tail: Vec<(u32, u32)> = (0..500u32).map(|i| (i & 0x1F, 5)).collect();
        let (side, symbols) = encode(&script, &tail);
        let mut raw = BitReader::new(&side);
        let mut dec = ModelDecoder::new(CONTEXTS, is_flag, &mut raw, &symbols).unwrap();
        for &(ctx, s) in &script {
            let got = if is_flag(ctx) { dec.flag(ctx).unwrap() as u32 } else { dec.symbol(ctx).unwrap() };
            assert_eq!(got, s);
        }
        for &(v, bits) in &tail {
            assert_eq!(raw.read(bits).unwrap(), v);
        }
        dec.finish().unwrap();
        raw.finish().unwrap();
    }

    #[test]
    fn skewed_flags_code_near_entropy() {
        let mut rng = Pcg32::new(2);
        let n = 50_000;
        let script: Vec<(usize, u32)> = (0..n).map(|_| (0, rng.chance(0.05) as u32)).collect();
        let (side, symbols) = encode(&script, &[]);
        // Shannon entropy of Bernoulli(0.05) is ~0.286 bits.
        let entropy_bytes = n as f64 * 0.2864 / 8.0;
        let coded = (side.len() + symbols.len()) as f64;
        assert!(coded < entropy_bytes * 1.02 + 16.0, "coded {coded} vs entropy {entropy_bytes:.0}");
    }

    #[test]
    fn normalized_tables_sum_to_scale_and_respect_the_cap() {
        let mut rng = Pcg32::new(3);
        for case in 0..400 {
            let mut counts = [0u32; ALPHABET];
            let used = 1 + rng.range_u32(64) as usize;
            for _ in 0..used {
                let s = rng.range_u32(64) as usize;
                counts[s] += if case % 3 == 0 { 1 } else { 1 + rng.range_u32(100_000) };
            }
            for p in 1..=SCALE_BITS {
                let Some(f) = normalize(&counts, p) else { continue };
                assert_eq!(f.iter().map(|&v| v as u32).sum::<u32>(), 1 << p, "case {case} p {p}");
                assert!(f.iter().all(|&v| v as u32 <= cap_at(p)), "case {case} p {p}");
                for s in 0..ALPHABET {
                    assert!(counts[s] == 0 || f[s] > 0, "used symbol {s} lost its frequency");
                }
            }
            assert!(normalize(&counts, SCALE_BITS).is_some());
        }
    }

    #[test]
    fn a_certain_symbol_still_costs_its_floor() {
        // 10 000 copies of one symbol: the cap forbids a free symbol, so
        // the stream pays at least log2(SCALE / MAX_FREQ) bits apiece.
        let script = vec![(2usize, 5u32); 10_000];
        let (side, symbols) = encode(&script, &[]);
        let floor_bits = 10_000.0 * (SCALE as f64 / MAX_FREQ as f64).log2();
        assert!((symbols.len() * 8) as f64 >= floor_bits - 32.0, "{} B", symbols.len());
        let mut raw = BitReader::new(&side);
        let mut dec = ModelDecoder::new(CONTEXTS, is_flag, &mut raw, &symbols).unwrap();
        assert!((0..10_000).all(|_| dec.symbol(2).unwrap() == 5));
        dec.finish().unwrap();
    }

    #[test]
    fn fixed_point_log2_tracks_the_float_one() {
        for v in 1..=SCALE {
            let exact = (v as f64).log2() * 65536.0;
            assert!((log2_fixed(v) as f64 - exact).abs() <= 2.0, "log2({v})");
        }
    }

    #[test]
    fn well_formed_hand_table_opens() {
        let side = tables(&[(0, 6, &[(0, 60), (1, 4)]), (3, 3, &[(0, 4), (9, 4)])]).finish();
        open(&side, &empty_stream()).unwrap();
    }

    #[test]
    fn rejects_frequencies_off_the_scale() {
        let side = tables(&[(3, 4, &[(0, 7), (1, 7)])]).finish();
        assert_corrupt(open(&side, &empty_stream()), "do not sum to the scale");
        let side = tables(&[(0, 4, &[(0, 9), (1, 9)])]).finish();
        assert_corrupt(open(&side, &empty_stream()), "do not sum to the scale");
    }

    #[test]
    fn rejects_symbols_outside_the_alphabet() {
        // Gap of 63 after symbol 1 lands on symbol 65.
        let side = tables(&[(4, 4, &[(1, 8), (65, 8)])]).finish();
        assert_corrupt(open(&side, &empty_stream()), "outside the 64-symbol alphabet");
    }

    #[test]
    fn rejects_duplicate_contexts() {
        let flag: &[(u32, u32)] = &[(0, 3), (1, 1)];
        let side = tables(&[(1, 2, flag), (1, 2, flag)]).finish();
        assert_corrupt(open(&side, &empty_stream()), "duplicate context");
    }

    #[test]
    fn rejects_frequencies_above_the_cap() {
        // 4095/4096 sums to the scale but would make symbol 0 nearly free.
        let side = tables(&[(0, 12, &[(0, 4095), (1, 1)])]).finish();
        assert_corrupt(open(&side, &empty_stream()), "above the cap");
        let side = tables(&[(2, 12, &[(7, MAX_FREQ + 1), (8, SCALE - MAX_FREQ - 1)])]).finish();
        assert_corrupt(open(&side, &empty_stream()), "above the cap");
    }

    #[test]
    fn rejects_out_of_range_context_and_precision() {
        let side = tables(&[(CONTEXTS as u32, 1, &[(0, 1), (1, 1)])]).finish();
        assert_corrupt(open(&side, &empty_stream()), "context id out of range");
        let mut w = BitWriter::new();
        w.write(1, CTX_ID_BITS + 1);
        w.write(2, CTX_ID_BITS);
        w.write(12, PRECISION_BITS); // p = 13
        assert_corrupt(open(&w.finish(), &empty_stream()), "precision above 12 bits");
    }

    #[test]
    fn rejects_decoding_from_an_absent_context() {
        let (side, symbols) = encode(&[(0, 1), (2, 3)], &[]);
        let mut raw = BitReader::new(&side);
        let mut dec = ModelDecoder::new(CONTEXTS, is_flag, &mut raw, &symbols).unwrap();
        assert!(matches!(dec.flag(1), Err(DecodeError::Corrupt { .. })));
        assert!(matches!(dec.symbol(4), Err(DecodeError::Corrupt { .. })));
    }

    #[test]
    fn rejects_a_final_state_other_than_the_initial_one() {
        let script = random_script(4, 2_000);
        let (side, symbols) = encode(&script, &[]);
        let mut raw = BitReader::new(&side);
        let mut dec = ModelDecoder::new(CONTEXTS, is_flag, &mut raw, &symbols).unwrap();
        // Stop one symbol short: bytes may be spent, the state is not home.
        for &(ctx, _) in &script[..script.len() - 1] {
            if is_flag(ctx) {
                dec.flag(ctx).unwrap();
            } else {
                dec.symbol(ctx).unwrap();
            }
        }
        assert!(dec.finish().is_err());
        // A forged initial state below the normalised range.
        let mut forged = symbols.clone();
        forged[..4].copy_from_slice(&(RANS_L - 1).to_le_bytes());
        assert!(ModelDecoder::new(CONTEXTS, is_flag, &mut BitReader::new(&side), &forged).is_err());
    }

    #[test]
    fn rejects_unconsumed_raw_bits() {
        let (side, symbols) = encode(&[(0, 0), (0, 1)], &[(5, 3)]);
        let mut raw = BitReader::new(&side);
        ModelDecoder::new(CONTEXTS, is_flag, &mut raw, &symbols).unwrap();
        assert_corrupt(raw.finish(), "unconsumed raw bits");
        assert_eq!(raw.read(3).unwrap(), 5);
        raw.finish().unwrap();
        // A whole trailing byte is unconsumed too.
        let mut padded = side.clone();
        padded.push(0);
        let mut raw = BitReader::new(&padded);
        ModelDecoder::new(CONTEXTS, is_flag, &mut raw, &symbols).unwrap();
        raw.read(3).unwrap();
        assert_corrupt(raw.finish(), "unconsumed raw bits");
    }

    #[test]
    fn truncated_raw_stream_is_a_typed_error() {
        let mut raw = BitReader::new(&[0xAB]);
        assert_eq!(raw.read(8).unwrap(), 0xAB);
        assert!(matches!(raw.read(1), Err(DecodeError::Truncated { .. })));
    }
}
