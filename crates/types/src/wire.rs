//! Columnar wire format: typed column blocks for the streaming protocol.
//!
//! PR 2 made batches columnar inside a PE, but until PR 8 every batch was
//! pivoted back to rows at the wire boundary and re-pivoted on receive —
//! paying the pivot twice and shipping each value as a fat tagged
//! [`Value`]. This module is the replacement: a batch
//! is encoded as one [`BlockChunk`] — a self-describing frame of per-column
//! typed blocks with null bitmaps and cheap compression, modeled on
//! secondary-storage block encoders (dictionary/RLE for strings,
//! delta/bitpacking for integers).
//!
//! ## Frame layout
//!
//! ```text
//! +--------+--------+--------+----------+----------------------------------+
//! | magic  | rows   | ncols  | checksum | column 0 .. column ncols-1       |
//! | "PCB1" | u32 LE | u16 LE | u64 LE   |                                  |
//! +--------+--------+--------+----------+----------------------------------+
//! per column:
//! +-----+---------+-----------------------------------------------------+
//! | tag | len u32 | payload (len bytes)                                 |
//! +-----+---------+-----------------------------------------------------+
//! typed payload (tags 0..=6):
//! +-----------+----------------------------+----------+---------------+
//! | has_nulls | null bitmap ceil(rows/8) B | k varint | body over the |
//! | u8 0/1    | (only if has_nulls == 1)   |          | k non-null    |
//! +-----------+----------------------------+----------+ values in row |
//!                                                      | order         |
//!                                                      +---------------+
//! ```
//!
//! `k` must equal `rows − popcount(null bitmap)`; the redundancy makes a
//! frame whose header row count disagrees with its body structurally
//! invalid rather than a silently shorter column.
//!
//! The checksum is FNV-1a over every byte after the checksum field, so a
//! corrupted frame (bit flip, truncation, fault-injected mutation) is
//! rejected with a protocol error instead of silently mis-decoding.
//!
//! ## Encodings
//!
//! | tag | encoding     | body                                                  |
//! |-----|--------------|-------------------------------------------------------|
//! | 0   | `IntRaw`     | k × i64 LE                                            |
//! | 1   | `IntDelta`   | zigzag-varint first, u8 bit width, bitpacked deltas   |
//! | 2   | `DoubleRaw`  | k × `f64::to_bits` LE (NaN / −0.0 exact)              |
//! | 3   | `BoolBitmap` | ceil(k/8) bytes, one bit per value                    |
//! | 4   | `StrRaw`     | k × (varint len + UTF-8 bytes)                        |
//! | 5   | `StrDict`    | dict entries + bitpacked indices                      |
//! | 6   | `StrDictRle` | dict entries + (varint index, varint run) pairs       |
//! | 7   | `Mixed`      | rows × tagged [`Value`] (no null section) |
//!
//! Encoder selection is a pure cost comparison (see [`choose_int_codec`] and
//! [`choose_str_codec`]) so the heuristics are testable in isolation. Values
//! under null slots are never shipped; the decoder reconstructs the same
//! placeholder defaults (`0`, `0.0`, `false`, `""`) the column builders use,
//! so encode→decode is bit-identical for any canonically built
//! [`ColumnVec`].

use std::borrow::Cow;
use std::collections::HashMap;

use crate::column::ColumnVec;
use crate::error::{PrismaError, Result};
use crate::value::Value;

/// Frame magic: "PRISMA Column Block v1".
///
/// The fingerprint below pins every wire-format constant in this file
/// (`MAGIC`, `HEADER_LEN`, `TAG_*`, `VTAG_*`): `checkx-lint` recomputes
/// the hash and fails when they change without this line being touched.
/// An incompatible change must bump the magic's version digit, then
/// re-pin with `checkx-lint --wire-fingerprint`.
// checkx:wire-fingerprint f28c40ace0bd6006
const MAGIC: &[u8; 4] = b"PCB1";
/// Byte offset of the first column frame (magic + rows + ncols + checksum).
const HEADER_LEN: usize = 4 + 4 + 2 + 8;

// Column encoding tags.
const TAG_INT_RAW: u8 = 0;
const TAG_INT_DELTA: u8 = 1;
const TAG_DOUBLE_RAW: u8 = 2;
const TAG_BOOL_BITMAP: u8 = 3;
const TAG_STR_RAW: u8 = 4;
const TAG_STR_DICT: u8 = 5;
const TAG_STR_DICT_RLE: u8 = 6;
const TAG_MIXED: u8 = 7;

// Mixed-row value tags.
const VTAG_NULL: u8 = 0;
const VTAG_INT: u8 = 1;
const VTAG_DOUBLE: u8 = 2;
const VTAG_BOOL: u8 = 3;
const VTAG_STR: u8 = 4;

/// Build a wire protocol error. Every decode failure funnels through here so
/// the message is greppable (`wire:`) and the variant is uniform.
fn werr(msg: impl std::fmt::Display) -> PrismaError {
    PrismaError::Execution(format!("wire: {msg}"))
}

// ---------------------------------------------------------------------------
// primitives: varints, zigzag, bitpacking, checksum
// ---------------------------------------------------------------------------

/// FNV-1a over `bytes` — the frame checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a [`std::hash::Hasher`] for the dictionary map on the string
/// encode path — the keys are short strings hashed once per value, where
/// the default SipHash is measurable overhead. Also the `Value` fallback
/// of the typed join-key hash kernels ([`crate::ColumnVec::hash_keys_into`]),
/// which continue a running hash through it.
pub(crate) struct FnvHasher(pub(crate) u64);

impl std::hash::Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Default, Clone, Copy)]
struct FnvBuild;

impl std::hash::BuildHasher for FnvBuild {
    type Hasher = FnvHasher;
    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Append a LEB128 varint.
fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Encoded size of a LEB128 varint, for the encoder-selection cost model.
fn varint_len(v: u64) -> usize {
    ((64 - v.leading_zeros()).max(1) as usize).div_ceil(7)
}

/// Bits needed to represent `v` (0 for 0).
#[inline]
fn bits_for(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// Pack `width`-bit values LSB-first into `out`.
fn pack_bits(values: impl Iterator<Item = u64>, width: u32, out: &mut Vec<u8>) {
    debug_assert!(width <= 64);
    if width == 0 {
        return;
    }
    let mut acc: u128 = 0;
    let mut acc_bits: u32 = 0;
    for v in values {
        acc |= u128::from(v) << acc_bits;
        acc_bits += width;
        while acc_bits >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            acc_bits -= 8;
        }
    }
    if acc_bits > 0 {
        out.push(acc as u8);
    }
}

/// Pack a `bool` slice one bit per value, LSB-first.
fn pack_bools(values: impl Iterator<Item = bool>, out: &mut Vec<u8>) {
    pack_bits(values.map(u64::from), 1, out);
}

// ---------------------------------------------------------------------------
// bounds-checked reader
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over an untrusted byte slice. Every read returns
/// a protocol error on underflow — the decoder never panics on a truncated
/// or mangled frame.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(werr(format!(
                "truncated frame: need {n} bytes for {what}, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u16_le(&mut self, what: &str) -> Result<u16> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32_le(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64_le(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn varint(&mut self, what: &str) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8(what)?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(werr(format!("varint overflow in {what}")));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }
}

/// Unpack `width`-bit values from a cursor, LSB-first.
struct BitReader<'c, 'a> {
    cur: &'c mut Cursor<'a>,
    acc: u128,
    acc_bits: u32,
}

impl<'c, 'a> BitReader<'c, 'a> {
    fn new(cur: &'c mut Cursor<'a>) -> BitReader<'c, 'a> {
        BitReader {
            cur,
            acc: 0,
            acc_bits: 0,
        }
    }

    fn read(&mut self, width: u32, what: &str) -> Result<u64> {
        debug_assert!(width <= 64);
        if width == 0 {
            return Ok(0);
        }
        while self.acc_bits < width {
            let byte = self.cur.u8(what)?;
            self.acc |= u128::from(byte) << self.acc_bits;
            self.acc_bits += 8;
        }
        let v = (self.acc & ((1u128 << width) - 1)) as u64;
        self.acc >>= width;
        self.acc_bits -= width;
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// encoder selection (pure, exported for the heuristic property tests)
// ---------------------------------------------------------------------------

/// Integer block encodings the cost model chooses between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntCodec {
    /// 8 bytes per value.
    Raw,
    /// Zigzag-varint anchor + bitpacked zigzag deltas.
    Delta,
}

/// String block encodings the cost model chooses between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrCodec {
    /// Varint length + UTF-8 bytes per value.
    Raw,
    /// First-occurrence dictionary + bitpacked indices.
    Dict,
    /// Dictionary + run-length encoded (index, run) pairs.
    DictRle,
}

/// Body size of the delta encoding for `vals`, or `None` when empty.
fn int_delta_cost(vals: &[i64]) -> Option<usize> {
    let first = *vals.first()?;
    let width = delta_width(vals);
    Some(varint_len(zigzag(first)) + 1 + ((vals.len() - 1) * width as usize).div_ceil(8))
}

/// Bit width of the widest zigzag delta between consecutive values.
fn delta_width(vals: &[i64]) -> u32 {
    vals.windows(2)
        .map(|w| bits_for(zigzag(w[1].wrapping_sub(w[0]))))
        .max()
        .unwrap_or(0)
}

/// Choose the cheaper integer encoding for the non-null values `vals` by
/// comparing exact encoded body sizes. Sequential and clustered data bitpacks
/// to a fraction of raw; adversarial (alternating extreme) data falls back to
/// raw 8-byte values.
pub fn choose_int_codec(vals: &[i64]) -> IntCodec {
    let raw = vals.len() * 8;
    match int_delta_cost(vals) {
        Some(delta) if delta < raw => IntCodec::Delta,
        _ => IntCodec::Raw,
    }
}

/// A first-occurrence dictionary over string values plus per-value indices.
struct StrDictPlan<'a> {
    dict: Vec<&'a str>,
    indices: Vec<u32>,
}

fn str_dict_plan<'a>(vals: &[&'a str]) -> StrDictPlan<'a> {
    let mut dict: Vec<&'a str> = Vec::new();
    let mut seen: HashMap<&'a str, u32, FnvBuild> =
        HashMap::with_capacity_and_hasher(vals.len().min(1024), FnvBuild);
    let mut indices = Vec::with_capacity(vals.len());
    for &v in vals {
        let idx = *seen.entry(v).or_insert_with(|| {
            dict.push(v);
            (dict.len() - 1) as u32
        });
        indices.push(idx);
    }
    StrDictPlan { dict, indices }
}

/// Bit width for dictionary indices over a `d`-entry dictionary.
fn dict_index_width(d: usize) -> u32 {
    if d <= 1 {
        0
    } else {
        bits_for((d - 1) as u64)
    }
}

/// Encoded body sizes for each string codec: `(raw, dict, dict_rle)`.
fn str_costs(vals: &[&str], plan: &StrDictPlan<'_>) -> (usize, usize, usize) {
    let raw: usize = vals.iter().map(|s| varint_len(s.len() as u64) + s.len()).sum();
    let dict_base: usize = varint_len(plan.dict.len() as u64)
        + plan
            .dict
            .iter()
            .map(|s| varint_len(s.len() as u64) + s.len())
            .sum::<usize>();
    let width = dict_index_width(plan.dict.len());
    let dict = dict_base + 1 + (plan.indices.len() * width as usize).div_ceil(8);
    let mut runs = 0usize;
    let mut rle_body = 0usize;
    let mut i = 0;
    while i < plan.indices.len() {
        let idx = plan.indices[i];
        let mut run = 1usize;
        while i + run < plan.indices.len() && plan.indices[i + run] == idx {
            run += 1;
        }
        runs += 1;
        rle_body += varint_len(u64::from(idx)) + varint_len(run as u64);
        i += run;
    }
    let rle = dict_base + varint_len(runs as u64) + rle_body;
    (raw, dict, rle)
}

/// Choose the cheapest string encoding for the non-null values `vals` by
/// comparing exact encoded body sizes: high-cardinality data stays raw,
/// low-cardinality data dictionary-encodes, and sorted/clustered
/// low-cardinality data run-length encodes on top of the dictionary.
pub fn choose_str_codec(vals: &[&str]) -> StrCodec {
    choose_str_codec_with(vals, &str_dict_plan(vals))
}

/// [`choose_str_codec`] against an already-built dictionary plan, so the
/// encoder prices and emits from one plan instead of building it twice.
fn choose_str_codec_with(vals: &[&str], plan: &StrDictPlan<'_>) -> StrCodec {
    let (raw, dict, rle) = str_costs(vals, plan);
    if raw <= dict && raw <= rle {
        StrCodec::Raw
    } else if rle < dict {
        StrCodec::DictRle
    } else {
        StrCodec::Dict
    }
}

// ---------------------------------------------------------------------------
// encode
// ---------------------------------------------------------------------------

/// Split a typed column into its non-null value positions. Returns `None`
/// when the column has no mask (all rows live).
fn live_mask(nulls: Option<&Vec<bool>>) -> Option<&Vec<bool>> {
    nulls.filter(|m| m.iter().any(|&b| b))
}

/// Write the `has_nulls` flag + null bitmap for a typed column payload.
fn put_null_section(nulls: Option<&Vec<bool>>, out: &mut Vec<u8>) {
    match live_mask(nulls) {
        None => out.push(0),
        Some(mask) => {
            out.push(1);
            pack_bools(mask.iter().copied(), out);
        }
    }
}

/// Values of `data` at non-null slots, in row order.
fn non_null<'a, T>(data: &'a [T], nulls: Option<&Vec<bool>>) -> Vec<&'a T> {
    match live_mask(nulls) {
        None => data.iter().collect(),
        Some(mask) => data
            .iter()
            .zip(mask)
            .filter(|(_, &null)| !null)
            .map(|(v, _)| v)
            .collect(),
    }
}

fn encode_int(data: &[i64], nulls: Option<&Vec<bool>>, out: &mut Vec<u8>) -> u8 {
    put_null_section(nulls, out);
    let vals: Vec<i64> = non_null(data, nulls).into_iter().copied().collect();
    put_varint(vals.len() as u64, out);
    match choose_int_codec(&vals) {
        IntCodec::Raw => {
            for v in &vals {
                out.extend_from_slice(&v.to_le_bytes());
            }
            TAG_INT_RAW
        }
        IntCodec::Delta => {
            let first = vals[0];
            put_varint(zigzag(first), out);
            let width = delta_width(&vals);
            out.push(width as u8);
            pack_bits(
                vals.windows(2).map(|w| zigzag(w[1].wrapping_sub(w[0]))),
                width,
                out,
            );
            TAG_INT_DELTA
        }
    }
}

fn encode_double(data: &[f64], nulls: Option<&Vec<bool>>, out: &mut Vec<u8>) -> u8 {
    put_null_section(nulls, out);
    let vals = non_null(data, nulls);
    put_varint(vals.len() as u64, out);
    for v in vals {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    TAG_DOUBLE_RAW
}

fn encode_bool(data: &[bool], nulls: Option<&Vec<bool>>, out: &mut Vec<u8>) -> u8 {
    put_null_section(nulls, out);
    let vals = non_null(data, nulls);
    put_varint(vals.len() as u64, out);
    pack_bools(vals.into_iter().copied(), out);
    TAG_BOOL_BITMAP
}

fn put_str(s: &str, out: &mut Vec<u8>) {
    put_varint(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
}

fn encode_str(data: &[String], nulls: Option<&Vec<bool>>, out: &mut Vec<u8>) -> u8 {
    put_null_section(nulls, out);
    let vals: Vec<&str> = non_null(data, nulls).into_iter().map(String::as_str).collect();
    put_varint(vals.len() as u64, out);
    let plan = str_dict_plan(&vals);
    let codec = choose_str_codec_with(&vals, &plan);
    match codec {
        StrCodec::Raw => {
            for s in &vals {
                put_str(s, out);
            }
            TAG_STR_RAW
        }
        StrCodec::Dict | StrCodec::DictRle => {
            put_varint(plan.dict.len() as u64, out);
            for s in &plan.dict {
                put_str(s, out);
            }
            if codec == StrCodec::Dict {
                let width = dict_index_width(plan.dict.len());
                out.push(width as u8);
                pack_bits(plan.indices.iter().map(|&i| u64::from(i)), width, out);
                TAG_STR_DICT
            } else {
                let mut runs: Vec<(u32, u64)> = Vec::new();
                for &idx in &plan.indices {
                    match runs.last_mut() {
                        Some((last, run)) if *last == idx => *run += 1,
                        _ => runs.push((idx, 1)),
                    }
                }
                put_varint(runs.len() as u64, out);
                for (idx, run) in runs {
                    put_varint(u64::from(idx), out);
                    put_varint(run, out);
                }
                TAG_STR_DICT_RLE
            }
        }
    }
}

fn encode_mixed(vals: &[Value], out: &mut Vec<u8>) -> u8 {
    for v in vals {
        match v {
            Value::Null => out.push(VTAG_NULL),
            Value::Int(i) => {
                out.push(VTAG_INT);
                put_varint(zigzag(*i), out);
            }
            Value::Double(d) => {
                out.push(VTAG_DOUBLE);
                out.extend_from_slice(&d.to_bits().to_le_bytes());
            }
            Value::Bool(b) => {
                out.push(VTAG_BOOL);
                out.push(u8::from(*b));
            }
            Value::Str(s) => {
                out.push(VTAG_STR);
                put_str(s, out);
            }
        }
    }
    TAG_MIXED
}

// ---------------------------------------------------------------------------
// decode
// ---------------------------------------------------------------------------

/// Read the `has_nulls` flag, bitmap and redundant non-null count; returns a
/// `rows`-long mask (or `None`) plus the count of non-null values the body
/// must supply. The declared count must equal `rows − popcount(bitmap)` — the
/// cross-check that makes a header/body row-count mismatch a hard error.
fn read_null_section(cur: &mut Cursor<'_>, rows: usize, col: usize) -> Result<(Option<Vec<bool>>, usize)> {
    let (mask, k) = match cur.u8("null flag")? {
        0 => (None, rows),
        1 => {
            let bytes = cur.take(rows.div_ceil(8), "null bitmap")?;
            let mask: Vec<bool> = (0..rows).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect();
            // Padding bits past `rows` must be zero: a set padding bit means
            // the frame was built against a different row count.
            for (i, &b) in bytes.iter().enumerate() {
                let used = (rows - i * 8).min(8);
                if used < 8 && b >> used != 0 {
                    return Err(werr(format!("column {col}: null bitmap overflows declared row count")));
                }
            }
            let nulls = mask.iter().filter(|&&b| b).count();
            if nulls == 0 {
                (None, rows)
            } else {
                (Some(mask), rows - nulls)
            }
        }
        f => return Err(werr(format!("column {col}: bad null flag {f}"))),
    };
    let declared = cur.varint("non-null count")? as usize;
    if declared != k {
        return Err(werr(format!(
            "column {col}: body declares {declared} values but header row count implies {k} (row-count mismatch)"
        )));
    }
    Ok((mask, k))
}

/// Scatter `vals` into the non-null slots of a `rows`-long data vector,
/// placing `T::default()` under nulls — the same placeholder convention the
/// column builders use, so decode is bit-identical to the canonical column.
fn scatter<T: Default + Clone>(rows: usize, mask: Option<&Vec<bool>>, vals: Vec<T>) -> Vec<T> {
    match mask {
        None => vals,
        Some(mask) => {
            let mut it = vals.into_iter();
            (0..rows)
                .map(|i| if mask[i] { T::default() } else { it.next().expect("scatter count") })
                .collect()
        }
    }
}

fn decode_str_dict(cur: &mut Cursor<'_>, col: usize) -> Result<Vec<String>> {
    let d = cur.varint("dict size")? as usize;
    let mut dict = Vec::with_capacity(d.min(4096));
    for _ in 0..d {
        let len = cur.varint("dict entry length")? as usize;
        let bytes = cur.take(len, "dict entry")?;
        let s = std::str::from_utf8(bytes)
            .map_err(|_| werr(format!("column {col}: dictionary entry is not UTF-8")))?;
        dict.push(s.to_owned());
    }
    Ok(dict)
}

/// Decode one column payload (already length-delimited) into a [`ColumnVec`].
fn decode_column(tag: u8, payload: &[u8], rows: usize, col: usize) -> Result<ColumnVec> {
    let cur = &mut Cursor::new(payload);
    let decoded = match tag {
        TAG_INT_RAW => {
            let (mask, k) = read_null_section(cur, rows, col)?;
            let mut vals = Vec::with_capacity(k);
            for _ in 0..k {
                vals.push(cur.u64_le("int value")? as i64);
            }
            ColumnVec::Int {
                data: scatter(rows, mask.as_ref(), vals),
                nulls: mask,
            }
        }
        TAG_INT_DELTA => {
            let (mask, k) = read_null_section(cur, rows, col)?;
            let mut vals = Vec::with_capacity(k);
            if k > 0 {
                let mut v = unzigzag(cur.varint("delta anchor")?);
                vals.push(v);
                let width = u32::from(cur.u8("delta width")?);
                if width > 64 {
                    return Err(werr(format!("column {col}: delta bit width {width} > 64")));
                }
                let mut bits = BitReader::new(cur);
                for _ in 1..k {
                    v = v.wrapping_add(unzigzag(bits.read(width, "delta")?));
                    vals.push(v);
                }
            }
            ColumnVec::Int {
                data: scatter(rows, mask.as_ref(), vals),
                nulls: mask,
            }
        }
        TAG_DOUBLE_RAW => {
            let (mask, k) = read_null_section(cur, rows, col)?;
            let mut vals = Vec::with_capacity(k);
            for _ in 0..k {
                vals.push(f64::from_bits(cur.u64_le("double value")?));
            }
            ColumnVec::Double {
                data: scatter(rows, mask.as_ref(), vals),
                nulls: mask,
            }
        }
        TAG_BOOL_BITMAP => {
            let (mask, k) = read_null_section(cur, rows, col)?;
            let mut bits = BitReader::new(cur);
            let mut vals = Vec::with_capacity(k);
            for _ in 0..k {
                vals.push(bits.read(1, "bool bitmap")? == 1);
            }
            ColumnVec::Bool {
                data: scatter(rows, mask.as_ref(), vals),
                nulls: mask,
            }
        }
        TAG_STR_RAW => {
            let (mask, k) = read_null_section(cur, rows, col)?;
            let mut vals = Vec::with_capacity(k);
            for _ in 0..k {
                let len = cur.varint("string length")? as usize;
                let bytes = cur.take(len, "string payload")?;
                let s = std::str::from_utf8(bytes)
                    .map_err(|_| werr(format!("column {col}: string is not UTF-8")))?;
                vals.push(s.to_owned());
            }
            ColumnVec::Str {
                data: scatter(rows, mask.as_ref(), vals),
                nulls: mask,
            }
        }
        TAG_STR_DICT => {
            let (mask, k) = read_null_section(cur, rows, col)?;
            let dict = decode_str_dict(cur, col)?;
            if k > 0 && dict.is_empty() {
                return Err(werr(format!("column {col}: empty dictionary for {k} values")));
            }
            let width = u32::from(cur.u8("index width")?);
            if width > 32 {
                return Err(werr(format!("column {col}: index bit width {width} > 32")));
            }
            let mut bits = BitReader::new(cur);
            let mut vals = Vec::with_capacity(k);
            for _ in 0..k {
                let idx = bits.read(width, "dict index")? as usize;
                let s = dict.get(idx).ok_or_else(|| {
                    werr(format!(
                        "column {col}: dictionary index {idx} out of range ({} entries)",
                        dict.len()
                    ))
                })?;
                vals.push(s.clone());
            }
            ColumnVec::Str {
                data: scatter(rows, mask.as_ref(), vals),
                nulls: mask,
            }
        }
        TAG_STR_DICT_RLE => {
            let (mask, k) = read_null_section(cur, rows, col)?;
            let dict = decode_str_dict(cur, col)?;
            let runs = cur.varint("run count")? as usize;
            let mut vals = Vec::with_capacity(k);
            for _ in 0..runs {
                let idx = cur.varint("run index")? as usize;
                let run = cur.varint("run length")? as usize;
                let s = dict.get(idx).ok_or_else(|| {
                    werr(format!(
                        "column {col}: dictionary index {idx} out of range ({} entries)",
                        dict.len()
                    ))
                })?;
                if vals.len() + run > k {
                    return Err(werr(format!(
                        "column {col}: RLE runs exceed declared {k} values"
                    )));
                }
                vals.extend(std::iter::repeat_with(|| s.clone()).take(run));
            }
            if vals.len() != k {
                return Err(werr(format!(
                    "column {col}: RLE runs cover {} of {k} declared values",
                    vals.len()
                )));
            }
            ColumnVec::Str {
                data: scatter(rows, mask.as_ref(), vals),
                nulls: mask,
            }
        }
        TAG_MIXED => {
            let mut vals = Vec::with_capacity(rows);
            for _ in 0..rows {
                let v = match cur.u8("value tag")? {
                    VTAG_NULL => Value::Null,
                    VTAG_INT => Value::Int(unzigzag(cur.varint("int value")?)),
                    VTAG_DOUBLE => Value::Double(f64::from_bits(cur.u64_le("double value")?)),
                    VTAG_BOOL => match cur.u8("bool value")? {
                        0 => Value::Bool(false),
                        1 => Value::Bool(true),
                        b => return Err(werr(format!("column {col}: bad bool byte {b}"))),
                    },
                    VTAG_STR => {
                        let len = cur.varint("string length")? as usize;
                        let bytes = cur.take(len, "string payload")?;
                        let s = std::str::from_utf8(bytes)
                            .map_err(|_| werr(format!("column {col}: string is not UTF-8")))?;
                        Value::Str(s.to_owned())
                    }
                    t => return Err(werr(format!("column {col}: bad value tag {t}"))),
                };
                vals.push(v);
            }
            ColumnVec::Mixed(vals)
        }
        t => return Err(werr(format!("column {col}: unknown encoding tag {t}"))),
    };
    if cur.remaining() != 0 {
        return Err(werr(format!(
            "column {col}: {} trailing bytes after payload (declared row count mismatch?)",
            cur.remaining()
        )));
    }
    Ok(decoded)
}

// ---------------------------------------------------------------------------
// BlockChunk
// ---------------------------------------------------------------------------

/// One encoded batch: a checksummed frame of per-column typed blocks.
///
/// This is the unit the streaming protocol ships: every `BatchChunk` and
/// `ShuffleChunk` payload is a `BlockChunk`. The row count is recorded in
/// the frame header so stream accounting (rows advertised vs. released)
/// works without decoding.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockChunk {
    rows: u32,
    bytes: Vec<u8>,
}

impl BlockChunk {
    /// Encode `cols` (each exactly `rows` long; selections already applied)
    /// into one frame. `Cow::Borrowed` avoids copying pre-gathered columns.
    pub fn from_columns<'a>(
        rows: usize,
        cols: impl IntoIterator<Item = Cow<'a, ColumnVec>>,
    ) -> BlockChunk {
        let rows32 = u32::try_from(rows).expect("batch row count fits in u32");
        let mut bytes = vec![0u8; HEADER_LEN];
        bytes[..4].copy_from_slice(MAGIC);
        bytes[4..8].copy_from_slice(&rows32.to_le_bytes());
        let mut ncols: u16 = 0;
        for col in cols {
            let col = col.as_ref();
            debug_assert_eq!(col.len(), rows, "column length != declared rows");
            let frame_at = bytes.len();
            bytes.push(0); // tag, patched below
            bytes.extend_from_slice(&[0u8; 4]); // payload length, patched below
            let body_at = bytes.len();
            let tag = match col {
                ColumnVec::Int { data, nulls } => encode_int(data, nulls.as_ref(), &mut bytes),
                ColumnVec::Double { data, nulls } => encode_double(data, nulls.as_ref(), &mut bytes),
                ColumnVec::Bool { data, nulls } => encode_bool(data, nulls.as_ref(), &mut bytes),
                ColumnVec::Str { data, nulls } => encode_str(data, nulls.as_ref(), &mut bytes),
                ColumnVec::Mixed(vals) => encode_mixed(vals, &mut bytes),
            };
            let len = u32::try_from(bytes.len() - body_at).expect("column payload fits in u32");
            bytes[frame_at] = tag;
            bytes[frame_at + 1..frame_at + 5].copy_from_slice(&len.to_le_bytes());
            ncols += 1;
        }
        bytes[8..10].copy_from_slice(&ncols.to_le_bytes());
        // The checksum covers the column frames and, folded in, the header
        // fields before it — so a flipped row count is caught too.
        let sum = fnv1a(&bytes[HEADER_LEN..]) ^ fnv1a(&bytes[..10]);
        bytes[10..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        BlockChunk { rows: rows32, bytes }
    }

    /// Number of rows the frame declares (trusted on the send side; the
    /// receive side re-derives it during [`BlockChunk::decode`]).
    pub fn rows(&self) -> usize {
        self.rows as usize
    }

    /// Size of the encoded frame on the metered interconnect, in bits.
    pub fn wire_bits(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }

    /// The raw frame bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Deterministically mangle the frame in place — the fault injector's
    /// model of interconnect bit damage. Even seeds flip one payload byte,
    /// odd seeds truncate the tail; either way [`BlockChunk::decode`] must
    /// reject the frame with a protocol error.
    pub fn corrupt_in_place(&mut self, seed: u64) {
        if self.bytes.len() <= HEADER_LEN {
            self.bytes.push(0xff); // trailing garbage also fails the checksum
            return;
        }
        if seed.is_multiple_of(2) {
            let span = self.bytes.len() - HEADER_LEN;
            let at = HEADER_LEN + (seed as usize) % span;
            self.bytes[at] ^= 0xff;
        } else {
            let keep = HEADER_LEN + (self.bytes.len() - HEADER_LEN) / 2;
            self.bytes.truncate(keep);
        }
    }

    /// Decode the frame back into one [`ColumnVec`] per attribute.
    ///
    /// Every failure mode — truncation, checksum mismatch, bad lengths,
    /// dictionary indices out of range, row-count mismatches, non-UTF-8
    /// strings — returns a `wire:` protocol error; this function never
    /// panics on untrusted bytes.
    pub fn decode(&self) -> Result<Vec<ColumnVec>> {
        let cur = &mut Cursor::new(&self.bytes);
        let magic = cur.take(4, "magic")?;
        if magic != MAGIC {
            return Err(werr("bad frame magic"));
        }
        let rows = cur.u32_le("row count")? as usize;
        let ncols = cur.u16_le("column count")? as usize;
        let declared_sum = cur.u64_le("checksum")?;
        let actual = fnv1a(&self.bytes[HEADER_LEN..]) ^ fnv1a(&self.bytes[..10]);
        if declared_sum != actual {
            return Err(werr("frame checksum mismatch (corrupt block)"));
        }
        let mut cols = Vec::with_capacity(ncols);
        for col in 0..ncols {
            let tag = cur.u8("column tag")?;
            let len = cur.u32_le("column payload length")? as usize;
            let payload = cur.take(len, "column payload")?;
            cols.push(decode_column(tag, payload, rows, col)?);
        }
        if cur.remaining() != 0 {
            return Err(werr(format!("{} trailing bytes after last column", cur.remaining())));
        }
        Ok(cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(col: &ColumnVec) -> ColumnVec {
        let chunk = BlockChunk::from_columns(col.len(), [Cow::Borrowed(col)]);
        let mut cols = chunk.decode().expect("decode");
        assert_eq!(cols.len(), 1);
        cols.pop().unwrap()
    }

    /// Structural equality that treats `f64` bit patterns (NaN, −0.0)
    /// exactly — the derived `PartialEq` on `Vec<f64>` makes NaN ≠ NaN.
    fn cols_bit_eq(a: &ColumnVec, b: &ColumnVec) -> bool {
        fn v_eq(a: &Value, b: &Value) -> bool {
            match (a, b) {
                (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
                _ => a == b,
            }
        }
        match (a, b) {
            (
                ColumnVec::Double { data: da, nulls: na },
                ColumnVec::Double { data: db, nulls: nb },
            ) => {
                na == nb
                    && da.len() == db.len()
                    && da.iter().zip(db).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (ColumnVec::Mixed(va), ColumnVec::Mixed(vb)) => {
                va.len() == vb.len() && va.iter().zip(vb).all(|(x, y)| v_eq(x, y))
            }
            _ => a == b,
        }
    }

    fn vals(vs: &[Value]) -> ColumnVec {
        ColumnVec::from_values(vs.iter())
    }

    #[test]
    fn int_sequential_roundtrips_via_delta() {
        let col = ColumnVec::Int {
            data: (0..1000).collect(),
            nulls: None,
        };
        let chunk = BlockChunk::from_columns(1000, [Cow::Borrowed(&col)]);
        // Sequential data must bitpack far below the 8-byte raw wire.
        assert!(chunk.wire_bits() < 1000 * 64 / 4, "bits={}", chunk.wire_bits());
        assert!(cols_bit_eq(&roundtrip(&col), &col));
    }

    #[test]
    fn int_extremes_roundtrip() {
        let col = ColumnVec::Int {
            data: vec![i64::MIN, i64::MAX, 0, -1, 1, i64::MIN, i64::MAX],
            nulls: None,
        };
        assert!(cols_bit_eq(&roundtrip(&col), &col));
    }

    #[test]
    fn int_with_nulls_roundtrips() {
        let col = vals(&[
            Value::Int(5),
            Value::Null,
            Value::Int(-7),
            Value::Null,
            Value::Int(42),
        ]);
        assert!(cols_bit_eq(&roundtrip(&col), &col));
    }

    #[test]
    fn double_nan_and_negative_zero_are_bit_exact() {
        let col = ColumnVec::Double {
            data: vec![f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5e-300],
            nulls: None,
        };
        assert!(cols_bit_eq(&roundtrip(&col), &col));
    }

    #[test]
    fn bool_with_nulls_roundtrips() {
        let col = vals(&[
            Value::Bool(true),
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Null,
        ]);
        assert!(cols_bit_eq(&roundtrip(&col), &col));
    }

    #[test]
    fn str_low_cardinality_dictionary_compresses() {
        let data: Vec<String> = (0..500).map(|i| format!("tag-{}", i % 4)).collect();
        let col = ColumnVec::Str { data, nulls: None };
        let chunk = BlockChunk::from_columns(500, [Cow::Borrowed(&col)]);
        let raw_bytes: usize = 500 * 6;
        assert!(
            (chunk.wire_bits() / 8) < raw_bytes as u64 / 4,
            "dict wire bytes {} not < raw {}/4",
            chunk.wire_bits() / 8,
            raw_bytes
        );
        assert!(cols_bit_eq(&roundtrip(&col), &col));
    }

    #[test]
    fn str_sorted_low_cardinality_uses_rle() {
        let mut data: Vec<String> = Vec::new();
        for t in 0..3 {
            data.extend(std::iter::repeat_with(|| format!("grp{t}")).take(200));
        }
        let refs: Vec<&str> = data.iter().map(String::as_str).collect();
        assert_eq!(choose_str_codec(&refs), StrCodec::DictRle);
        let col = ColumnVec::Str { data, nulls: None };
        assert!(cols_bit_eq(&roundtrip(&col), &col));
    }

    #[test]
    fn str_high_cardinality_stays_raw() {
        let data: Vec<String> = (0..200).map(|i| format!("unique-value-{i:06}")).collect();
        let refs: Vec<&str> = data.iter().map(String::as_str).collect();
        assert_eq!(choose_str_codec(&refs), StrCodec::Raw);
        let col = ColumnVec::Str { data, nulls: None };
        assert!(cols_bit_eq(&roundtrip(&col), &col));
    }

    #[test]
    fn str_unicode_and_empty_strings_roundtrip() {
        let col = vals(&[
            Value::Str(String::new()),
            Value::Str("héllo wörld ≠ ascii".into()),
            Value::Null,
            Value::Str("日本語".into()),
        ]);
        assert!(cols_bit_eq(&roundtrip(&col), &col));
    }

    #[test]
    fn mixed_fallback_roundtrips() {
        let col = vals(&[
            Value::Int(1),
            Value::Str("two".into()),
            Value::Double(f64::NAN),
            Value::Bool(true),
            Value::Null,
        ]);
        assert!(matches!(col, ColumnVec::Mixed(_)));
        assert!(cols_bit_eq(&roundtrip(&col), &col));
    }

    #[test]
    fn all_null_column_roundtrips() {
        let col = vals(&[Value::Null, Value::Null, Value::Null]);
        assert!(cols_bit_eq(&roundtrip(&col), &col));
    }

    #[test]
    fn empty_and_single_value_columns_roundtrip() {
        for col in [
            ColumnVec::Int { data: vec![], nulls: None },
            ColumnVec::Str { data: vec![], nulls: None },
            ColumnVec::Mixed(vec![]),
            ColumnVec::Int { data: vec![-9], nulls: None },
            ColumnVec::Str { data: vec!["only".into()], nulls: None },
            ColumnVec::Double { data: vec![f64::NAN], nulls: None },
        ] {
            assert!(cols_bit_eq(&roundtrip(&col), &col), "col={col:?}");
        }
    }

    #[test]
    fn multi_column_frame_roundtrips() {
        let a = ColumnVec::Int { data: vec![1, 2, 3], nulls: None };
        let b = vals(&[Value::Str("x".into()), Value::Null, Value::Str("x".into())]);
        let chunk =
            BlockChunk::from_columns(3, [Cow::Borrowed(&a), Cow::Borrowed(&b)]);
        assert_eq!(chunk.rows(), 3);
        let cols = chunk.decode().unwrap();
        assert!(cols_bit_eq(&cols[0], &a));
        assert!(cols_bit_eq(&cols[1], &b));
    }

    #[test]
    fn int_codec_heuristic_picks_delta_for_clustered_raw_for_adversarial() {
        let clustered: Vec<i64> = (0..100).map(|i| 1_000_000 + i).collect();
        assert_eq!(choose_int_codec(&clustered), IntCodec::Delta);
        // Alternating extremes wrap to tiny zigzag deltas, so even that
        // compresses; raw only wins when every delta needs the full 64 bits
        // AND the anchor costs a 10-byte varint.
        let alternating: Vec<i64> = (0..100)
            .map(|i| if i % 2 == 0 { i64::MIN } else { i64::MAX })
            .collect();
        assert_eq!(choose_int_codec(&alternating), IntCodec::Delta);
        let adversarial: Vec<i64> = (0..100)
            .map(|i| if i % 2 == 0 { i64::MIN } else { 0 })
            .collect();
        assert_eq!(choose_int_codec(&adversarial), IntCodec::Raw);
    }

    // ---- corrupt-frame decoding: protocol errors, never panics ----

    fn expect_wire_err(r: Result<Vec<ColumnVec>>) {
        match r {
            Err(PrismaError::Execution(m)) => assert!(m.starts_with("wire:"), "msg: {m}"),
            other => panic!("expected wire error, got {other:?}"),
        }
    }

    fn sample_chunk() -> BlockChunk {
        let a = ColumnVec::Int { data: (0..64).collect(), nulls: None };
        let data: Vec<String> = (0..64).map(|i| format!("s{}", i % 3)).collect();
        let b = ColumnVec::Str { data, nulls: None };
        BlockChunk::from_columns(64, [Cow::Borrowed(&a), Cow::Borrowed(&b)])
    }

    #[test]
    fn truncated_frames_error_at_every_length() {
        let chunk = sample_chunk();
        for keep in 0..chunk.as_bytes().len() {
            let cut = BlockChunk { rows: chunk.rows, bytes: chunk.bytes[..keep].to_vec() };
            expect_wire_err(cut.decode());
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let chunk = sample_chunk();
        for at in 0..chunk.bytes.len() {
            let mut bad = chunk.clone();
            bad.bytes[at] ^= 0x01;
            expect_wire_err(bad.decode());
        }
    }

    #[test]
    fn corrupt_in_place_is_always_detected() {
        for seed in 0..32u64 {
            let mut chunk = sample_chunk();
            chunk.corrupt_in_place(seed);
            expect_wire_err(chunk.decode());
        }
    }

    /// Rebuild the checksum of a hand-mangled frame so the structural
    /// validators (not the checksum) are what reject it.
    fn reseal(bytes: &mut [u8]) {
        let sum = fnv1a(&bytes[HEADER_LEN..]) ^ fnv1a(&bytes[..10]);
        bytes[10..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn declared_row_count_mismatch_is_rejected() {
        let col = ColumnVec::Int { data: vec![1, 2, 3, 4], nulls: None };
        let chunk = BlockChunk::from_columns(4, [Cow::Borrowed(&col)]);
        for rows in [0u32, 2, 5, 1000] {
            let mut bad = chunk.clone();
            bad.bytes[4..8].copy_from_slice(&rows.to_le_bytes());
            reseal(&mut bad.bytes);
            expect_wire_err(bad.decode());
        }
    }

    #[test]
    fn dictionary_index_out_of_range_is_rejected() {
        // Hand-build a StrDictRle column whose run points past the dictionary.
        let mut payload = vec![0u8]; // has_nulls = 0
        put_varint(2, &mut payload); // k = 2 non-null values
        put_varint(1, &mut payload); // dict of 1 entry
        put_str("a", &mut payload);
        put_varint(1, &mut payload); // one run
        put_varint(7, &mut payload); // index 7 — out of range
        put_varint(2, &mut payload); // run length 2
        let mut bytes = vec![0u8; HEADER_LEN];
        bytes[..4].copy_from_slice(MAGIC);
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        bytes[8..10].copy_from_slice(&1u16.to_le_bytes());
        bytes.push(TAG_STR_DICT_RLE);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        reseal(&mut bytes);
        let bad = BlockChunk { rows: 2, bytes };
        expect_wire_err(bad.decode());
    }

    #[test]
    fn bad_column_length_is_rejected() {
        let chunk = sample_chunk();
        // Grow the first column's declared payload length so it swallows the
        // second column's frame header.
        let mut bad = chunk.clone();
        let len = u32::from_le_bytes(bad.bytes[HEADER_LEN + 1..HEADER_LEN + 5].try_into().unwrap());
        bad.bytes[HEADER_LEN + 1..HEADER_LEN + 5].copy_from_slice(&(len + 3).to_le_bytes());
        reseal(&mut bad.bytes);
        expect_wire_err(bad.decode());
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let chunk = sample_chunk();
        let mut bad = chunk.clone();
        bad.bytes[HEADER_LEN] = 99; // column tag
        reseal(&mut bad.bytes);
        expect_wire_err(bad.decode());
        let mut bad = chunk.clone();
        bad.bytes[..4].copy_from_slice(b"NOPE");
        reseal(&mut bad.bytes);
        expect_wire_err(bad.decode());
    }
}
