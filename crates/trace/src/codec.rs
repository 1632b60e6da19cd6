//! Byte-level codecs for the trace store: LEB128 varints and a small
//! LZ77 compressor that can borrow a *dictionary* — an out-of-band byte
//! prefix the decompressor is assumed to already hold.
//!
//! The dictionary is what makes delta encoding byte-exact and cheap:
//! consecutive `ProgramState` snapshots serialize to nearly identical
//! JSON, so compressing snapshot *n* against snapshot *n-1* as the
//! dictionary reduces it to a handful of copy tokens. Keyframes are the
//! same codec with an empty dictionary. No external compression crate
//! exists in this build environment, so the matcher is hand-rolled: a
//! hash-head / previous-chain table over 4-byte prefixes, greedy longest
//! match, bounded chain walks.
//!
//! The encoder's cost follows the *edit*, not the state size. The
//! dictionary is seeded into the hash table only every `DICT_STRIDE`
//! bytes; a match found at an anchor is extended backwards over the
//! pending literals (LZ4's catch-up), so the bytes between the last match
//! and the anchor are still copied, not sent; and positions a match
//! covers are never inserted. Because an anchor can find a short run that
//! merely recurs elsewhere before the anchor that lines up with the
//! unchanged text, the positions up to one stride past a match's start
//! are searched too, and a match there that catches up as far and
//! reaches further wins. A delta of a 3 KB state that differs in a few
//! places therefore hashes a few hundred anchors and a few dozen other
//! positions, and compares the rest eight bytes at a time. The token
//! format and [`decompress`] do not depend on how matches are found, so a
//! valid stream decodes the same whichever encoder wrote it.

/// Minimum match length worth a copy token (shorter runs stay literal).
const MIN_MATCH: usize = 4;
/// Bound on hash-chain probes per search; caps worst-case compress time.
const MAX_CHAIN: usize = 48;
/// Hash table size (power of two).
const HASH_BITS: u32 = 14;
/// Every how many bytes a dictionary position is seeded into the hash
/// table, and how far past a match's start the encoder looks for a better
/// one. Measured on the 6 766 recorded states of `fib(17)` (~3.3 KB of
/// JSON each, one delta against the previous state per pause, median of
/// five p50s on one core of a 2-vCPU VM), compress time against mean
/// delta size: full-dictionary encoder 29 µs / 25.6 B; stride 1 12 µs /
/// 25.6 B, 2 6.0 µs / 25.5 B, 4 4.3 µs / 25.3 B, 8 4.7 µs / 25.4 B, 16
/// 3.6 µs / 25.5 B. Seeding falls with the stride while the look-ahead
/// grows with it, so time is flat from 4 to 16 within the spread of the
/// runs; 8 keeps every unchanged run of 11 bytes or more findable from
/// the dictionary (16 would need 19). The stride is a property of the
/// encoder, not a setting.
const DICT_STRIDE: usize = 8;
/// Largest uncompressed length [`decompress`] accepts; a header claiming
/// more is treated as corrupt rather than allocated.
pub const MAX_RAW_LEN: u64 = 1 << 28;

/// Appends `v` as an unsigned LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
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

/// Reads an unsigned LEB128 varint at `*pos`, advancing it.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| "varint: unexpected end of input".to_string())?;
        *pos += 1;
        if shift >= 64 {
            return Err("varint: overflow".into());
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[inline]
fn hash4(buf: &[u8], i: usize) -> usize {
    let b = u32::from_le_bytes([buf[i], buf[i + 1], buf[i + 2], buf[i + 3]]);
    (b.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common run of `buf[a..]` and `buf[b..]`, at most `max`,
/// compared eight bytes at a time. `a < b` and `b + max <= buf.len()`.
#[inline]
fn common_len(buf: &[u8], a: usize, b: usize, max: usize) -> usize {
    let mut l = 0;
    while l + 8 <= max {
        let x = u64::from_le_bytes(buf[a + l..a + l + 8].try_into().unwrap());
        let y = u64::from_le_bytes(buf[b + l..b + l + 8].try_into().unwrap());
        if x != y {
            return l + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && buf[a + l] == buf[b + l] {
        l += 1;
    }
    l
}

/// The longest earlier run in `buf` that `buf[pos..]` repeats, as
/// `(length, start)`, found by walking at most [`MAX_CHAIN`] entries of the
/// hash chain for `pos`; `None` below [`MIN_MATCH`] bytes. Stamps below
/// `base` are empty slots.
fn longest_match(
    buf: &[u8],
    head: &[u32],
    prev: &[u32],
    base: u32,
    pos: usize,
) -> Option<(usize, usize)> {
    let max = buf.len() - pos;
    let mut best_len = MIN_MATCH - 1;
    let mut best_at = 0usize;
    let mut cand = head[hash4(buf, pos)];
    let mut chain = 0;
    while cand >= base && chain < MAX_CHAIN {
        let c = (cand - base) as usize;
        // Only a candidate that also matches at `best_len` can beat the
        // best so far.
        if buf[c + best_len] == buf[pos + best_len] {
            let l = common_len(buf, c, pos, max);
            if l > best_len {
                best_len = l;
                best_at = c;
                if l == max {
                    break;
                }
            }
        }
        cand = prev[c];
        chain += 1;
    }
    (best_len >= MIN_MATCH).then_some((best_len, best_at))
}

/// Where a match of `buf[pos..]` against `buf[at..]` really starts: it is
/// extended backwards while the preceding bytes agree, down to
/// `lit_start` (the first pending literal) at most.
fn catch_up(buf: &[u8], mut pos: usize, mut at: usize, lit_start: usize) -> usize {
    while pos > lit_start && at > 0 && buf[at - 1] == buf[pos - 1] {
        pos -= 1;
        at -= 1;
    }
    pos
}

/// Compresses `data` against `dict` (which may be empty). The output can
/// only be decompressed by a caller holding the identical dictionary.
///
/// Token stream layout, after a varint of the uncompressed length:
/// repeated `(lit_len, literal bytes, match_code[, dist])` groups where
/// `match_code == 0` means "no match" (only valid when the group ends the
/// stream) and otherwise encodes a copy of `match_code + MIN_MATCH - 1`
/// bytes from `dist` bytes back in the virtual buffer `dict ++ output`.
///
/// One-shot form of [`Encoder::compress_into`]; a caller compressing
/// many records keeps an [`Encoder`] instead.
pub fn compress(dict: &[u8], data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + data.len() / 4);
    Encoder::new().compress_into(dict, data, &mut out);
    out
}

/// The compressor's working memory, kept between calls so a stream of
/// records pays for it once: the hash-head table, the chain links and the
/// virtual buffer `dict ++ data` the matcher scans. Nothing is allocated
/// before the first call.
///
/// Table entries are *stamps*, `base + position`, and every call starts
/// at a `base` above every stamp an earlier call wrote, so stale entries
/// read as empty without clearing the table. Clearing the 64 KB head
/// table per call instead (`fill`, same output) costs 6.7–6.9 µs per
/// `fib(17)` delta against 5.1–5.4 µs stamped (p50, 8 alternating rounds
/// of 6 766 states, one core of a 2-vCPU VM).
#[derive(Debug, Clone, Default)]
pub struct Encoder {
    head: Vec<u32>,
    prev: Vec<u32>,
    buf: Vec<u8>,
    base: u32,
}

impl Encoder {
    /// An encoder that has not compressed anything yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of working memory held between calls.
    pub fn scratch_bytes(&self) -> u64 {
        ((self.head.capacity() + self.prev.capacity()) * 4 + self.buf.capacity()) as u64
    }

    /// Appends the compressed form of `data` against `dict` to `out`:
    /// exactly the stream [`compress`] returns.
    pub fn compress_into(&mut self, dict: &[u8], data: &[u8], out: &mut Vec<u8>) {
        put_varint(out, data.len() as u64);
        if data.is_empty() {
            return;
        }
        let v = &mut self.buf;
        v.clear();
        v.extend_from_slice(dict);
        v.extend_from_slice(data);
        let n = v.len();
        let span = u32::try_from(n)
            .ok()
            .filter(|&s| s < u32::MAX - 1)
            .expect("compress input under 4 GiB");
        if self.head.is_empty() || self.base > u32::MAX - 1 - span {
            self.head.clear();
            self.head.resize(1 << HASH_BITS, 0);
            self.base = 1;
        }
        let base = self.base;
        self.base += span;
        if self.prev.len() < n {
            self.prev.resize(n, 0);
        }
        let (head, prev) = (&mut self.head[..], &mut self.prev[..]);
        let v = &v[..];

        // Seed sparse dictionary anchors.
        let mut i = 0;
        while i < dict.len() && i + MIN_MATCH <= n {
            let h = hash4(v, i);
            prev[i] = head[h];
            head[h] = base + i as u32;
            i += DICT_STRIDE;
        }

        let mut pos = dict.len();
        let mut lit_start = pos;
        while pos + MIN_MATCH <= n {
            let found = longest_match(v, head, prev, base, pos);
            let h = hash4(v, pos);
            prev[pos] = head[h];
            head[h] = base + pos as u32;
            let Some((len, at)) = found else {
                pos += 1;
                continue;
            };
            let (mut from, mut at) = (pos, at);
            let mut start = catch_up(v, pos, at, lit_start);
            let mut end = pos + len;
            // The anchor that lines up with this stretch of the dictionary
            // may lie up to a stride further on; a match found there that
            // catches up at least as far and reaches further replaces this
            // one (a short run that merely recurs elsewhere, say).
            for q in pos + 1..(pos + DICT_STRIDE).min(end).min(n + 1 - MIN_MATCH) {
                if let Some((lq, aq)) = longest_match(v, head, prev, base, q) {
                    if q + lq > end {
                        let sq = catch_up(v, q, aq, lit_start);
                        if sq <= start {
                            (from, at, start, end) = (q, aq, sq, q + lq);
                        }
                    }
                }
            }
            let lits = &v[lit_start..start];
            put_varint(out, lits.len() as u64);
            out.extend_from_slice(lits);
            put_varint(out, (end - start - MIN_MATCH + 1) as u64);
            put_varint(out, (from - at) as u64);
            pos = end;
            lit_start = pos;
        }
        if lit_start < n {
            let lits = &v[lit_start..];
            put_varint(out, lits.len() as u64);
            out.extend_from_slice(lits);
            put_varint(out, 0); // terminal "no match" group
        }
    }
}

/// Inverse of [`compress`]; `dict` must be byte-identical to the one used
/// at compression time. Corrupt input is an error, never a panic, and
/// never decodes past the length its header declares (at most
/// [`MAX_RAW_LEN`]).
pub fn decompress(dict: &[u8], comp: &[u8]) -> Result<Vec<u8>, String> {
    let mut pos = 0usize;
    let raw_len = get_varint(comp, &mut pos)?;
    if raw_len > MAX_RAW_LEN {
        return Err(format!(
            "lz: declared length {raw_len} exceeds {MAX_RAW_LEN}"
        ));
    }
    let raw_len = raw_len as usize;
    let mut out: Vec<u8> = Vec::with_capacity(raw_len);
    while out.len() < raw_len {
        let room = raw_len - out.len();
        let lit_len = get_varint(comp, &mut pos)?;
        let end = usize::try_from(lit_len)
            .ok()
            .filter(|&l| l <= room)
            .and_then(|l| pos.checked_add(l))
            .filter(|&e| e <= comp.len())
            .ok_or_else(|| "lz: literal run past end of input".to_string())?;
        out.extend_from_slice(&comp[pos..end]);
        pos = end;
        let code = get_varint(comp, &mut pos)?;
        if code == 0 {
            break;
        }
        let room = raw_len - out.len();
        let mlen = usize::try_from(code)
            .ok()
            .and_then(|c| c.checked_add(MIN_MATCH - 1))
            .filter(|&m| m <= room)
            .ok_or_else(|| format!("lz: copy of code {code} past the declared length"))?;
        let dist = get_varint(comp, &mut pos)?;
        let vpos = dict.len() + out.len();
        let src = usize::try_from(dist)
            .ok()
            .filter(|&d| d != 0 && d <= vpos)
            .map(|d| vpos - d)
            .ok_or_else(|| format!("lz: copy distance {dist} out of range"))?;
        copy_match(dict, &mut out, src, mlen);
    }
    if out.len() != raw_len {
        return Err(format!(
            "lz: decoded {} bytes, header promised {raw_len}",
            out.len()
        ));
    }
    Ok(out)
}

/// Appends `len` bytes starting at `src` in the virtual buffer
/// `dict ++ out` to `out`, in slices rather than bytes. An overlapping
/// copy (source closer than `len` behind the end) repeats the bytes it
/// has just produced, one period per slice.
fn copy_match(dict: &[u8], out: &mut Vec<u8>, src: usize, mut len: usize) {
    let mut from = if src < dict.len() {
        let n = len.min(dict.len() - src);
        out.extend_from_slice(&dict[src..src + n]);
        len -= n;
        0 // any remainder continues at the head of `out`
    } else {
        src - dict.len()
    };
    while len > 0 {
        let n = len.min(out.len() - from);
        out.extend_from_within(from..from + n);
        from += n;
        len -= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(dict: &[u8], data: &[u8]) -> usize {
        let c = compress(dict, data);
        let d = decompress(dict, &c).expect("decompress");
        assert_eq!(d, data, "round trip mismatch");
        c.len()
    }

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip(b"", b"");
        roundtrip(b"dictionary", b"");
        roundtrip(b"", b"a");
        roundtrip(b"", b"abc");
        roundtrip(b"abc", b"abc");
    }

    #[test]
    fn repetitive_data_shrinks() {
        let data = b"abcabcabcabcabcabcabcabcabcabc".repeat(20);
        let n = roundtrip(b"", &data);
        assert!(n < data.len() / 4, "compressed {n} of {}", data.len());
    }

    #[test]
    fn near_identical_delta_is_tiny() {
        let a = format!(
            "{{\"x\":{},\"stack\":[1,2,3],\"pad\":\"{}\"}}",
            41,
            "q".repeat(400)
        );
        let b = format!(
            "{{\"x\":{},\"stack\":[1,2,3],\"pad\":\"{}\"}}",
            42,
            "q".repeat(400)
        );
        let n = roundtrip(a.as_bytes(), b.as_bytes());
        assert!(n < 64, "delta against near-identical dict took {n} bytes");
    }

    #[test]
    fn overlapping_copy() {
        // dist < len exercises the byte-at-a-time overlap path (RLE-like).
        let data = vec![7u8; 500];
        roundtrip(b"", &data);
    }

    #[test]
    fn random_like_data_survives() {
        // Deterministic pseudo-random bytes: xorshift.
        let mut s = 0x12345678u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                (s & 0xff) as u8
            })
            .collect();
        roundtrip(b"", &data);
        roundtrip(&data[..1000], &data);
    }

    #[test]
    fn corrupt_input_is_an_error_not_a_panic() {
        let c = compress(b"", b"hello world hello world hello world");
        for cut in 1..c.len() {
            let _ = decompress(b"", &c[..cut]);
        }
        let mut bad = c.clone();
        if bad.len() > 4 {
            bad[3] ^= 0xff;
            let _ = decompress(b"", &bad);
        }
        // Distances pointing before the start must be rejected.
        let mut evil = Vec::new();
        put_varint(&mut evil, 10); // claims 10 bytes
        put_varint(&mut evil, 1); // 1 literal
        evil.push(b'x');
        put_varint(&mut evil, 3); // match of 6
        put_varint(&mut evil, 99); // distance 99: out of range
        assert!(decompress(b"", &evil).is_err());
    }

    #[test]
    fn matches_spanning_dictionary_and_output() {
        // A period-3 run copied out of the dictionary's tail and then out
        // of its own output: one match crosses the boundary and overlaps.
        let dict = b"....xyzxyz";
        let data = b"xyzxyzxyzxyzxyzxyz!";
        roundtrip(dict, data);
        let mut comp = Vec::new();
        put_varint(&mut comp, 12);
        put_varint(&mut comp, 0); // no literals
        put_varint(&mut comp, (12 - MIN_MATCH + 1) as u64); // copy 12…
        put_varint(&mut comp, 3); // …from 3 back: 3 dict bytes, then itself
        assert_eq!(decompress(dict, &comp).unwrap(), b"xyzxyzxyzxyz");
    }

    /// xorshift64: the property cases are seeded, not sampled.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }

        fn bytes(&mut self, n: usize, alphabet: usize) -> Vec<u8> {
            (0..n).map(|_| b'!' + self.below(alphabet) as u8).collect()
        }
    }

    /// A dictionary: empty, tiny, one repeated byte, periodic, JSON-like
    /// nested text, a small alphabet or arbitrary bytes.
    fn dictionary(rng: &mut Rng) -> Vec<u8> {
        let len = match rng.below(4) {
            0 => rng.below(9),
            1 => rng.below(64),
            _ => rng.below(2048),
        };
        match rng.below(7) {
            0 => Vec::new(),
            1 => vec![rng.below(256) as u8; len],
            2 => {
                let period_len = 1 + rng.below(12);
                let period = rng.bytes(period_len, 90);
                period.iter().copied().cycle().take(len).collect()
            }
            3 | 4 => {
                let mut s = String::new();
                let mut depth = 0;
                while s.len() < len {
                    match rng.below(4) {
                        0 if depth < 12 => {
                            s.push_str(&format!("{{\"name\":\"f{}\",\"parent\":", rng.below(9)));
                            depth += 1;
                        }
                        1 => s.push_str(&format!("\"x{}\":{},", rng.below(5), rng.below(1000))),
                        _ => s.push_str("\"value\":{\"Primitive\":{\"Int\":7}},"),
                    }
                }
                s.push_str(&"}".repeat(depth));
                s.into_bytes()
            }
            5 => rng.bytes(len, 4),
            _ => (0..len).map(|_| rng.below(256) as u8).collect(),
        }
    }

    /// A structured edit of `dict`: the shapes consecutive states take.
    fn edited(rng: &mut Rng, dict: &[u8]) -> Vec<u8> {
        let mut d = dict.to_vec();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(d.len() + 1);
            let run = 1 + rng.below(40);
            match rng.below(8) {
                // Insert.
                0 => {
                    let ins = rng.bytes(run, 60);
                    d.splice(at..at, ins);
                }
                // Delete.
                1 => {
                    let end = (at + run).min(d.len());
                    d.drain(at..end);
                }
                // Replace.
                2 => {
                    let end = (at + run).min(d.len());
                    let rep_len = rng.below(2 * run);
                    let rep = rng.bytes(rep_len, 60);
                    d.splice(at..end, rep);
                }
                // Shifted copy: a rotation, or a window of the original.
                3 => d.rotate_left(at),
                4 => {
                    let end = (at + rng.below(dict.len() + 1)).min(dict.len());
                    d = dict[at.min(end)..end].to_vec();
                }
                // Frame push: wrap in a nested prefix and its closing run.
                5 => {
                    let depth = 1 + rng.below(4);
                    let mut w = Vec::new();
                    for k in 0..depth {
                        w.extend_from_slice(format!("{{\"name\":\"g{k}\",\"parent\":").as_bytes());
                    }
                    w.extend_from_slice(&d);
                    w.extend(std::iter::repeat_n(b'}', depth));
                    d = w;
                }
                // Longer than the dictionary: it twice over.
                6 => d = [&d[..], dict].concat(),
                // Unrelated data.
                _ => {
                    let len = rng.below(300);
                    d = rng.bytes(len, 200);
                }
            }
        }
        d
    }

    #[test]
    fn seeded_edits_round_trip_and_ignore_encoder_history() {
        let mut rng = Rng(0x00c0_dec5_eed5);
        let mut reused = Encoder::new();
        let mut out = Vec::new();
        let mut longer = 0;
        for case in 0..10_000 {
            let dict = dictionary(&mut rng);
            let data = if case % 10 == 0 {
                dictionary(&mut rng)
            } else {
                edited(&mut rng, &dict)
            };
            longer += usize::from(data.len() > dict.len());
            let comp = compress(&dict, &data);
            let back = decompress(&dict, &comp).unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert!(back == data, "case {case}: round trip mismatch");
            // A long-lived encoder emits exactly the one-shot stream.
            out.clear();
            reused.compress_into(&dict, &data, &mut out);
            assert!(out == comp, "case {case}: reused encoder diverged");
        }
        assert!((2_000..8_000).contains(&longer), "{longer} longer cases");
    }

    #[test]
    fn stamps_survive_the_base_wrapping() {
        let dict = b"{\"frame\":{\"x\":1,\"y\":2},\"pad\":\"qqqqqqqqqqqqqqqq\"}".repeat(8);
        let data = [&b"{\"frame\":{\"x\":3"[..], &dict[14..]].concat();
        let want = compress(&dict, &data);
        let mut enc = Encoder::new();
        enc.compress_into(&dict, &data, &mut Vec::new());
        enc.base = u32::MAX - 2 - (dict.len() + data.len()) as u32;
        for _ in 0..3 {
            let mut out = Vec::new();
            enc.compress_into(&dict, &data, &mut out);
            assert_eq!(out, want);
        }
        assert!(
            enc.base < 4 * (dict.len() + data.len()) as u32,
            "base reset"
        );
    }

    #[test]
    fn an_edit_in_a_long_state_costs_a_few_tokens() {
        // Catch-up recovers the bytes between a stride anchor and the
        // edit: one changed digit is two copies and a literal or two.
        let dict = format!("{{\"pad\":\"{}\",\"x\":41}}", "abcdefghij".repeat(300));
        let data = dict.replace("41", "42");
        for shift in 0..DICT_STRIDE {
            let prefix = "p".repeat(shift);
            let (d, x) = (format!("{prefix}{dict}"), format!("{prefix}{data}"));
            let n = roundtrip(d.as_bytes(), x.as_bytes());
            assert!(n <= 16, "shift {shift}: {n} bytes");
        }
    }

    #[test]
    fn a_run_that_recurs_elsewhere_does_not_split_the_copy() {
        // Every frame repeats the same keys, so right after an edit an
        // anchor in the wrong frame matches a short run first; the
        // look-ahead finds the anchor that lines up with the rest.
        let frame = |k: u32, line: u32| {
            format!(
                "{{\"name\":\"fib\",\"depth\":{k},\"location\":{{\"file\":\"fib.c\",\"line\":{line}}},\
                 \"variables\":{{\"n\":{{\"Int\":{}}}}},\"parent\":",
                17 - k
            )
        };
        let state = |line: u32| {
            let mut s: String = (0..16).map(|k| frame(k, line + k % 3)).collect();
            s.push_str("null");
            s.push_str(&"}".repeat(16));
            s
        };
        let mut sizes = Vec::new();
        for shift in 0..DICT_STRIDE {
            let pad = "p".repeat(shift);
            let dict = format!("{pad}{}", state(3));
            let data = format!("{pad}{}", state(4));
            sizes.push(roundtrip(dict.as_bytes(), data.as_bytes()));
        }
        // Sixteen one-digit edits: ~8 bytes each. Without the look-ahead
        // these deltas take 169–187 bytes.
        assert!(sizes.iter().all(|&n| n <= 140), "{sizes:?}");
    }

    #[test]
    fn declared_length_bounds_every_token() {
        // A copy longer than the header promised is refused, not run.
        let mut long_copy = Vec::new();
        put_varint(&mut long_copy, 5);
        put_varint(&mut long_copy, 1);
        long_copy.push(b'a');
        put_varint(&mut long_copy, 1 << 40);
        put_varint(&mut long_copy, 1);
        assert!(decompress(b"", &long_copy).is_err());
        // So is a literal run longer than the header promised.
        let mut long_lits = Vec::new();
        put_varint(&mut long_lits, 1);
        put_varint(&mut long_lits, 3);
        long_lits.extend_from_slice(b"abc");
        assert!(decompress(b"", &long_lits).is_err());
        // And a header beyond the cap is not allocated.
        let mut huge = Vec::new();
        put_varint(&mut huge, MAX_RAW_LEN + 1);
        assert!(decompress(b"", &huge).is_err());
    }
}
