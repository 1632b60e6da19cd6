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

/// Minimum match length worth a copy token (shorter runs stay literal).
const MIN_MATCH: usize = 4;
/// Bound on hash-chain probes per position; caps worst-case compress time.
const MAX_CHAIN: usize = 48;
/// Hash table size (power of two).
const HASH_BITS: u32 = 14;
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

/// Compresses `data` against `dict` (which may be empty). The output can
/// only be decompressed by a caller holding the identical dictionary.
///
/// Token stream layout, after a varint of the uncompressed length:
/// repeated `(lit_len, literal bytes, match_code[, dist])` groups where
/// `match_code == 0` means "no match" (only valid when the group ends the
/// stream) and otherwise encodes a copy of `match_code + MIN_MATCH - 1`
/// bytes from `dist` bytes back in the virtual buffer `dict ++ output`.
pub fn compress(dict: &[u8], data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + data.len() / 4);
    put_varint(&mut out, data.len() as u64);
    if data.is_empty() {
        return out;
    }

    // Virtual buffer the matcher works over: dictionary then payload.
    let mut v = Vec::with_capacity(dict.len() + data.len());
    v.extend_from_slice(dict);
    v.extend_from_slice(data);

    let mut head = vec![u32::MAX; 1usize << HASH_BITS];
    let mut prev = vec![u32::MAX; v.len()];
    let insert = |head: &mut [u32], prev: &mut [u32], i: usize| {
        if i + MIN_MATCH <= v.len() {
            let h = hash4(&v, i);
            prev[i] = head[h];
            head[h] = i as u32;
        }
    };
    // Seed the table with every dictionary position.
    for i in 0..dict.len() {
        insert(&mut head, &mut prev, i);
    }

    let mut pos = dict.len();
    let mut lit_start = pos;
    while pos < v.len() {
        let mut best_len = 0usize;
        let mut best_at = 0usize;
        if pos + MIN_MATCH <= v.len() {
            let h = hash4(&v, pos);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != u32::MAX && chain < MAX_CHAIN {
                let c = cand as usize;
                let mut l = 0usize;
                let max = v.len() - pos;
                while l < max && v[c + l] == v[pos + l] {
                    l += 1;
                }
                if l >= MIN_MATCH && l > best_len {
                    best_len = l;
                    best_at = c;
                    if l == max {
                        break;
                    }
                }
                cand = prev[c];
                chain += 1;
            }
        }
        if best_len >= MIN_MATCH {
            let lits = &v[lit_start..pos];
            put_varint(&mut out, lits.len() as u64);
            out.extend_from_slice(lits);
            put_varint(&mut out, (best_len - MIN_MATCH + 1) as u64);
            put_varint(&mut out, (pos - best_at) as u64);
            for i in pos..pos + best_len {
                insert(&mut head, &mut prev, i);
            }
            pos += best_len;
            lit_start = pos;
        } else {
            insert(&mut head, &mut prev, pos);
            pos += 1;
        }
    }
    if lit_start < v.len() {
        let lits = &v[lit_start..];
        put_varint(&mut out, lits.len() as u64);
        out.extend_from_slice(lits);
        put_varint(&mut out, 0); // terminal "no match" group
    }
    out
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
