//! The simulated byte-addressable memory of the MiniC virtual machine.
//!
//! The address space mimics a conventional process layout so that teaching
//! tools can show "real" addresses (paper Figs. 6c and 7):
//!
//! ```text
//! 0x000000            NULL page (never mapped; dereference traps)
//! 0x001000  GLOBALS   globals and string literals
//! 0x100000  HEAP      malloc arena, managed by `alloc::Allocator`
//! 0x700000  STACK     grows downward from STACK_TOP
//! 0x800000  STACK_TOP
//! ```
//!
//! All scalars are stored little-endian. Loads and stores are bounds-checked
//! against the segment they fall in; accessing the NULL page or an unmapped
//! address is an error the VM surfaces as a MiniC runtime error.

use std::fmt;
use std::ops::Range;

/// The null address.
pub const NULL: u64 = 0;
/// Base address of the globals segment.
pub const GLOBAL_BASE: u64 = 0x1000;
/// Base address of the heap segment.
pub const HEAP_BASE: u64 = 0x10_0000;
/// Lowest valid stack address.
pub const STACK_BASE: u64 = 0x70_0000;
/// One past the highest stack address; initial stack pointer.
pub const STACK_TOP: u64 = 0x80_0000;
/// Heap capacity in bytes.
pub const HEAP_SIZE: u64 = STACK_BASE - HEAP_BASE;

/// An out-of-segment or null access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemError {
    /// The offending address.
    pub addr: u64,
    /// Number of bytes of the attempted access.
    pub size: u64,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid memory access of {} byte(s) at {:#x}",
            self.size, self.addr
        )
    }
}

impl std::error::Error for MemError {}

/// Which segment an address belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Segment {
    /// Globals and string literals.
    Global,
    /// The malloc arena.
    Heap,
    /// The call stack.
    Stack,
}

/// The VM's memory: three independently grown segments.
#[derive(Debug, Clone)]
pub struct Memory {
    globals: Vec<u8>,
    heap: Vec<u8>,
    stack: Vec<u8>,
}

impl Memory {
    /// Creates a memory with a globals segment of `global_size` bytes
    /// (zero-initialized).
    pub fn new(global_size: u64) -> Self {
        Memory {
            globals: vec![0; global_size as usize],
            heap: Vec::new(),
            stack: vec![0; (STACK_TOP - STACK_BASE) as usize],
        }
    }

    /// Classifies an address without bounds checking the access size.
    pub fn segment_of(addr: u64) -> Option<Segment> {
        Memory::locate(addr).map(|(seg, _)| seg)
    }

    /// Grows the heap segment so that `size` bytes from `HEAP_BASE` are
    /// mapped. Used by the allocator.
    pub fn ensure_heap(&mut self, size: u64) {
        if size as usize > self.heap.len() {
            self.heap.resize(size as usize, 0);
        }
    }

    /// Number of currently mapped heap bytes.
    pub fn heap_len(&self) -> u64 {
        self.heap.len() as u64
    }

    /// The segment holding `addr` and `addr`'s offset into it. The stack
    /// is tested first: locals are the common access.
    #[inline]
    fn locate(addr: u64) -> Option<(Segment, usize)> {
        if addr >= STACK_BASE {
            (addr < STACK_TOP).then(|| (Segment::Stack, (addr - STACK_BASE) as usize))
        } else if addr >= HEAP_BASE {
            Some((Segment::Heap, (addr - HEAP_BASE) as usize))
        } else if addr >= GLOBAL_BASE {
            Some((Segment::Global, (addr - GLOBAL_BASE) as usize))
        } else {
            None
        }
    }

    #[inline]
    fn buf(&self, seg: Segment) -> &Vec<u8> {
        match seg {
            Segment::Stack => &self.stack,
            Segment::Heap => &self.heap,
            Segment::Global => &self.globals,
        }
    }

    #[inline]
    fn buf_mut(&mut self, seg: Segment) -> &mut Vec<u8> {
        match seg {
            Segment::Stack => &mut self.stack,
            Segment::Heap => &mut self.heap,
            Segment::Global => &mut self.globals,
        }
    }

    /// The segment and in-segment byte range of an access of `size` bytes
    /// at `addr`; an error when any byte is unmapped.
    #[inline]
    fn span(&self, addr: u64, size: u64) -> Result<(Segment, Range<usize>), MemError> {
        let err = MemError { addr, size };
        let (seg, off) = Memory::locate(addr).ok_or(err)?;
        let end = off.checked_add(size as usize).ok_or(err)?;
        if end > self.buf(seg).len() {
            return Err(err);
        }
        Ok((seg, off..end))
    }

    #[inline]
    fn slice(&self, addr: u64, size: u64) -> Result<&[u8], MemError> {
        let err = MemError { addr, size };
        let (seg, off) = Memory::locate(addr).ok_or(err)?;
        let end = off.checked_add(size as usize).ok_or(err)?;
        self.buf(seg).get(off..end).ok_or(err)
    }

    #[inline]
    fn slice_mut(&mut self, addr: u64, size: u64) -> Result<&mut [u8], MemError> {
        let err = MemError { addr, size };
        let (seg, off) = Memory::locate(addr).ok_or(err)?;
        let end = off.checked_add(size as usize).ok_or(err)?;
        self.buf_mut(seg).get_mut(off..end).ok_or(err)
    }

    /// Reads `size` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Fails when any byte of the range is unmapped.
    pub fn read_bytes(&self, addr: u64, size: u64) -> Result<&[u8], MemError> {
        self.slice(addr, size)
    }

    /// Writes `bytes` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Fails when any byte of the range is unmapped.
    #[inline]
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemError> {
        self.slice_mut(addr, bytes.len() as u64)?
            .copy_from_slice(bytes);
        Ok(())
    }

    /// Copies `size` bytes from `src` to `dst`, like `memmove`: the
    /// ranges may overlap.
    ///
    /// # Errors
    ///
    /// Fails when either range is unmapped; memory is then untouched.
    pub fn copy(&mut self, dst: u64, src: u64, size: u64) -> Result<(), MemError> {
        let (src_seg, from) = self.span(src, size)?;
        let (dst_seg, to) = self.span(dst, size)?;
        if src_seg == dst_seg {
            self.buf_mut(dst_seg).copy_within(from, to.start);
            return Ok(());
        }
        // Distinct segments: borrow the source shared and the destination
        // mutably, field by field.
        let Memory {
            globals,
            heap,
            stack,
        } = self;
        let (mut src_buf, mut dst_buf): (&[u8], &mut [u8]) = (&[], &mut []);
        for (seg, buf) in [
            (Segment::Global, globals),
            (Segment::Heap, heap),
            (Segment::Stack, stack),
        ] {
            if seg == src_seg {
                src_buf = buf;
            } else if seg == dst_seg {
                dst_buf = buf;
            }
        }
        dst_buf[to].copy_from_slice(&src_buf[from]);
        Ok(())
    }

    /// Reads a signed integer of `size` (1, 4 or 8) bytes, sign-extended.
    ///
    /// # Errors
    ///
    /// Fails on unmapped addresses.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 4 or 8.
    #[inline(always)]
    pub fn read_int(&self, addr: u64, size: u64) -> Result<i64, MemError> {
        let b = self.slice(addr, size)?;
        Ok(match size {
            1 => b[0] as i8 as i64,
            4 => i32::from_le_bytes(b.try_into().unwrap()) as i64,
            8 => i64::from_le_bytes(b.try_into().unwrap()),
            _ => panic!("unsupported integer width {size}"),
        })
    }

    /// Writes the low `size` bytes of `value` (two's complement truncation).
    ///
    /// # Errors
    ///
    /// Fails on unmapped addresses.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 4 or 8.
    #[inline(always)]
    pub fn write_int(&mut self, addr: u64, size: u64, value: i64) -> Result<(), MemError> {
        match size {
            1 => self.write_bytes(addr, &[(value as u8)]),
            4 => self.write_bytes(addr, &(value as i32).to_le_bytes()),
            8 => self.write_bytes(addr, &value.to_le_bytes()),
            _ => panic!("unsupported integer width {size}"),
        }
    }

    /// Reads an unsigned 64-bit pointer value.
    ///
    /// # Errors
    ///
    /// Fails on unmapped addresses.
    #[inline(always)]
    pub fn read_ptr(&self, addr: u64) -> Result<u64, MemError> {
        let b = self.slice(addr, 8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Writes an unsigned 64-bit pointer value.
    ///
    /// # Errors
    ///
    /// Fails on unmapped addresses.
    #[inline(always)]
    pub fn write_ptr(&mut self, addr: u64, value: u64) -> Result<(), MemError> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Reads an `f32` (4 bytes) or `f64` (8 bytes) as `f64`.
    ///
    /// # Errors
    ///
    /// Fails on unmapped addresses.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 4 or 8.
    #[inline(always)]
    pub fn read_float(&self, addr: u64, size: u64) -> Result<f64, MemError> {
        let b = self.slice(addr, size)?;
        Ok(match size {
            4 => f32::from_le_bytes(b.try_into().unwrap()) as f64,
            8 => f64::from_le_bytes(b.try_into().unwrap()),
            _ => panic!("unsupported float width {size}"),
        })
    }

    /// Writes `value` as `f32` (4 bytes, rounded) or `f64` (8 bytes).
    ///
    /// # Errors
    ///
    /// Fails on unmapped addresses.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 4 or 8.
    #[inline(always)]
    pub fn write_float(&mut self, addr: u64, size: u64, value: f64) -> Result<(), MemError> {
        match size {
            4 => self.write_bytes(addr, &(value as f32).to_le_bytes()),
            8 => self.write_bytes(addr, &value.to_le_bytes()),
            _ => panic!("unsupported float width {size}"),
        }
    }

    /// Reads a NUL-terminated C string starting at `addr`, capped at `max`
    /// bytes. Non-UTF-8 bytes are replaced.
    ///
    /// # Errors
    ///
    /// Fails when `addr` is unmapped; a missing terminator within the
    /// segment simply truncates at the segment end or at `max`.
    pub fn read_cstring(&self, addr: u64, max: u64) -> Result<String, MemError> {
        // Validate at least the first byte.
        self.slice(addr, 1)?;
        let mut bytes = Vec::new();
        let mut a = addr;
        while (a - addr) < max {
            match self.slice(a, 1) {
                Ok(b) if b[0] != 0 => bytes.push(b[0]),
                _ => break,
            }
            a += 1;
        }
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        let mut m = Memory::new(256);
        m.ensure_heap(1024);
        m
    }

    #[test]
    fn segments_classified() {
        assert_eq!(Memory::segment_of(0), None);
        assert_eq!(Memory::segment_of(GLOBAL_BASE), Some(Segment::Global));
        assert_eq!(Memory::segment_of(HEAP_BASE + 5), Some(Segment::Heap));
        assert_eq!(Memory::segment_of(STACK_TOP - 1), Some(Segment::Stack));
        assert_eq!(Memory::segment_of(STACK_TOP), None);
    }

    #[test]
    fn int_roundtrip_all_widths() {
        let mut m = mem();
        for (size, value) in [(1u64, -5i64), (4, -123456), (8, i64::MIN + 3)] {
            m.write_int(GLOBAL_BASE, size, value).unwrap();
            assert_eq!(m.read_int(GLOBAL_BASE, size).unwrap(), value);
        }
        // Truncation wraps like C.
        m.write_int(GLOBAL_BASE, 1, 300).unwrap();
        assert_eq!(m.read_int(GLOBAL_BASE, 1).unwrap(), 300i64 as i8 as i64);
    }

    #[test]
    fn float_roundtrip() {
        let mut m = mem();
        m.write_float(HEAP_BASE, 8, 3.25).unwrap();
        assert_eq!(m.read_float(HEAP_BASE, 8).unwrap(), 3.25);
        m.write_float(HEAP_BASE, 4, 1.5).unwrap();
        assert_eq!(m.read_float(HEAP_BASE, 4).unwrap(), 1.5);
    }

    #[test]
    fn pointer_roundtrip() {
        let mut m = mem();
        m.write_ptr(STACK_TOP - 8, HEAP_BASE).unwrap();
        assert_eq!(m.read_ptr(STACK_TOP - 8).unwrap(), HEAP_BASE);
    }

    #[test]
    fn null_and_oob_accesses_fail() {
        let mut m = mem();
        assert!(m.read_int(NULL, 4).is_err());
        assert!(m.read_int(0x10, 4).is_err());
        assert!(m.write_int(GLOBAL_BASE + 255, 4, 1).is_err()); // straddles end
        assert!(m.read_int(HEAP_BASE + 1024, 1).is_err()); // beyond mapped heap
        assert!(m.read_int(STACK_TOP, 1).is_err());
    }

    #[test]
    fn cstring_reading() {
        let mut m = mem();
        m.write_bytes(GLOBAL_BASE, b"hello\0world").unwrap();
        assert_eq!(m.read_cstring(GLOBAL_BASE, 100).unwrap(), "hello");
        assert_eq!(m.read_cstring(GLOBAL_BASE + 6, 3).unwrap(), "wor");
        assert!(m.read_cstring(NULL, 10).is_err());
    }

    #[test]
    fn copy_between_segments() {
        let mut m = mem();
        m.write_bytes(GLOBAL_BASE, b"abcd").unwrap();
        m.copy(HEAP_BASE, GLOBAL_BASE, 4).unwrap();
        assert_eq!(m.read_bytes(HEAP_BASE, 4).unwrap(), b"abcd");
        m.copy(STACK_TOP - 4, GLOBAL_BASE, 4).unwrap();
        assert_eq!(m.read_bytes(STACK_TOP - 4, 4).unwrap(), b"abcd");
        m.copy(GLOBAL_BASE + 8, STACK_TOP - 4, 4).unwrap();
        assert_eq!(m.read_bytes(GLOBAL_BASE + 8, 4).unwrap(), b"abcd");
    }

    #[test]
    fn overlapping_copy_moves_like_memmove() {
        let mut m = mem();
        m.write_bytes(HEAP_BASE, b"abcdef").unwrap();
        m.copy(HEAP_BASE + 2, HEAP_BASE, 4).unwrap();
        assert_eq!(m.read_bytes(HEAP_BASE, 6).unwrap(), b"ababcd");
        m.copy(HEAP_BASE, HEAP_BASE + 1, 4).unwrap();
        assert_eq!(m.read_bytes(HEAP_BASE, 6).unwrap(), b"babccd");
    }

    #[test]
    fn copy_to_or_from_an_invalid_range_writes_nothing() {
        let mut m = mem();
        m.write_bytes(GLOBAL_BASE, b"abcd").unwrap();
        let before = m.clone();
        // Destination straddles the stack top, the NULL page, the mapped
        // heap's end; the source straddles the globals' end.
        assert!(m.copy(STACK_TOP - 2, GLOBAL_BASE, 4).is_err());
        assert!(m.copy(NULL, GLOBAL_BASE, 4).is_err());
        assert!(m.copy(HEAP_BASE + 1022, GLOBAL_BASE, 4).is_err());
        assert!(m.copy(GLOBAL_BASE, GLOBAL_BASE + 254, 4).is_err());
        assert_eq!(m.globals, before.globals);
        assert_eq!(m.heap, before.heap);
        assert_eq!(m.stack, before.stack);
    }

    #[test]
    fn accesses_at_every_segment_edge_follow_the_layout() {
        let m = mem();
        // The layout in the module docs, segment by segment.
        let mapped = |addr: u64, size: u64| {
            let (buf, base) = if (GLOBAL_BASE..HEAP_BASE).contains(&addr) {
                (&m.globals, GLOBAL_BASE)
            } else if (HEAP_BASE..STACK_BASE).contains(&addr) {
                (&m.heap, HEAP_BASE)
            } else if (STACK_BASE..STACK_TOP).contains(&addr) {
                (&m.stack, STACK_BASE)
            } else {
                return false;
            };
            (addr - base + size) as usize <= buf.len()
        };
        for addr in [
            NULL,
            GLOBAL_BASE - 1,
            GLOBAL_BASE,
            GLOBAL_BASE + 252,
            GLOBAL_BASE + 256,
            HEAP_BASE - 1,
            HEAP_BASE,
            HEAP_BASE + 1020,
            HEAP_BASE + 1024,
            STACK_BASE - 1,
            STACK_BASE,
            STACK_TOP - 4,
            STACK_TOP,
            u64::MAX,
        ] {
            for size in [0, 1, 4, 8] {
                assert_eq!(
                    m.read_bytes(addr, size).is_ok(),
                    mapped(addr, size),
                    "{size} byte(s) at {addr:#x}"
                );
            }
        }
    }

    #[test]
    fn heap_grows_on_demand() {
        let mut m = Memory::new(0);
        assert!(m.read_int(HEAP_BASE, 1).is_err());
        m.ensure_heap(16);
        assert_eq!(m.heap_len(), 16);
        assert_eq!(m.read_int(HEAP_BASE, 8).unwrap(), 0);
    }
}
