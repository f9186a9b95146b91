//! Flat byte-addressable memory with a global segment and a downward
//! stack-like alloca region (restored on function return).

use oraql_ir::module::Module;

/// Base address of the global segment (nonzero so null stays invalid).
pub const GLOBAL_BASE: u64 = 0x1_0000;
/// Base address of the alloca region.
pub const STACK_BASE: u64 = 0x1000_0000;
/// Upper bound of the alloca region.
pub const STACK_LIMIT: u64 = 0x5000_0000;

/// Memory error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Access outside any mapped segment.
    OutOfBounds {
        /// Faulting address.
        addr: u64,
        /// Access size in bytes.
        size: u64,
    },
    /// Stack (alloca region) exhausted.
    StackOverflow,
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfBounds { addr, size } => {
                write!(f, "out-of-bounds access of {size} bytes at {addr:#x}")
            }
            MemError::StackOverflow => write!(f, "alloca region exhausted"),
        }
    }
}

/// Base address of each global of `m`, parallel to `Module::globals`
/// (each global 16-byte aligned). This layout is a pure function of the
/// module, which is what lets the pre-decoding stage resolve
/// `Value::Global` operands to immediate addresses once instead of per
/// execution.
pub fn global_layout(m: &Module) -> Vec<u64> {
    let mut bases = Vec::with_capacity(m.globals.len());
    let mut off = 0u64;
    for g in &m.globals {
        off = (off + 15) & !15;
        bases.push(GLOBAL_BASE + off);
        off += g.size;
    }
    bases
}

/// The VM's address space.
pub struct Memory {
    globals: Vec<u8>,
    stack: Vec<u8>,
    sp: u64,
    /// Base address of each global, parallel to `Module::globals`.
    global_bases: Vec<u64>,
}

impl Memory {
    /// Lays out all globals of `m` and initializes them.
    pub fn new(m: &Module) -> Self {
        let global_bases = global_layout(m);
        let mut globals = Vec::new();
        for (g, &base) in m.globals.iter().zip(&global_bases) {
            let start = (base - GLOBAL_BASE) as usize;
            globals.resize(start + g.size as usize, 0);
            let n = g.init.len().min(g.size as usize);
            globals[start..start + n].copy_from_slice(&g.init[..n]);
        }
        Memory {
            globals,
            stack: Vec::new(),
            sp: STACK_BASE,
            global_bases,
        }
    }

    /// Base address of global `i`.
    ///
    /// Panics on out-of-range indices; the interpreter goes through
    /// [`Memory::try_global_base`] so malformed IR traps instead.
    pub fn global_base(&self, i: usize) -> u64 {
        self.global_bases[i]
    }

    /// Checked variant of [`Memory::global_base`].
    pub fn try_global_base(&self, i: usize) -> Option<u64> {
        self.global_bases.get(i).copied()
    }

    /// All global base addresses, parallel to `Module::globals` (used
    /// by the pre-decoding stage to fold globals into immediates).
    pub fn global_bases(&self) -> &[u64] {
        &self.global_bases
    }

    /// Current stack pointer (save before a call, restore after).
    pub fn stack_mark(&self) -> u64 {
        self.sp
    }

    /// Restores the stack pointer to a previous mark.
    pub fn stack_release(&mut self, mark: u64) {
        self.sp = mark;
    }

    /// Allocates `size` bytes in the alloca region (16-byte aligned).
    /// A size that cannot fit below [`STACK_LIMIT`], however large,
    /// is a [`MemError::StackOverflow`].
    pub fn alloca(&mut self, size: u64) -> Result<u64, MemError> {
        let end = size
            .checked_add(15)
            .and_then(|s| self.sp.checked_add(s & !15))
            .filter(|&end| end <= STACK_LIMIT)
            .ok_or(MemError::StackOverflow)?;
        let addr = self.sp;
        self.sp = end;
        let needed = (end - STACK_BASE) as usize;
        if self.stack.len() < needed {
            self.stack.resize(needed, 0);
        }
        // Allocas are not guaranteed zeroed by C semantics, but giving
        // them a deterministic content keeps reruns bit-identical. We
        // zero the fresh region explicitly because stack_release + new
        // alloca may reuse bytes written by a previous frame.
        let start = (addr - STACK_BASE) as usize;
        self.stack[start..needed].fill(0);
        Ok(addr)
    }

    /// The segment holding `[addr, addr + size)` (`true` for globals)
    /// and the range's offset in it. A range that wraps past 2^64 is
    /// out of bounds, like any other range no segment holds.
    #[inline]
    fn region(&self, addr: u64, size: u64) -> Result<(bool, usize), MemError> {
        let offset_in = |base: u64, len: usize| {
            // `addr < base` wraps to an offset past any segment length.
            let off = addr.wrapping_sub(base);
            let len = len as u64;
            (off <= len && size <= len - off).then_some(off as usize)
        };
        if let Some(off) = offset_in(GLOBAL_BASE, self.globals.len()) {
            Ok((true, off))
        } else if let Some(off) = offset_in(STACK_BASE, self.stack.len()) {
            Ok((false, off))
        } else {
            Err(MemError::OutOfBounds { addr, size })
        }
    }

    /// Reads `buf.len()` bytes at `addr`.
    #[inline]
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemError> {
        let (is_global, off) = self.region(addr, buf.len() as u64)?;
        let src = if is_global {
            &self.globals
        } else {
            &self.stack
        };
        buf.copy_from_slice(&src[off..off + buf.len()]);
        Ok(())
    }

    /// Writes `buf` at `addr`.
    #[inline]
    pub fn write(&mut self, addr: u64, buf: &[u8]) -> Result<(), MemError> {
        let (is_global, off) = self.region(addr, buf.len() as u64)?;
        let dst = if is_global {
            &mut self.globals
        } else {
            &mut self.stack
        };
        dst[off..off + buf.len()].copy_from_slice(buf);
        Ok(())
    }

    /// Reads the little-endian 8-byte word at `addr`.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> Result<u64, MemError> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes `x` at `addr` as a little-endian 8-byte word.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, x: u64) -> Result<(), MemError> {
        self.write(addr, &x.to_le_bytes())
    }

    /// `memcpy` within the VM address space. Both ranges are checked
    /// (source first) before any byte moves, and overlapping ranges
    /// copy like `memmove`, keeping execution deterministic either way.
    pub fn copy(&mut self, dst: u64, src: u64, n: u64) -> Result<(), MemError> {
        let (src_global, s) = self.region(src, n)?;
        let (dst_global, d) = self.region(dst, n)?;
        let n = n as usize;
        match (src_global, dst_global) {
            (true, true) => self.globals.copy_within(s..s + n, d),
            (false, false) => self.stack.copy_within(s..s + n, d),
            (true, false) => self.stack[d..d + n].copy_from_slice(&self.globals[s..s + n]),
            (false, true) => self.globals[d..d + n].copy_from_slice(&self.stack[s..s + n]),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module_with_global() -> Module {
        let mut m = Module::new("t");
        m.add_global("g", 16, vec![1, 2, 3, 4], false);
        m.add_global("h", 8, vec![], true);
        m
    }

    #[test]
    fn globals_initialized_and_aligned() {
        let m = module_with_global();
        let mem = Memory::new(&m);
        let g = mem.global_base(0);
        let h = mem.global_base(1);
        assert_eq!(g % 16, 0);
        assert_eq!(h % 16, 0);
        let mut buf = [0u8; 4];
        mem.read(g, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        // Tail is zero-filled.
        mem.read(g + 4, &mut buf).unwrap();
        assert_eq!(buf, [0, 0, 0, 0]);
    }

    #[test]
    fn alloca_roundtrip_and_release() {
        let m = module_with_global();
        let mut mem = Memory::new(&m);
        let mark = mem.stack_mark();
        let a = mem.alloca(32).unwrap();
        mem.write(a, &[9; 32]).unwrap();
        let mut buf = [0u8; 32];
        mem.read(a, &mut buf).unwrap();
        assert_eq!(buf, [9; 32]);
        mem.stack_release(mark);
        // A new alloca reuses the region and is zeroed.
        let b = mem.alloca(32).unwrap();
        assert_eq!(a, b);
        mem.read(b, &mut buf).unwrap();
        assert_eq!(buf, [0; 32]);
    }

    #[test]
    fn out_of_bounds_detected() {
        let m = module_with_global();
        let mem = Memory::new(&m);
        let mut buf = [0u8; 8];
        assert!(mem.read(0, &mut buf).is_err());
        assert!(mem.read(STACK_BASE, &mut buf).is_err()); // nothing allocated
                                                          // Straddling the end of the global segment.
        let g = mem.global_base(1);
        assert!(mem.read(g + 4, &mut buf).is_err());
    }

    #[test]
    fn wrapped_ranges_are_out_of_bounds() {
        let m = module_with_global();
        let mut mem = Memory::new(&m);
        let mut buf = [0u8; 8];
        // 6 bytes below 2^64: `addr + 8` wraps into the global segment.
        let addr = mem.global_base(0).wrapping_sub(0x10006);
        assert_eq!(
            mem.read(addr, &mut buf),
            Err(MemError::OutOfBounds { addr, size: 8 })
        );
        assert_eq!(
            mem.write(addr, &buf),
            Err(MemError::OutOfBounds { addr, size: 8 })
        );
        let g = mem.global_base(0);
        assert!(mem.read(g, &mut []).is_ok());
        assert_eq!(
            mem.copy(g, g, u64::MAX),
            Err(MemError::OutOfBounds {
                addr: g,
                size: u64::MAX
            })
        );
    }

    #[test]
    fn huge_alloca_overflows_the_stack() {
        let m = module_with_global();
        let mut mem = Memory::new(&m);
        for size in [u64::MAX, u64::MAX - 3, u64::MAX - 15, STACK_LIMIT] {
            assert_eq!(mem.alloca(size), Err(MemError::StackOverflow), "{size:#x}");
        }
        assert_eq!(mem.stack_mark(), STACK_BASE);
        // The region is untouched: an ordinary alloca still succeeds.
        assert_eq!(mem.alloca(16), Ok(STACK_BASE));
    }

    #[test]
    fn huge_copy_traps_without_allocating() {
        let m = module_with_global();
        let mut mem = Memory::new(&m);
        let g = mem.global_base(0);
        assert_eq!(
            mem.copy(g, g, 1 << 40),
            Err(MemError::OutOfBounds {
                addr: g,
                size: 1 << 40
            })
        );
        // The source range is checked before the destination's.
        assert_eq!(
            mem.copy(0, 8, 4),
            Err(MemError::OutOfBounds { addr: 8, size: 4 })
        );
    }

    #[test]
    fn overlapping_copies_behave_like_memmove() {
        let m = module_with_global();
        let mut mem = Memory::new(&m);
        let g = mem.global_base(0);
        mem.copy(g + 1, g, 4).unwrap();
        let mut buf = [0u8; 6];
        mem.read(g, &mut buf).unwrap();
        assert_eq!(buf, [1, 1, 2, 3, 4, 0]);
        mem.copy(g, g + 1, 4).unwrap();
        mem.read(g, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4, 4, 0]);
        let a = mem.alloca(16).unwrap();
        mem.write(a, &[5, 6, 7, 8]).unwrap();
        mem.copy(a + 2, a, 4).unwrap();
        mem.read(a, &mut buf).unwrap();
        assert_eq!(buf, [5, 6, 5, 6, 7, 8]);
        mem.copy(g, a, 2).unwrap();
        mem.read(g, &mut buf).unwrap();
        assert_eq!(buf[..2], [5, 6]);
    }

    #[test]
    fn copy_between_segments() {
        let m = module_with_global();
        let mut mem = Memory::new(&m);
        let a = mem.alloca(16).unwrap();
        mem.copy(a, mem.global_base(0), 4).unwrap();
        let mut buf = [0u8; 4];
        mem.read(a, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
    }
}
