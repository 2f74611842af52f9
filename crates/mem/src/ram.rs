//! Sparse guest physical memory.
//!
//! Pages live in a two-level direct-indexed page table: a directory
//! with one entry per 2 MiB granule, each pointing at a leaf of 512
//! optional 4 KiB pages. Finding a page is two array indexings, with no
//! hashing and no probing, so a ring field or a descriptor costs one
//! constant-time lookup.

use crate::addr::GuestAddr;
use std::error::Error;
use std::fmt;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: u64 = 1 << PAGE_SHIFT; // 4 KiB
/// log2 of the pages per leaf: one leaf covers a 2 MiB granule.
const LEAF_SHIFT: u64 = 9;
const LEAF_PAGES: usize = 1 << LEAF_SHIFT;

type Page = [u8; PAGE_SIZE as usize];
type Leaf = [Option<Box<Page>>; LEAF_PAGES];

/// What a never-written page reads as.
static ZERO_PAGE: Page = [0; PAGE_SIZE as usize];

/// The resident pages of one [`GuestRam`], indexed by page number.
///
/// The directory grows only to the highest granule ever written, so
/// creating a 64 GiB memory allocates nothing and reads never grow it;
/// at most it costs 8 bytes per 2 MiB (256 KiB for 64 GiB).
#[derive(Debug, Clone, Default)]
struct PageTable {
    dir: Vec<Option<Box<Leaf>>>,
    resident: usize,
}

impl PageTable {
    /// The page numbered `page`, if it was ever written.
    #[inline]
    fn get(&self, page: u64) -> Option<&Page> {
        let leaf = self.dir.get((page >> LEAF_SHIFT) as usize)?.as_deref()?;
        leaf[page as usize & (LEAF_PAGES - 1)].as_deref()
    }

    /// The page numbered `page`, made resident (zeroed) if it was not.
    #[inline]
    fn get_mut(&mut self, page: u64) -> &mut Page {
        let granule = (page >> LEAF_SHIFT) as usize;
        if granule >= self.dir.len() {
            self.dir.resize_with(granule + 1, || None);
        }
        let leaf = self.dir[granule].get_or_insert_with(|| Box::new([const { None }; LEAF_PAGES]));
        let slot = &mut leaf[page as usize & (LEAF_PAGES - 1)];
        if slot.is_none() {
            self.resident += 1;
        }
        slot.get_or_insert_with(|| Box::new([0; PAGE_SIZE as usize]))
    }
}

/// Errors returned by [`GuestRam`] accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The access `[addr, addr + len)` falls outside the configured RAM
    /// size.
    OutOfBounds {
        /// Starting address of the failed access.
        addr: GuestAddr,
        /// Length of the failed access in bytes.
        len: u64,
        /// Configured memory size in bytes.
        size: u64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { addr, len, size } => write!(
                f,
                "guest memory access out of bounds: {addr}+{len} exceeds {size} bytes"
            ),
        }
    }
}

impl Error for MemError {}

/// A byte-addressable guest physical memory.
///
/// Pages are allocated lazily, on first write, so a 64 GiB compute
/// board costs only what the guest actually touches (plus one 4 KiB
/// leaf per touched 2 MiB granule). Unwritten memory reads as zero,
/// matching freshly-powered-on DRAM handed to a bm-guest after the
/// previous tenant's board is scrubbed. An integer access that lies
/// inside one page — every ring field — is one bounds check, one page
/// lookup and a fixed-size load or store.
///
/// # Example
///
/// ```
/// use bmhive_mem::{GuestAddr, GuestRam};
///
/// let mut ram = GuestRam::new(1 << 30);
/// ram.write_u32(GuestAddr::new(16), 0xdead_beef).unwrap();
/// assert_eq!(ram.read_u32(GuestAddr::new(16)).unwrap(), 0xdead_beef);
/// assert_eq!(ram.read_u32(GuestAddr::new(64)).unwrap(), 0); // untouched
/// ```
#[derive(Debug, Clone)]
pub struct GuestRam {
    size: u64,
    pages: PageTable,
}

impl GuestRam {
    /// Creates a memory of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: u64) -> Self {
        assert!(size > 0, "GuestRam: size must be positive");
        GuestRam {
            size,
            pages: PageTable::default(),
        }
    }

    /// The configured size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Number of 4 KiB pages actually allocated so far.
    pub fn resident_pages(&self) -> usize {
        self.pages.resident
    }

    /// Checks that `[addr, addr + len)` lies inside the memory — the
    /// test every access makes before touching a byte. A zero-length
    /// range at `addr == size()` is in bounds.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the
    /// memory size or overflows the address space.
    #[inline]
    pub fn check_range(&self, addr: GuestAddr, len: u64) -> Result<(), MemError> {
        let end = addr.value().checked_add(len);
        match end {
            Some(end) if end <= self.size => Ok(()),
            _ => Err(MemError::OutOfBounds {
                addr,
                len,
                size: self.size,
            }),
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the memory
    /// size; no bytes are read in that case.
    pub fn read(&self, addr: GuestAddr, buf: &mut [u8]) -> Result<(), MemError> {
        self.check_range(addr, buf.len() as u64)?;
        self.read_checked(addr.value(), buf);
        Ok(())
    }

    /// [`read`](Self::read) of a range already bounds-checked.
    fn read_checked(&self, mut offset: u64, buf: &mut [u8]) {
        let mut filled = 0usize;
        while filled < buf.len() {
            let in_page = (offset & (PAGE_SIZE - 1)) as usize;
            let take = (buf.len() - filled).min(PAGE_SIZE as usize - in_page);
            let page = self.pages.get(offset >> PAGE_SHIFT).unwrap_or(&ZERO_PAGE);
            buf[filled..filled + take].copy_from_slice(&page[in_page..in_page + take]);
            filled += take;
            offset += take as u64;
        }
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the memory
    /// size; no bytes are written in that case.
    pub fn write(&mut self, addr: GuestAddr, data: &[u8]) -> Result<(), MemError> {
        self.check_range(addr, data.len() as u64)?;
        self.write_checked(addr.value(), data);
        Ok(())
    }

    /// [`write`](Self::write) of a range already bounds-checked.
    fn write_checked(&mut self, mut offset: u64, data: &[u8]) {
        let mut written = 0usize;
        while written < data.len() {
            let in_page = (offset & (PAGE_SIZE - 1)) as usize;
            let take = (data.len() - written).min(PAGE_SIZE as usize - in_page);
            let page = self.pages.get_mut(offset >> PAGE_SHIFT);
            page[in_page..in_page + take].copy_from_slice(&data[written..written + take]);
            written += take;
            offset += take as u64;
        }
    }

    /// Copies `len` bytes from `src` at `src_addr` into this memory at
    /// `dst_addr`, page slice to page slice with no intermediate buffer —
    /// the byte movement of one DMA between two memory domains. A
    /// never-written source page reads as zero; every touched
    /// destination page becomes resident, exactly as [`GuestRam::write`]
    /// of the same bytes would leave it.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the source range exceeds
    /// `src` (checked first) or the destination range exceeds this
    /// memory; no bytes are written in either case.
    pub fn copy_from(
        &mut self,
        dst_addr: GuestAddr,
        src: &GuestRam,
        src_addr: GuestAddr,
        len: u64,
    ) -> Result<(), MemError> {
        src.check_range(src_addr, len)?;
        self.check_range(dst_addr, len)?;
        let mut from = src_addr.value();
        let mut to = dst_addr.value();
        let mut remaining = len;
        while remaining > 0 {
            let src_off = (from & (PAGE_SIZE - 1)) as usize;
            let dst_off = (to & (PAGE_SIZE - 1)) as usize;
            let take = remaining
                .min(PAGE_SIZE - src_off as u64)
                .min(PAGE_SIZE - dst_off as u64) as usize;
            let bytes = match src.pages.get(from >> PAGE_SHIFT) {
                Some(page) => &page[src_off..src_off + take],
                None => &ZERO_PAGE[..take],
            };
            self.pages.get_mut(to >> PAGE_SHIFT)[dst_off..dst_off + take].copy_from_slice(bytes);
            from += take as u64;
            to += take as u64;
            remaining -= take as u64;
        }
        Ok(())
    }

    /// Reads a vector of `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the memory
    /// size.
    pub fn read_vec(&self, addr: GuestAddr, len: u64) -> Result<Vec<u8>, MemError> {
        let mut buf = vec![0u8; len as usize];
        self.read(addr, &mut buf)?;
        Ok(buf)
    }

    /// Fills `[addr, addr + len)` with `byte`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the memory
    /// size.
    pub fn fill(&mut self, addr: GuestAddr, len: u64, byte: u8) -> Result<(), MemError> {
        self.check_range(addr, len)?;
        // Writing through the page table keeps the sparse representation.
        let chunk = [byte; 256];
        let mut remaining = len;
        let mut at = addr.value();
        while remaining > 0 {
            let take = remaining.min(chunk.len() as u64);
            self.write_checked(at, &chunk[..take as usize]);
            at += take;
            remaining -= take;
        }
        Ok(())
    }

    /// Reads `N` bytes at `addr`: one page lookup and a fixed-size copy
    /// when the range lies inside one page, the general path when it
    /// straddles two.
    #[inline]
    fn read_array<const N: usize>(&self, addr: GuestAddr) -> Result<[u8; N], MemError> {
        self.check_range(addr, N as u64)?;
        let mut out = [0u8; N];
        let in_page = (addr.value() & (PAGE_SIZE - 1)) as usize;
        if in_page + N <= PAGE_SIZE as usize {
            if let Some(page) = self.pages.get(addr.value() >> PAGE_SHIFT) {
                out.copy_from_slice(&page[in_page..in_page + N]);
            }
        } else {
            self.read_checked(addr.value(), &mut out);
        }
        Ok(out)
    }

    /// Writes `bytes` at `addr`, with [`read_array`](Self::read_array)'s
    /// single-page fast path.
    #[inline]
    fn write_array<const N: usize>(
        &mut self,
        addr: GuestAddr,
        bytes: [u8; N],
    ) -> Result<(), MemError> {
        self.check_range(addr, N as u64)?;
        let in_page = (addr.value() & (PAGE_SIZE - 1)) as usize;
        if in_page + N <= PAGE_SIZE as usize {
            self.pages.get_mut(addr.value() >> PAGE_SHIFT)[in_page..in_page + N]
                .copy_from_slice(&bytes);
        } else {
            self.write_checked(addr.value(), &bytes);
        }
        Ok(())
    }
}

macro_rules! int_access {
    ($read:ident, $write:ident, $ty:ty) => {
        impl GuestRam {
            /// Reads a little-endian integer at `addr`.
            ///
            /// # Errors
            ///
            /// Returns [`MemError::OutOfBounds`] if the access exceeds the
            /// memory size.
            #[inline]
            pub fn $read(&self, addr: GuestAddr) -> Result<$ty, MemError> {
                self.read_array(addr).map(<$ty>::from_le_bytes)
            }

            /// Writes a little-endian integer at `addr`.
            ///
            /// # Errors
            ///
            /// Returns [`MemError::OutOfBounds`] if the access exceeds the
            /// memory size.
            #[inline]
            pub fn $write(&mut self, addr: GuestAddr, value: $ty) -> Result<(), MemError> {
                self.write_array(addr, value.to_le_bytes())
            }
        }
    };
}

int_access!(read_u8, write_u8, u8);
int_access!(read_u16, write_u16, u16);
int_access!(read_u32, write_u32, u32);
int_access!(read_u64, write_u64, u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let ram = GuestRam::new(1 << 20);
        let mut buf = [0xffu8; 16];
        ram.read(GuestAddr::new(0x500), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(ram.resident_pages(), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut ram = GuestRam::new(1 << 20);
        ram.write(GuestAddr::new(100), b"hello world").unwrap();
        assert_eq!(
            ram.read_vec(GuestAddr::new(100), 11).unwrap(),
            b"hello world"
        );
    }

    #[test]
    fn accesses_spanning_page_boundaries() {
        let mut ram = GuestRam::new(1 << 20);
        let addr = GuestAddr::new(PAGE_SIZE - 3);
        let data: Vec<u8> = (0..10).collect();
        ram.write(addr, &data).unwrap();
        assert_eq!(ram.read_vec(addr, 10).unwrap(), data);
        assert_eq!(ram.resident_pages(), 2);
    }

    #[test]
    fn integer_accessors_are_little_endian() {
        let mut ram = GuestRam::new(1 << 16);
        ram.write_u32(GuestAddr::new(0), 0x0102_0304).unwrap();
        assert_eq!(ram.read_u8(GuestAddr::new(0)).unwrap(), 0x04);
        assert_eq!(ram.read_u8(GuestAddr::new(3)).unwrap(), 0x01);
        assert_eq!(ram.read_u16(GuestAddr::new(0)).unwrap(), 0x0304);
        ram.write_u64(GuestAddr::new(8), u64::MAX).unwrap();
        assert_eq!(ram.read_u64(GuestAddr::new(8)).unwrap(), u64::MAX);
    }

    #[test]
    fn out_of_bounds_is_reported_not_partial() {
        let mut ram = GuestRam::new(64);
        let err = ram.write(GuestAddr::new(60), &[0u8; 8]).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds { .. }));
        // Nothing must have been written.
        assert_eq!(ram.read_vec(GuestAddr::new(60), 4).unwrap(), vec![0; 4]);
        assert!(ram.read_u64(GuestAddr::new(57)).is_err());
        assert!(ram.read_u64(GuestAddr::new(56)).is_ok());
    }

    #[test]
    fn address_overflow_is_out_of_bounds() {
        let ram = GuestRam::new(1 << 20);
        let err = ram.read_vec(GuestAddr::new(u64::MAX - 4), 8).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds { .. }));
    }

    #[test]
    fn fill_writes_every_byte() {
        let mut ram = GuestRam::new(1 << 20);
        ram.fill(GuestAddr::new(4000), 1000, 0xab).unwrap();
        let data = ram.read_vec(GuestAddr::new(4000), 1000).unwrap();
        assert!(data.iter().all(|&b| b == 0xab));
    }

    #[test]
    fn sparse_allocation_only_touched_pages() {
        let mut ram = GuestRam::new(64 << 30); // 64 GiB — cheap to create
        let far = GuestAddr::new(63 << 30);
        assert_eq!(ram.read_u64(far).unwrap(), 0);
        assert!(ram.pages.dir.is_empty(), "a read allocates nothing");
        ram.write_u8(far, 1).unwrap();
        assert_eq!(ram.resident_pages(), 1);
        // The directory reaches the written granule and no further.
        assert_eq!(ram.pages.dir.len(), (63 << 30 >> 21) + 1);
    }

    #[test]
    fn copy_from_moves_bytes_across_page_boundaries() {
        let mut src = GuestRam::new(1 << 20);
        let mut dst = GuestRam::new(1 << 20);
        let data: Vec<u8> = (0..=255).cycle().take(9000).collect();
        src.write(GuestAddr::new(PAGE_SIZE - 5), &data).unwrap();
        // Offsets chosen so the source and destination page boundaries
        // never line up.
        dst.copy_from(
            GuestAddr::new(3 * PAGE_SIZE - 1000),
            &src,
            GuestAddr::new(PAGE_SIZE - 5),
            9000,
        )
        .unwrap();
        assert_eq!(
            dst.read_vec(GuestAddr::new(3 * PAGE_SIZE - 1000), 9000)
                .unwrap(),
            data
        );
        assert_eq!(dst.resident_pages(), 3);
    }

    #[test]
    fn copy_from_unwritten_source_zeroes_and_allocates_like_write() {
        let src = GuestRam::new(1 << 20);
        let mut dst = GuestRam::new(1 << 20);
        dst.fill(GuestAddr::new(0), 64, 0xee).unwrap();
        dst.copy_from(GuestAddr::new(16), &src, GuestAddr::new(0x8000), 32)
            .unwrap();
        let back = dst.read_vec(GuestAddr::new(0), 64).unwrap();
        assert!(back[..16].iter().all(|&b| b == 0xee));
        assert!(back[16..48].iter().all(|&b| b == 0));
        assert!(back[48..].iter().all(|&b| b == 0xee));
        // A zero-length copy touches nothing.
        dst.copy_from(GuestAddr::new(0x9000), &src, GuestAddr::new(0), 0)
            .unwrap();
        assert_eq!(dst.resident_pages(), 1);
    }

    #[test]
    fn copy_from_out_of_bounds_writes_nothing() {
        let mut src = GuestRam::new(64);
        src.fill(GuestAddr::new(0), 64, 7).unwrap();
        let mut dst = GuestRam::new(128);
        let err = dst
            .copy_from(GuestAddr::new(0), &src, GuestAddr::new(60), 8)
            .unwrap_err();
        assert_eq!(
            err,
            MemError::OutOfBounds {
                addr: GuestAddr::new(60),
                len: 8,
                size: 64
            },
            "the source range is checked first"
        );
        let err = dst
            .copy_from(GuestAddr::new(124), &src, GuestAddr::new(0), 8)
            .unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds { size: 128, .. }));
        assert_eq!(dst.resident_pages(), 0);
    }

    #[test]
    fn error_display_is_informative() {
        let err = MemError::OutOfBounds {
            addr: GuestAddr::new(0x10),
            len: 4,
            size: 8,
        };
        let msg = err.to_string();
        assert!(msg.contains("out of bounds"));
        assert!(msg.contains("0x10"));
    }
}
