//! Sparse byte-addressable backing store.
//!
//! The simulator is value-accurate: weights and neuron states really live in
//! simulated DRAM. A multi-gigabyte cube is modeled sparsely with fixed-size
//! pages allocated on first touch.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 16; // 64 KiB pages
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Multiplicative hasher for page numbers. Every serviced DRAM word goes
/// through the page table, and page numbers are small dense integers —
/// SipHash (the `HashMap` default, sized for adversarial keys) would
/// dominate the channel's data path.
#[derive(Clone, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A sparse, byte-addressable memory image.
///
/// Reads of never-written locations return zero, matching a DRAM image that
/// the host cleared before loading the network (the paper's programming
/// model stores all layer data at known addresses before execution starts).
///
/// # Examples
///
/// ```
/// use neurocube_dram::Storage;
///
/// let mut mem = Storage::new();
/// mem.write_u16(0x1000, 0xBEEF);
/// assert_eq!(mem.read_u16(0x1000), 0xBEEF);
/// assert_eq!(mem.read_u16(0x2000), 0); // untouched
/// ```
#[derive(Clone, Debug, Default)]
pub struct Storage {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>,
}

impl Storage {
    /// Creates an empty (all-zero) image.
    pub fn new() -> Storage {
        Storage::default()
    }

    /// Whether the page holding `addr` has been materialized. Never-written
    /// pages read as zero without existing; callers that would *write*
    /// (e.g. fault injection flipping a stored bit) can use this to avoid
    /// materializing a 64 KiB page for a cell nothing will ever read.
    pub(crate) fn page_resident(&self, addr: u64) -> bool {
        self.pages.contains_key(&(addr >> PAGE_SHIFT))
    }

    /// Reads one byte.
    pub(crate) fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte, materializing the page if needed.
    pub(crate) fn write_u8(&mut self, addr: u64, value: u8) {
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        page[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads `N` bytes through a single page lookup when they do not
    /// straddle a page boundary (the overwhelmingly common case — channel
    /// words are aligned and pages are 64 KiB).
    fn read_array<const N: usize>(&self, addr: u64) -> [u8; N] {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + N <= PAGE_SIZE {
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(page) => page[off..off + N].try_into().expect("length matches"),
                None => [0; N],
            }
        } else {
            std::array::from_fn(|i| self.read_u8(addr + i as u64))
        }
    }

    /// Reads a little-endian `u16` (the size of one `Q1.7.8` item).
    pub fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u32` (one HMC vault word = two data items).
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian `u32`.
    pub(crate) fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Bulk write starting at `addr`, one page lookup per touched page.
    pub(crate) fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + bytes.len() <= PAGE_SIZE {
            let page = self
                .pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            page[off..off + bytes.len()].copy_from_slice(bytes);
        } else {
            for (i, &b) in bytes.iter().enumerate() {
                self.write_u8(addr + i as u64, b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Storage {
        /// Number of 64 KiB pages actually materialized.
        fn resident_pages(&self) -> usize {
            self.pages.len()
        }

        fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
            (0..len).map(|i| self.read_u8(addr + i as u64)).collect()
        }
    }

    #[test]
    fn zero_before_write() {
        let mem = Storage::new();
        assert_eq!(mem.read_u32(0), 0);
        assert_eq!(mem.read_u8(u64::MAX - 4), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn u16_roundtrip_across_page_boundary() {
        let mut mem = Storage::new();
        let boundary = (1u64 << PAGE_SHIFT) - 1;
        mem.write_u16(boundary, 0xABCD);
        assert_eq!(mem.read_u16(boundary), 0xABCD);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn u32_little_endian_layout() {
        let mut mem = Storage::new();
        mem.write_u32(0x100, 0x1122_3344);
        assert_eq!(mem.read_u8(0x100), 0x44);
        assert_eq!(mem.read_u8(0x103), 0x11);
        // Two u16 halves are the two packed Q8.8 items of an HMC word.
        assert_eq!(mem.read_u16(0x100), 0x3344);
        assert_eq!(mem.read_u16(0x102), 0x1122);
    }

    #[test]
    fn bulk_roundtrip() {
        let mut mem = Storage::new();
        let data: Vec<u8> = (0..=255).collect();
        mem.write_bytes(0xFFFF0, &data); // spans pages
        assert_eq!(mem.read_bytes(0xFFFF0, 256), data);
    }

    #[test]
    fn sparse_pages_stay_sparse() {
        let mut mem = Storage::new();
        mem.write_u8(0, 1);
        mem.write_u8(1 << 30, 2); // 1 GiB away
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn overwrite_is_visible() {
        let mut mem = Storage::new();
        mem.write_u16(8, 1);
        mem.write_u16(8, 2);
        assert_eq!(mem.read_u16(8), 2);
    }
}
