//! DMA engine timing model.
//!
//! §3.4.3: "IO-Bond internal DMA throughput is around 50 Gbps", and each
//! PCIe x4 interface sustains 32 Gbps. [`DmaModel`] converts a transfer
//! size into a [`SimDuration`] given a link bandwidth and a fixed
//! per-transfer setup cost, and the actual byte movement between the two
//! memory domains is done with [`DmaModel::transfer`].

use crate::addr::GuestAddr;
use crate::ram::{GuestRam, MemError};
use crate::sg::SgList;
use bmhive_sim::SimDuration;

/// Timing model for a DMA engine or link: fixed setup latency plus
/// size-proportional transfer time at a given bandwidth.
///
/// # Example
///
/// ```
/// use bmhive_mem::DmaModel;
/// use bmhive_sim::SimDuration;
///
/// // IO-Bond's internal engine: 50 Gbit/s, 0.2 us setup per transfer.
/// let dma = DmaModel::new(50.0, SimDuration::from_nanos(200));
/// let t = dma.transfer_time(64 * 1024);
/// // 64 KiB at 50 Gbit/s ≈ 10.5 us, plus setup.
/// assert!(t > SimDuration::from_micros(10) && t < SimDuration::from_micros(11));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaModel {
    bandwidth_gbps: f64,
    setup: SimDuration,
}

impl DmaModel {
    /// Creates a model with `bandwidth_gbps` gigabits per second of
    /// throughput and `setup` fixed cost per transfer.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_gbps` is not positive and finite.
    pub fn new(bandwidth_gbps: f64, setup: SimDuration) -> Self {
        assert!(
            bandwidth_gbps > 0.0 && bandwidth_gbps.is_finite(),
            "DmaModel: bandwidth must be positive"
        );
        DmaModel {
            bandwidth_gbps,
            setup,
        }
    }

    /// The modelled bandwidth in Gbit/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.bandwidth_gbps
    }

    /// The fixed setup latency per transfer.
    pub fn setup(&self) -> SimDuration {
        self.setup
    }

    /// Time to move `bytes` bytes: setup + bytes / bandwidth.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        let secs = (bytes as f64 * 8.0) / (self.bandwidth_gbps * 1e9);
        self.setup + SimDuration::from_secs_f64(secs)
    }

    /// Moves bytes described by `src_sg` in `src` into the buffers
    /// described by `dst_sg` in `dst`, returning the bytes moved and the
    /// modelled transfer time. Copies `min(src_sg.total_len(),
    /// dst_sg.total_len())` bytes.
    ///
    /// The two lists are walked together and each overlap of a source
    /// and a destination segment is one [`GuestRam::copy_from`], so
    /// every byte crosses between the domains once, page to page, with
    /// no gather buffer in between.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if either list references memory
    /// outside its RAM. Every source segment — even one past the copied
    /// prefix — is checked before any destination byte is written, so a
    /// bad source leaves `dst` untouched. A bad destination segment
    /// fails when the copy reaches it; earlier destination segments may
    /// already have been written (the [`SgList::scatter`] contract).
    pub fn transfer(
        &self,
        src: &GuestRam,
        src_sg: &SgList,
        dst: &mut GuestRam,
        dst_sg: &SgList,
    ) -> Result<(u64, SimDuration), MemError> {
        for seg in src_sg.segments() {
            src.check_range(seg.addr, u64::from(seg.len))?;
        }
        let total = src_sg.total_len();
        let mut sources = src_sg.segments().iter();
        // The unread remainder of the current source segment.
        let (mut from, mut from_left) = (GuestAddr::new(0), 0u64);
        let mut moved = 0u64;
        for seg in dst_sg.segments() {
            if moved >= total {
                break;
            }
            let take = (total - moved).min(u64::from(seg.len));
            dst.check_range(seg.addr, take)?;
            let mut to = seg.addr;
            let mut left = take;
            while left > 0 {
                while from_left == 0 {
                    let next = sources.next().expect("sources hold `total` bytes");
                    (from, from_left) = (next.addr, u64::from(next.len));
                }
                let n = left.min(from_left);
                dst.copy_from(to, src, from, n)?;
                (to, from, from_left, left) = (to + n, from + n, from_left - n, left - n);
            }
            moved += take;
        }
        Ok((moved, self.transfer_time(moved)))
    }

    /// The sustained throughput in bytes/second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bandwidth_gbps * 1e9 / 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sg::SgSegment;

    #[test]
    fn transfer_time_scales_linearly() {
        let dma = DmaModel::new(8.0, SimDuration::ZERO); // 1 GB/s
        assert_eq!(dma.transfer_time(1_000_000), SimDuration::from_millis(1));
        assert_eq!(dma.transfer_time(2_000_000), SimDuration::from_millis(2));
        assert_eq!(dma.transfer_time(0), SimDuration::ZERO);
    }

    #[test]
    fn setup_cost_dominates_small_transfers() {
        let dma = DmaModel::new(50.0, SimDuration::from_nanos(800));
        // A 64-byte mailbox read is all setup.
        let t = dma.transfer_time(64);
        assert!(t >= SimDuration::from_nanos(800));
        assert!(t < SimDuration::from_nanos(900));
    }

    #[test]
    fn transfer_moves_bytes_between_domains() {
        let dma = DmaModel::new(50.0, SimDuration::from_nanos(200));
        let mut board = GuestRam::new(1 << 20);
        let mut base = GuestRam::new(1 << 20);
        board.write(GuestAddr::new(0x100), b"tx-payload").unwrap();
        let src = SgList::single(GuestAddr::new(0x100), 10);
        let dst = SgList::from_segments(vec![
            SgSegment::new(GuestAddr::new(0x800), 4),
            SgSegment::new(GuestAddr::new(0x900), 6),
        ]);
        let (moved, time) = dma.transfer(&board, &src, &mut base, &dst).unwrap();
        assert_eq!(moved, 10);
        assert!(time > SimDuration::ZERO);
        assert_eq!(base.read_vec(GuestAddr::new(0x800), 4).unwrap(), b"tx-p");
        assert_eq!(base.read_vec(GuestAddr::new(0x900), 6).unwrap(), b"ayload");
    }

    #[test]
    fn transfer_is_limited_by_smaller_list() {
        let dma = DmaModel::new(50.0, SimDuration::ZERO);
        let src_ram = GuestRam::new(1 << 16);
        let mut dst_ram = GuestRam::new(1 << 16);
        let src = SgList::single(GuestAddr::new(0), 100);
        let dst = SgList::single(GuestAddr::new(0), 40);
        let (moved, _) = dma.transfer(&src_ram, &src, &mut dst_ram, &dst).unwrap();
        assert_eq!(moved, 40);
    }

    /// The gather → `Vec` → scatter implementation `transfer` replaced,
    /// kept only as the oracle the single-pass copy must match.
    fn reference_transfer(
        dma: &DmaModel,
        src: &GuestRam,
        src_sg: &SgList,
        dst: &mut GuestRam,
        dst_sg: &SgList,
    ) -> Result<(u64, SimDuration), MemError> {
        let data = src_sg.gather(src)?;
        let moved = dst_sg.scatter(dst, &data)?;
        Ok((moved, dma.transfer_time(moved)))
    }

    const RAM: u64 = 16 * 4096;

    /// A random segment list: zero-length, short, page-straddling and
    /// multi-page segments, placed anywhere (often just before a page
    /// boundary) and, with `oob`, occasionally past the end of RAM.
    fn random_list(rng: &mut bmhive_sim::SimRng, oob: bool) -> SgList {
        let n = rng.below(6);
        (0..n)
            .map(|_| {
                let len = match rng.below(4) {
                    0 => 0,
                    1 => rng.range(1, 17),
                    2 => rng.range(4000, 4200),
                    _ => rng.range(1, 9000),
                };
                let addr = if oob && rng.chance(0.1) {
                    RAM - len / 2 + rng.below(8)
                } else if rng.chance(0.5) {
                    let page = rng.below(RAM / 4096);
                    (page * 4096).saturating_sub(rng.below(16)).min(RAM - len)
                } else {
                    rng.below(RAM - len + 1)
                };
                SgSegment::new(GuestAddr::new(addr), len as u32)
            })
            .collect()
    }

    fn boundaries(sg: &SgList) -> Vec<u64> {
        sg.segments()
            .iter()
            .scan(0u64, |end, s| {
                *end += u64::from(s.len);
                Some(*end)
            })
            .collect()
    }

    #[test]
    fn transfer_matches_gather_scatter_reference() {
        const CASES: u64 = 1_000;
        let dma = DmaModel::new(50.0, SimDuration::from_nanos(250));
        // Which shapes the generator actually produced, so a narrowed
        // generator cannot silently stop covering one.
        let (mut mismatched, mut zero_len, mut straddling) = (0, 0, 0);
        let (mut zero_source, mut dst_shorter, mut dst_longer, mut errors) = (0, 0, 0, 0);
        for seed in 0..CASES {
            let mut rng = bmhive_sim::SimRng::with_stream(seed, 0xD4A);
            let oob = seed % 4 == 0;
            let mut src = GuestRam::new(RAM);
            let mut written_pages = Vec::new();
            for page in 0..RAM / 4096 {
                if rng.chance(0.6) {
                    let salt = rng.next_u32() as u8;
                    let bytes: Vec<u8> = (0..4096u32)
                        .map(|i| (i as u8).wrapping_mul(31) ^ (i >> 8) as u8 ^ salt)
                        .collect();
                    src.write(GuestAddr::new(page * 4096), &bytes).unwrap();
                    written_pages.push(page);
                }
            }
            let mut dst = GuestRam::new(RAM);
            for page in 0..RAM / 4096 {
                if rng.chance(0.3) {
                    dst.fill(GuestAddr::new(page * 4096), 4096, rng.next_u32() as u8)
                        .unwrap();
                }
            }
            let src_sg = random_list(&mut rng, oob);
            let dst_sg = random_list(&mut rng, oob);

            let mut dst_ref = dst.clone();
            let got = dma.transfer(&src, &src_sg, &mut dst, &dst_sg);
            let want = reference_transfer(&dma, &src, &src_sg, &mut dst_ref, &dst_sg);
            assert_eq!(got, want, "case seed {seed}: result differs");
            assert_eq!(
                dst.read_vec(GuestAddr::new(0), RAM).unwrap(),
                dst_ref.read_vec(GuestAddr::new(0), RAM).unwrap(),
                "case seed {seed}: destination bytes differ"
            );
            assert_eq!(
                dst.resident_pages(),
                dst_ref.resident_pages(),
                "case seed {seed}: destination residency differs"
            );

            let segs = src_sg.segments().iter().chain(dst_sg.segments());
            if boundaries(&src_sg)[..] != boundaries(&dst_sg)[..] && !src_sg.is_empty() {
                mismatched += 1;
            }
            if segs.clone().any(|s| s.len == 0) {
                zero_len += 1;
            }
            if segs.clone().any(|s| {
                let (start, len) = (s.addr.value(), u64::from(s.len));
                len > 0 && start / 4096 != (start + len - 1) / 4096
            }) {
                straddling += 1;
            }
            if src_sg.segments().iter().any(|s| {
                let page = s.addr.value() / 4096;
                s.len > 0 && s.addr.value() < RAM && !written_pages.contains(&page)
            }) {
                zero_source += 1;
            }
            match dst_sg.total_len().cmp(&src_sg.total_len()) {
                std::cmp::Ordering::Less => dst_shorter += 1,
                std::cmp::Ordering::Greater => dst_longer += 1,
                std::cmp::Ordering::Equal => {}
            }
            if got.is_err() {
                errors += 1;
            }
        }
        for (shape, hits) in [
            ("mismatched boundaries", mismatched),
            ("zero-length segments", zero_len),
            ("page-straddling segments", straddling),
            ("never-written source pages", zero_source),
            ("destination shorter", dst_shorter),
            ("destination longer", dst_longer),
            ("out-of-bounds errors", errors),
        ] {
            assert!(hits >= 20, "only {hits} of {CASES} cases had {shape}");
        }
    }

    #[test]
    fn bad_source_past_the_copied_prefix_leaves_destination_untouched() {
        let dma = DmaModel::new(50.0, SimDuration::ZERO);
        let mut src = GuestRam::new(RAM);
        src.fill(GuestAddr::new(0), 64, 0xaa).unwrap();
        let mut dst = GuestRam::new(RAM);
        // The destination only takes 8 bytes, all from the first source
        // segment; the second one is never copied but is still checked.
        let src_sg = SgList::from_segments(vec![
            SgSegment::new(GuestAddr::new(0), 64),
            SgSegment::new(GuestAddr::new(RAM - 4), 8),
        ]);
        let dst_sg = SgList::single(GuestAddr::new(0x100), 8);
        let err = dma.transfer(&src, &src_sg, &mut dst, &dst_sg).unwrap_err();
        assert_eq!(
            err,
            MemError::OutOfBounds {
                addr: GuestAddr::new(RAM - 4),
                len: 8,
                size: RAM
            }
        );
        assert_eq!(dst.resident_pages(), 0, "no destination byte was written");
    }

    #[test]
    fn bytes_per_sec_conversion() {
        let dma = DmaModel::new(50.0, SimDuration::ZERO);
        assert_eq!(dma.bytes_per_sec(), 6.25e9);
        assert_eq!(dma.bandwidth_gbps(), 50.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        DmaModel::new(0.0, SimDuration::ZERO);
    }
}
