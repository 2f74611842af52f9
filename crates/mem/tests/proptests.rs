//! Property-based tests for guest memory and scatter–gather.

use bmhive_mem::{DmaModel, GuestAddr, GuestRam, MemError, SgList, SgSegment};
use bmhive_sim::{prop, SimDuration, SimRng};
use std::collections::{HashMap, HashSet};

const CASES: u64 = 256;
const RAM_SIZE: u64 = 1 << 20;

fn segment(rng: &mut SimRng) -> SgSegment {
    let addr = rng.range(0, RAM_SIZE - 4096);
    let len = rng.range(1, 2048) as u32;
    SgSegment::new(GuestAddr::new(addr), len)
}

/// Anything written to RAM reads back identically, regardless of
/// offset and length (including page-straddling accesses).
#[test]
fn ram_write_read_round_trip() {
    prop::check("ram_write_read_round_trip", CASES, |rng| {
        let addr = rng.range(0, RAM_SIZE - 16_384);
        let data = prop::bytes(rng, 1..16_384);
        let mut ram = GuestRam::new(RAM_SIZE);
        ram.write(GuestAddr::new(addr), &data).unwrap();
        assert_eq!(
            ram.read_vec(GuestAddr::new(addr), data.len() as u64)
                .unwrap(),
            data
        );
    });
}

/// Non-overlapping writes do not disturb each other.
#[test]
fn ram_disjoint_writes_are_independent() {
    prop::check("ram_disjoint_writes_are_independent", CASES, |rng| {
        let a = prop::bytes(rng, 1..512);
        let b = prop::bytes(rng, 1..512);
        let mut ram = GuestRam::new(RAM_SIZE);
        let addr_a = GuestAddr::new(0x1000);
        let addr_b = GuestAddr::new(0x1000 + 512);
        ram.write(addr_a, &a).unwrap();
        ram.write(addr_b, &b).unwrap();
        assert_eq!(ram.read_vec(addr_a, a.len() as u64).unwrap(), a);
        assert_eq!(ram.read_vec(addr_b, b.len() as u64).unwrap(), b);
    });
}

/// scatter() then gather() over the same list returns the original
/// prefix of the data: bytes in == bytes out (the shadow-vring DMA
/// invariant).
#[test]
fn sg_scatter_gather_round_trip() {
    prop::check("sg_scatter_gather_round_trip", CASES, |rng| {
        let segs = prop::vec(rng, 1..8, segment);
        let data = prop::bytes(rng, 1..4096);
        // Make segments disjoint by spreading them out deterministically.
        let segs: Vec<SgSegment> = segs
            .iter()
            .enumerate()
            .map(|(i, s)| SgSegment::new(GuestAddr::new((i as u64) * 8192), s.len.min(4096)))
            .collect();
        let sg = SgList::from_segments(segs);
        let mut ram = GuestRam::new(RAM_SIZE);
        let written = sg.scatter(&mut ram, &data).unwrap();
        let expected = &data[..written as usize];
        let gathered = sg.gather(&ram).unwrap();
        assert_eq!(&gathered[..written as usize], expected);
        assert_eq!(written, (data.len() as u64).min(sg.total_len()));
    });
}

/// split_at conserves both total length and segment contents.
#[test]
fn sg_split_conserves_bytes() {
    prop::check("sg_split_conserves_bytes", CASES, |rng| {
        let lens = prop::vec(rng, 1..8, |r| r.range(1, 512) as u32);
        let frac = rng.range_f64(0.0, 1.0);
        let segs: Vec<SgSegment> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| SgSegment::new(GuestAddr::new((i as u64) * 4096), len))
            .collect();
        let sg = SgList::from_segments(segs);
        let mid = (sg.total_len() as f64 * frac) as u64;
        let (head, tail) = sg.split_at(mid);
        assert_eq!(head.total_len(), mid);
        assert_eq!(head.total_len() + tail.total_len(), sg.total_len());

        // Gathering head+tail equals gathering the original.
        let mut ram = GuestRam::new(RAM_SIZE);
        let data: Vec<u8> = (0..sg.total_len()).map(|i| (i % 251) as u8).collect();
        sg.scatter(&mut ram, &data).unwrap();
        let mut joined = head.gather(&ram).unwrap();
        joined.extend(tail.gather(&ram).unwrap());
        assert_eq!(joined, data);
    });
}

/// DMA transfer time is monotone in size and linear up to setup cost.
#[test]
fn dma_time_monotone() {
    prop::check("dma_time_monotone", CASES, |rng| {
        let bw = rng.range_f64(1.0, 200.0);
        let setup_ns = rng.range(0, 10_000);
        let small = rng.range(0, 1_000_000);
        let delta = rng.range(0, 1_000_000);
        let dma = DmaModel::new(bw, SimDuration::from_nanos(setup_ns));
        let t_small = dma.transfer_time(small);
        let t_large = dma.transfer_time(small + delta);
        assert!(t_large >= t_small);
        // Linearity: t(a+b) - setup == (t(a) - setup) + (t(b) - setup), within rounding.
        let t_delta = dma.transfer_time(delta);
        let lhs = t_large.as_nanos() as i128;
        let rhs = t_small.as_nanos() as i128 + t_delta.as_nanos() as i128 - setup_ns as i128;
        assert!((lhs - rhs).abs() <= 2, "lhs {lhs} rhs {rhs}");
    });
}

/// DMA between domains preserves content for any payload.
#[test]
fn dma_transfer_preserves_content() {
    prop::check("dma_transfer_preserves_content", CASES, |rng| {
        let data = prop::bytes(rng, 1..8192);
        let dma = DmaModel::new(50.0, SimDuration::from_nanos(200));
        let mut src = GuestRam::new(RAM_SIZE);
        let mut dst = GuestRam::new(RAM_SIZE);
        src.write(GuestAddr::new(0x4000), &data).unwrap();
        let src_sg = SgList::single(GuestAddr::new(0x4000), data.len() as u32);
        let dst_sg = SgList::single(GuestAddr::new(0x9000), data.len() as u32);
        let (moved, _) = dma.transfer(&src, &src_sg, &mut dst, &dst_sg).unwrap();
        assert_eq!(moved, data.len() as u64);
        assert_eq!(dst.read_vec(GuestAddr::new(0x9000), moved).unwrap(), data);
    });
}

/// The byte-map reference model of one [`GuestRam`]: every byte ever
/// written, and every page a write has touched.
struct RamModel {
    size: u64,
    bytes: HashMap<u64, u8>,
    pages: HashSet<u64>,
}

impl RamModel {
    fn new(size: u64) -> Self {
        RamModel {
            size,
            bytes: HashMap::new(),
            pages: HashSet::new(),
        }
    }

    fn check(&self, addr: u64, len: u64) -> Result<(), MemError> {
        match addr.checked_add(len) {
            Some(end) if end <= self.size => Ok(()),
            _ => Err(MemError::OutOfBounds {
                addr: GuestAddr::new(addr),
                len,
                size: self.size,
            }),
        }
    }

    fn read(&self, addr: u64, len: u64) -> Vec<u8> {
        (addr..addr + len)
            .map(|a| self.bytes.get(&a).copied().unwrap_or(0))
            .collect()
    }

    /// Writes `data` at `addr` if the range is in bounds.
    fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        self.check(addr, data.len() as u64)?;
        for (a, &b) in (addr..).zip(data) {
            self.bytes.insert(a, b);
            self.pages.insert(a >> 12);
        }
        Ok(())
    }
}

/// An address that stresses the page table: anywhere, just below a
/// page or 2 MiB granule boundary (4094, 4090, …), at the end of RAM,
/// or out of bounds up to the end of the address space.
fn hostile_addr(rng: &mut SimRng, size: u64) -> u64 {
    let boundary = match rng.below(6) {
        0 => return rng.below(size),
        1 => 4096 * rng.range(1, 4),
        2 => 4096 * rng.range(1, size / 4096),
        3 => (2 << 20) * rng.range(1, size.div_ceil(2 << 20) + 1),
        4 => size,
        _ => match rng.below(2) {
            0 => return size + rng.below(1 << 20),
            _ => u64::MAX,
        },
    };
    boundary - rng.below(9)
}

/// A length that is mostly a ring field's, sometimes zero, sometimes
/// longer than a page.
fn access_len(rng: &mut SimRng) -> u64 {
    match rng.below(10) {
        0 => 0,
        1 => rng.range(4000, 9000),
        _ => rng.range(1, 64),
    }
}

/// Random reads, writes, integer accesses, fills and copies between a
/// 64 GiB and a 3 MiB memory give the same bytes, the same `Result`s
/// and the same resident-page count as a byte-map model, at page and
/// granule boundaries, far addresses and out-of-bounds ranges alike.
#[test]
fn ram_matches_a_byte_map_model() {
    prop::check("ram_matches_a_byte_map_model", 64, |rng| {
        let mut rams = [GuestRam::new(64 << 30), GuestRam::new(3 << 20)];
        let mut models = [RamModel::new(64 << 30), RamModel::new(3 << 20)];
        for _ in 0..rng.range(1, 40) {
            let which = rng.below(2) as usize;
            let (ram, model) = (&mut rams[which], &mut models[which]);
            let addr = hostile_addr(rng, model.size);
            let at = GuestAddr::new(addr);
            match rng.below(6) {
                0 => {
                    let len = access_len(rng) as usize;
                    let data = prop::bytes(rng, 0..len + 1);
                    assert_eq!(ram.write(at, &data), model.write(addr, &data));
                }
                1 => {
                    let len = access_len(rng);
                    let mut buf = vec![0xa5; len as usize];
                    let got = ram.read(at, &mut buf).map(|()| buf);
                    let want = model.check(addr, len).map(|()| model.read(addr, len));
                    assert_eq!(got, want, "read {addr:#x}+{len}");
                }
                2 => {
                    let width = 1u64 << rng.below(4);
                    let got = match width {
                        1 => ram.read_u8(at).map(u64::from),
                        2 => ram.read_u16(at).map(u64::from),
                        4 => ram.read_u32(at).map(u64::from),
                        _ => ram.read_u64(at),
                    };
                    let want = model.check(addr, width).map(|()| {
                        let mut le = [0u8; 8];
                        le[..width as usize].copy_from_slice(&model.read(addr, width));
                        u64::from_le_bytes(le)
                    });
                    assert_eq!(got, want, "read_u{} {addr:#x}", width * 8);
                }
                3 => {
                    let value = rng.next_u64();
                    let width = 2u64 << rng.below(3);
                    let got = match width {
                        2 => ram.write_u16(at, value as u16),
                        4 => ram.write_u32(at, value as u32),
                        _ => ram.write_u64(at, value),
                    };
                    let want = model.write(addr, &value.to_le_bytes()[..width as usize]);
                    assert_eq!(got, want, "write_u{} {addr:#x}", width * 8);
                }
                4 => {
                    let (len, byte) = (access_len(rng), rng.next_u32() as u8);
                    let want = model.write(addr, &vec![byte; len as usize]);
                    assert_eq!(ram.fill(at, len, byte), want, "fill {addr:#x}+{len}");
                }
                _ => {
                    let [a, b] = &mut rams;
                    let [ma, mb] = &mut models;
                    let (dst, src, mdst, msrc) = match which {
                        0 => (a, &*b, ma, &*mb),
                        _ => (b, &*a, mb, &*ma),
                    };
                    let src_addr = hostile_addr(rng, msrc.size);
                    let len = access_len(rng);
                    let want = msrc
                        .check(src_addr, len)
                        .and_then(|()| mdst.check(addr, len))
                        .and_then(|()| mdst.write(addr, &msrc.read(src_addr, len)));
                    let got = dst.copy_from(at, src, GuestAddr::new(src_addr), len);
                    assert_eq!(got, want, "copy {src_addr:#x}+{len} -> {addr:#x}");
                }
            }
            for (ram, model) in rams.iter().zip(&models) {
                assert_eq!(ram.resident_pages(), model.pages.len());
                for (&a, &b) in &model.bytes {
                    assert_eq!(ram.read_u8(GuestAddr::new(a)), Ok(b), "byte {a:#x}");
                }
            }
        }
    });
}
