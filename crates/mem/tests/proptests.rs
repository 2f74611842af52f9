//! Property-based tests for guest memory and scatter–gather.

use bmhive_mem::{DmaModel, GuestAddr, GuestRam, SgList, SgSegment};
use bmhive_sim::{prop, SimDuration, SimRng};

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
